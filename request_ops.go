package gompi

// Request-array helpers mirroring the MPI_{WAIT,TEST}{ANY,ALL,SOME}
// family. Completed requests are freed and their slots set to nil, the
// Go equivalent of MPI setting them to MPI_REQUEST_NULL.

// UndefinedIndex is returned by Waitany/Testany when every request is
// nil (MPI_UNDEFINED).
const UndefinedIndex = -1

// Waitany blocks until one of the requests completes and returns its
// index and status (MPI_WAITANY). Nil entries are skipped; if all
// entries are nil it returns UndefinedIndex immediately.
func Waitany(reqs []*Request) (int, Status, error) {
	for {
		live := false
		var owner *Proc
		var seq uint64
		for i, r := range reqs {
			if r == nil || r.r == nil {
				continue
			}
			if !live {
				// Capture the event counter before the scan so an
				// arrival during the scan is never slept through.
				owner = r.p
				seq = owner.dev.EventSeq()
			}
			live = true
			st, done, err := r.Test()
			if done {
				reqs[i] = nil
				return i, st, err
			}
		}
		if !live {
			return UndefinedIndex, Status{}, nil
		}
		owner.dev.WaitEvent(seq)
	}
}

// Testany polls the requests once (MPI_TESTANY): if one has completed
// it returns (index, status, true).
func Testany(reqs []*Request) (int, Status, bool, error) {
	live := false
	for i, r := range reqs {
		if r == nil || r.r == nil {
			continue
		}
		live = true
		st, done, err := r.Test()
		if done {
			reqs[i] = nil
			return i, st, true, err
		}
	}
	if !live {
		return UndefinedIndex, Status{}, true, nil
	}
	return UndefinedIndex, Status{}, false, nil
}

// Waitsome blocks until at least one request completes and returns the
// indices and statuses of everything that has (MPI_WAITSOME).
func Waitsome(reqs []*Request) ([]int, []Status, error) {
	idx, st, err := Waitany(reqs)
	if idx == UndefinedIndex {
		return nil, nil, err
	}
	indices := []int{idx}
	statuses := []Status{st}
	if err != nil {
		return indices, statuses, err
	}
	// Harvest everything else already complete.
	for i, r := range reqs {
		if r == nil || r.r == nil {
			continue
		}
		s, done, terr := r.Test()
		if done {
			reqs[i] = nil
			indices = append(indices, i)
			statuses = append(statuses, s)
			if terr != nil && err == nil {
				err = terr
			}
		}
	}
	return indices, statuses, err
}

// Testall polls whether every request has completed (MPI_TESTALL). If
// so, all are freed and their statuses returned.
func Testall(reqs []*Request) ([]Status, bool, error) {
	for _, r := range reqs {
		if r == nil || r.r == nil {
			continue
		}
		if !r.r.Done() {
			pollMiss()
			return nil, false, nil
		}
	}
	statuses := make([]Status, len(reqs))
	var first error
	for i, r := range reqs {
		st, err := r.Wait() // already complete: collects status + frees
		statuses[i] = st
		if err != nil && first == nil {
			first = err
		}
		reqs[i] = nil
	}
	return statuses, true, first
}
