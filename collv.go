package gompi

import "gompi/internal/nbc"

// Scan computes the inclusive prefix reduction over ranks 0..r
// (MPI_SCAN), folding in rank order.
func (c *Comm) Scan(send, recv []byte, count int, elem *Datatype, op Op) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, elem, send, recv)
		if err != nil {
			return err
		}
		nbc.Scan(s, t, tag, op, elem, send[:n], recv[:n])
		return nil
	})
}

// Exscan computes the exclusive prefix reduction over ranks 0..r-1
// (MPI_EXSCAN); rank 0's recv is left untouched.
func (c *Comm) Exscan(send, recv []byte, count int, elem *Datatype, op Op) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		n, err := collBuf(count, elem, send, recv)
		if err != nil {
			return err
		}
		nbc.Exscan(s, t, tag, op, elem, send[:n], recv[:n])
		return nil
	})
}

// tableSpan is the buffer length a counts/displacements table covers
// (the compiler rejects tables of the wrong length).
func tableSpan(counts, displs []int) int {
	need := 0
	for r := range min(len(counts), len(displs)) {
		need = max(need, displs[r]+counts[r])
	}
	return need
}

// Gatherv concentrates variable-size byte blocks on root
// (MPI_GATHERV): counts[r] bytes from rank r land at byte offset
// displs[r] of recv. counts/displs/recv are significant only on root.
func (c *Comm) Gatherv(send []byte, recv []byte, counts, displs []int, root int) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		if t.Rank() == root {
			if need := tableSpan(counts, displs); len(recv) < need {
				return errc(ErrBuffer, "gatherv recv %d < %d", len(recv), need)
			}
		}
		return nbc.Gatherv(s, t, tag, send, recv, counts, displs, root)
	})
}

// Scatterv distributes variable-size byte blocks from root
// (MPI_SCATTERV); rank r receives counts[r] bytes into recv, which must
// be exactly that long.
func (c *Comm) Scatterv(send []byte, counts, displs []int, recv []byte, root int) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		return nbc.Scatterv(s, t, tag, send, counts, displs, recv, root)
	})
}

// Allgatherv concentrates variable-size byte blocks everywhere
// (MPI_ALLGATHERV); every rank supplies identical counts/displs tables.
func (c *Comm) Allgatherv(send []byte, recv []byte, counts, displs []int) error {
	return c.bcoll(nbc.ForceAuto, func(s *nbc.Schedule, t *nbcPort, tag int, _ nbc.Force) error {
		if need := tableSpan(counts, displs); len(recv) < need {
			return errc(ErrBuffer, "allgatherv recv %d < %d", len(recv), need)
		}
		return nbc.Allgatherv(s, t, tag, send, recv, counts, displs)
	})
}
