package ch4

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/proc"
	"gompi/internal/request"
)

// env is what each rank's test body receives.
type env struct {
	d *Device
	c *comm.Comm // world communicator
}

// runWorld spins up n ranks with ch4 devices over the given fabric
// profile and ranks-per-node, then runs body on each.
func runWorld(t *testing.T, n, rpn int, prof fabric.Profile, cfg core.Config, body func(e *env) error) {
	t.Helper()
	hz := prof.Hz
	if hz == 0 {
		hz = 2.2e9
	}
	w := proc.NewWorld(n, rpn, hz)
	g := NewGlobal(w, prof, cfg)
	reg := comm.NewRegistry()
	err := errors.Join(w.RunAll(func(r *proc.Rank) error {
		d := g.Open(r)
		c := comm.NewWorld(reg, n, r.ID())
		c.Exchange(d, nil) // start-up: every device is open
		return body(&env{d: d, c: c})
	})...)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvNetmod(t *testing.T) {
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		switch e.c.Rank() {
		case 0:
			req, err := e.d.Isend([]byte("ping"), 4, datatype.Byte, 1, 7, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			req.Free()
		case 1:
			buf := make([]byte, 4)
			req, err := e.d.Irecv(buf, 4, datatype.Byte, 0, 7, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			if string(buf) != "ping" {
				return fmt.Errorf("got %q", buf)
			}
			if req.Status.Source != 0 || req.Status.Tag != 7 || req.Status.Count != 4 {
				return fmt.Errorf("status %+v", req.Status)
			}
			req.Free()
		}
		return nil
	})
}

func TestSendRecvShm(t *testing.T) {
	// Both ranks on one node: traffic must ride the shmmod.
	runWorld(t, 2, 2, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			_, err := e.d.Isend([]byte{42}, 1, datatype.Byte, 1, 0, e.c, 0)
			return err
		}
		buf := make([]byte, 1)
		req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if buf[0] != 42 {
			return fmt.Errorf("got %d", buf[0])
		}
		// No netmod injection should have been charged for the send on
		// rank 0 — checked there via the transport counter being
		// below the OFI injection cost.
		return nil
	})
}

// TestShmDrainWakesAggregateWaiter: an shm deposit moves only its VCI's
// event sequence, so the drain that delivered it must wake the rank's
// aggregate waiters itself. Here the sender's wake has already fired
// when a second goroutine of the receiving rank (MPI_THREAD_MULTIPLE)
// starts waiting on the aggregate sequence, and only the owner's drain
// is left to end that wait: were Progress not to Notify, it would
// sleep forever.
func TestShmDrainWakesAggregateWaiter(t *testing.T) {
	cfg := core.Default
	cfg.ThreadMultiple = true
	w := proc.NewWorld(2, 2, 2.2e9)
	w.SetThreadMultiple(true)
	g := NewGlobal(w, fabric.OFI, cfg)
	reg := comm.NewRegistry()
	sent := make(chan struct{})
	err := errors.Join(w.RunAll(func(r *proc.Rank) error {
		d := g.Open(r)
		c := comm.NewWorld(reg, 2, r.ID())
		c.Exchange(d, nil)
		if c.Rank() == 0 {
			_, err := d.Isend([]byte{42}, 1, datatype.Byte, 1, 0, c, 0)
			close(sent)
			return err
		}
		buf := make([]byte, 1)
		req, err := d.Irecv(buf, 1, datatype.Byte, 0, 0, c, 0)
		if err != nil {
			return err
		}
		<-sent
		seq := d.EventSeq()
		woke := make(chan struct{})
		go func() {
			d.WaitEvent(seq)
			close(woke)
		}()
		d.Progress()
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			return errors.New("the drain that delivered the message did not wake the aggregate waiter")
		}
		if !req.Done() || buf[0] != 42 {
			return fmt.Errorf("message not delivered by the drain: done %v, byte %d", req.Done(), buf[0])
		}
		req.Free()
		return nil
	})...)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	runWorld(t, 1, 1, fabric.OFI, core.Default, func(e *env) error {
		if _, err := e.d.Isend([]byte{9}, 1, datatype.Byte, 0, 3, e.c, 0); err != nil {
			return err
		}
		buf := make([]byte, 1)
		req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 3, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if buf[0] != 9 {
			return fmt.Errorf("self send got %d", buf[0])
		}
		return nil
	})
}

func TestAnySourceAcrossTransports(t *testing.T) {
	// Four ranks, two per node: rank 0 receives ANY_SOURCE from an
	// on-node peer (shm) and an off-node peer (netmod) through the one
	// shared matching context.
	runWorld(t, 4, 2, fabric.OFI, core.Default, func(e *env) error {
		switch e.c.Rank() {
		case 1, 2: // 1 shares node 0 with rank 0; 2 is on node 1
			_, err := e.d.Isend([]byte{byte(e.c.Rank())}, 1, datatype.Byte, 0, 5, e.c, 0)
			return err
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 1)
				req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, 5, e.c, 0)
				if err != nil {
					return err
				}
				req.Wait()
				got[req.Status.Source] = true
			}
			if !got[1] || !got[2] {
				return fmt.Errorf("sources seen: %v", got)
			}
		}
		return nil
	})
}

func TestProcNull(t *testing.T) {
	runWorld(t, 1, 1, fabric.INF, core.Default, func(e *env) error {
		req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, core.ProcNull, 0, e.c, 0)
		if err != nil {
			return err
		}
		if !req.Done() {
			return errors.New("PROC_NULL send not immediately complete")
		}
		rreq, err := e.d.Irecv(make([]byte, 1), 1, datatype.Byte, core.ProcNull, 0, e.c, 0)
		if err != nil {
			return err
		}
		rreq.Wait()
		if rreq.Status.Source != core.ProcNull || rreq.Status.Count != 0 {
			return fmt.Errorf("status %+v", rreq.Status)
		}
		return nil
	})
}

func TestDerivedDatatypeRoundTrip(t *testing.T) {
	vec, _ := datatype.NewVector(3, 1, 2, datatype.Byte) // every other byte
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			src := []byte{'a', 'x', 'b', 'y', 'c', 'z'}
			_, err := e.d.Isend(src, 1, vec, 1, 0, e.c, 0)
			return err
		}
		dst := bytes.Repeat([]byte{'.'}, 6)
		req, err := e.d.Irecv(dst, 1, vec, 0, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if string(dst) != "a.b.c." {
			return fmt.Errorf("unpacked %q", dst)
		}
		return nil
	})
}

func TestTruncationStatus(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			_, err := e.d.Isend(make([]byte, 8), 8, datatype.Byte, 1, 0, e.c, 0)
			return err
		}
		req, err := e.d.Irecv(make([]byte, 4), 4, datatype.Byte, 0, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		if !req.Status.Truncated {
			return errors.New("truncation not reported")
		}
		return nil
	})
}

func TestNoReqAndCommWaitall(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				req, err := e.d.Isend([]byte{byte(i)}, 1, datatype.Byte, 1, i, e.c, core.FlagNoReq)
				if err != nil {
					return err
				}
				if req != nil {
					return errors.New("no-req send returned a request")
				}
			}
			return e.d.CommWaitall(e.c)
		}
		for i := 0; i < 10; i++ {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, i, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d carried %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestAllOptsPathAndNoMatchRecv(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		if e.c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := e.d.IsendAllOpts([]byte{byte(10 + i)}, 1, e.c); err != nil {
					return err
				}
			}
			return nil
		}
		// Arrival order: 10, 11, 12.
		for i := 0; i < 3; i++ {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, core.AnyTag, e.c, core.FlagNoMatch)
			if err != nil {
				return err
			}
			req.Wait()
			if buf[0] != byte(10+i) {
				return fmt.Errorf("arrival order violated: got %d at %d", buf[0], i)
			}
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			_, err := e.d.Isend([]byte{1, 2, 3}, 3, datatype.Byte, 1, 9, e.c, 0)
			return err
		}
		var st request.Status
		var ok bool
		for !ok {
			var err error
			st, ok, err = e.d.Iprobe(0, 9, e.c)
			if err != nil {
				return err
			}
		}
		if st.Count != 3 || st.Source != 0 || st.Tag != 9 {
			return fmt.Errorf("probe status %+v", st)
		}
		// The message is still receivable.
		buf := make([]byte, 3)
		req, err := e.d.Irecv(buf, 3, datatype.Byte, 0, 9, e.c, 0)
		if err != nil {
			return err
		}
		req.Wait()
		return nil
	})
}

// TestIsendMandatoryInstructionCount pins the Table 1 "MPI mandatory
// overheads" figure for the default MPI_ISEND fast path: 59.
func TestIsendMandatoryInstructionCount(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.Default, func(e *env) error {
		if e.c.Rank() != 0 {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			return nil
		}
		snap := e.d.rank.Profile().Snap()
		req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 1, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Free()
		delta := e.d.rank.Profile().Delta(snap)
		if got := delta.Count(instr.Mandatory); got != 59 {
			return fmt.Errorf("mandatory = %d, want 59", got)
		}
		if got := delta.Count(instr.Redundant); got != 59 {
			return fmt.Errorf("redundant = %d, want 59", got)
		}
		return nil
	})
}

// TestAllOptsInstructionCount pins the Section 3.7 figure: 16
// instructions for MPI_ISEND_ALL_OPTS.
func TestAllOptsInstructionCount(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		if e.c.Rank() != 0 {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, core.AnyTag, e.c, core.FlagNoMatch)
			if err != nil {
				return err
			}
			req.Wait()
			return nil
		}
		snap := e.d.rank.Profile().Snap()
		if err := e.d.IsendAllOpts([]byte{1}, 1, e.c); err != nil {
			return err
		}
		delta := e.d.rank.Profile().Delta(snap)
		if got := delta.Total; got != 16 {
			return fmt.Errorf("all-opts total = %d, want 16", got)
		}
		return nil
	})
}

// TestIPOBuildChargesNoRedundant confirms the inlined build drops the
// redundant-runtime-check charges.
func TestIPOBuildChargesNoRedundant(t *testing.T) {
	runWorld(t, 2, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		if e.c.Rank() != 0 {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, e.c, 0)
			if err != nil {
				return err
			}
			req.Wait()
			return nil
		}
		snap := e.d.rank.Profile().Snap()
		req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 1, 0, e.c, 0)
		if err != nil {
			return err
		}
		req.Free()
		delta := e.d.rank.Profile().Delta(snap)
		if got := delta.Count(instr.Redundant); got != 0 {
			return fmt.Errorf("ipo build charged %d redundant instructions", got)
		}
		return nil
	})
}

// TestProposalSavings verifies each Section 3 flag shaves its
// documented instruction count off the Isend fast path.
func TestProposalSavings(t *testing.T) {
	measure := func(e *env, flags core.OpFlags, dest int) int64 {
		snap := e.d.rank.Profile().Snap()
		req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, dest, 0, e.c, flags)
		if err != nil {
			t.Error(err)
		}
		if req != nil {
			req.Free()
		}
		return e.d.rank.Profile().Delta(snap).Count(instr.Mandatory)
	}
	runWorld(t, 2, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		if e.c.Rank() != 0 {
			// Drain everything rank 0 sends (arrival order, any bits).
			for i := 0; i < 5; i++ {
				buf := make([]byte, 1)
				req, err := e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, core.AnyTag, e.c, core.FlagNoMatch)
				if err != nil {
					return err
				}
				req.Wait()
			}
			return nil
		}
		base := measure(e, 0, 1)
		if base != 59 {
			return fmt.Errorf("baseline mandatory = %d, want 59", base)
		}
		cases := []struct {
			name string
			flag core.OpFlags
			save int64
		}{
			{"glob_rank", core.FlagGlobalRank, cost(instr.RankTranslate)},
			{"predef_comm", core.FlagPredefComm, cost(instr.CommDeref) - cost(instr.CommPredef)},
			{"no_proc_null", core.FlagNoProcNull, cost(instr.ProcNull)},
			{"no_req", core.FlagNoReq, cost(instr.Request) - cost(instr.Counter)},
			{"no_match", core.FlagNoMatch, cost(instr.MatchBits) - cost(instr.MatchBitsNoMatch)},
		}
		for _, c := range cases {
			got := measure(e, c.flag, 1)
			if base-got != c.save {
				return fmt.Errorf("%s saved %d, want %d", c.name, base-got, c.save)
			}
		}
		return nil
	})
}

func TestDenseTableTranslationCheaper(t *testing.T) {
	// A dense (irregular) communicator charges the O(P)-table cost; the
	// compressed representation charges more instructions (the
	// rank-translation ablation).
	runWorld(t, 3, 1, fabric.INF, core.NoErrSingleIPO, func(e *env) error {
		sub, err := e.c.Split(e.d, 0, []int{0, 2, 1}[e.c.Rank()])
		if err != nil {
			return err
		}
		if sub.Table.Kind() != comm.TableDense {
			return fmt.Errorf("table kind = %d, want dense", sub.Table.Kind())
		}
		if e.c.Rank() == 0 {
			snap := e.d.rank.Profile().Snap()
			req, err := e.d.Isend([]byte{1}, 1, datatype.Byte, 1, 0, sub, 0)
			if err != nil {
				return err
			}
			req.Free()
			dense := e.d.rank.Profile().Delta(snap).Count(instr.Mandatory)
			if dense != 59-cost(instr.RankTranslate)+cost(instr.RankTranslateDense) {
				return fmt.Errorf("dense mandatory = %d", dense)
			}
		}
		// sub ranks: 0->world0, 1->world2, 2->world1. World rank 2 is
		// sub rank 1: receive there.
		if e.c.Rank() == 2 {
			buf := make([]byte, 1)
			req, err := e.d.Irecv(buf, 1, datatype.Byte, 0, 0, sub, 0)
			if err != nil {
				return err
			}
			req.Wait()
		}
		return nil
	})
}
