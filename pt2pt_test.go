package gompi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestNonblockingWindowedExchange(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		const msgs = 32
		if p.Rank() == 0 {
			reqs := make([]*Request, 0, msgs)
			for i := 0; i < msgs; i++ {
				req, err := w.Isend([]byte{byte(i)}, 1, Byte, 1, i)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			return Waitall(reqs)
		}
		reqs := make([]*Request, 0, msgs)
		bufs := make([][]byte, msgs)
		for i := 0; i < msgs; i++ {
			bufs[i] = make([]byte, 1)
			req, err := w.Irecv(bufs[i], 1, Byte, 0, i)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		for i, b := range bufs {
			if b[0] != byte(i) {
				return fmt.Errorf("msg %d carried %d", i, b[0])
			}
		}
		return nil
	})
}

func TestAnySourceAnyTagPublic(t *testing.T) {
	run(t, 4, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			return w.Send([]byte{byte(p.Rank())}, 1, Byte, 0, 100+p.Rank())
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			buf := make([]byte, 1)
			st, err := w.Recv(buf, 1, Byte, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if st.Tag != 100+st.Source || buf[0] != byte(st.Source) {
				return fmt.Errorf("status %+v buf %d", st, buf[0])
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("sources %v", seen)
		}
		return nil
	})
}

func TestSendToProcNullPublic(t *testing.T) {
	run(t, 1, Config{}, func(p *Proc) error {
		w := p.World()
		if err := w.Send([]byte{1}, 1, Byte, ProcNull, 0); err != nil {
			return err
		}
		buf := make([]byte, 1)
		st, err := w.Recv(buf, 1, Byte, ProcNull, 0)
		if err != nil {
			return err
		}
		if st.Source != ProcNull || st.Count != 0 {
			return fmt.Errorf("status %+v", st)
		}
		return nil
	})
}

func TestTruncationReturnsError(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			return w.Send(make([]byte, 16), 16, Byte, 1, 0)
		}
		_, err := w.Recv(make([]byte, 4), 4, Byte, 0, 0)
		if ClassOf(err) != ErrTruncate {
			return fmt.Errorf("err = %v, want truncate", err)
		}
		return nil
	})
}

func TestProbeThenRecv(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			return w.Send([]byte("probe-me"), 8, Byte, 1, 3)
		}
		st, err := w.Probe(0, 3)
		if err != nil {
			return err
		}
		if st.Count != 8 {
			return fmt.Errorf("probe count %d", st.Count)
		}
		// Size the buffer from the probe, the classic pattern.
		buf := make([]byte, st.Count)
		if _, err := w.Recv(buf, st.Count, Byte, st.Source, st.Tag); err != nil {
			return err
		}
		if string(buf) != "probe-me" {
			return fmt.Errorf("recv %q", buf)
		}
		return nil
	})
}

func TestSendrecvRing(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		run(t, n, Config{Fabric: "inf"}, func(p *Proc) error {
			w := p.World()
			right := (p.Rank() + 1) % n
			left := (p.Rank() - 1 + n) % n
			out := []byte{byte(p.Rank())}
			in := make([]byte, 1)
			st, err := w.Sendrecv(out, 1, Byte, right, 0, in, 1, Byte, left, 0)
			if err != nil {
				return err
			}
			if in[0] != byte(left) || st.Source != left {
				return fmt.Errorf("ring got %d from %d", in[0], st.Source)
			}
			return nil
		})
	}
}

func TestDerivedTypePublicRoundTrip(t *testing.T) {
	run(t, 2, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		// Column of a 4x4 byte matrix: vector(4 blocks of 1, stride 4).
		col, err := TypeVector(4, 1, 4, Byte)
		if err != nil {
			return err
		}
		if err := col.Commit(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			m := []byte{
				1, 2, 3, 4,
				5, 6, 7, 8,
				9, 10, 11, 12,
				13, 14, 15, 16,
			}
			return w.Send(m, 1, col, 1, 0) // column 0: 1,5,9,13
		}
		m := make([]byte, 16)
		if _, err := w.Recv(m, 1, col, 0, 0); err != nil {
			return err
		}
		want := []byte{1, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0, 13, 0, 0, 0}
		if !bytes.Equal(m, want) {
			return fmt.Errorf("column landed as %v", m)
		}
		return nil
	})
}

func TestTestPolling(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			// Delay the send so rank 1 polls at least once.
			for i := 0; i < 1000; i++ {
				p.ChargeCompute(10)
			}
			return w.Send([]byte{9}, 1, Byte, 1, 0)
		}
		buf := make([]byte, 1)
		req, err := w.Irecv(buf, 1, Byte, 0, 0)
		if err != nil {
			return err
		}
		for {
			st, done, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				if st.Count != 1 || buf[0] != 9 {
					return fmt.Errorf("test completion %+v %v", st, buf)
				}
				return nil
			}
		}
	})
}

func TestSelfMessagingPublic(t *testing.T) {
	run(t, 1, Config{}, func(p *Proc) error {
		w := p.World()
		req, err := w.Isend([]byte("self"), 4, Byte, 0, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, 4)
		if _, err := w.Recv(buf, 4, Byte, 0, 0); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if string(buf) != "self" {
			return errors.New("self message corrupted")
		}
		return nil
	})
}

func TestWaitOnNilRequestIsNoop(t *testing.T) {
	var r *Request
	if _, err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, done, err := r.Test(); !done || err != nil {
		t.Fatal("nil request should test complete")
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	// Non-overtaking: same (src, tag) messages arrive in send order.
	run(t, 2, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		const msgs = 64
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := w.IsendNoReq([]byte{byte(i)}, 1, Byte, 1, 0); err != nil {
					return err
				}
			}
			return w.CommWaitall()
		}
		for i := 0; i < msgs; i++ {
			buf := make([]byte, 1)
			if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, buf[0])
			}
		}
		return nil
	})
}

// TestSlabRequestsStayDistinct pins the contract newRequest's slab must
// keep: a slot is never reused, so 100 live Requests drawn across
// several slab refills are pairwise distinct, a Request issued after
// they finished aliases none of them, a second Wait and a Test after
// Wait are no-ops, and a Request dropped unwaited leaves the ones after
// it intact.
func TestSlabRequestsStayDistinct(t *testing.T) {
	const live = 100 // more than six slabs
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			// Dropped unwaited: its slot stays its own.
			if _, err := w.Isend([]byte{0xee}, 1, Byte, 1, live); err != nil {
				return err
			}
			for i := 0; i < live; i++ {
				if err := w.Send([]byte{byte(i), byte(i >> 8)}, 2, Byte, 1, i); err != nil {
					return err
				}
			}
			_, err := w.Recv(nil, 0, Byte, 1, live+1)
			if err == nil {
				err = w.Send([]byte{0x5a, 0xa5}, 2, Byte, 1, live+1)
			}
			return err
		}
		if _, err := w.Irecv(make([]byte, 1), 1, Byte, 0, live); err != nil {
			return err
		}
		reqs := make([]*Request, live)
		bufs := make([][]byte, live)
		seen := make(map[*Request]int, live)
		for i := range reqs {
			bufs[i] = make([]byte, 2)
			r, err := w.Irecv(bufs[i], 2, Byte, 0, i)
			if err != nil {
				return err
			}
			if j, dup := seen[r]; dup {
				return fmt.Errorf("Irecv %d returned the Request of Irecv %d", i, j)
			}
			seen[r], reqs[i] = i, r
		}
		noop := func(i int, r *Request) error {
			if st, err := r.Wait(); err != nil || st != (Status{}) {
				return fmt.Errorf("request %d: second Wait = (%+v, %v), want a no-op", i, st, err)
			}
			if st, done, err := r.Test(); err != nil || !done || st != (Status{}) {
				return fmt.Errorf("request %d: Test after Wait = (%+v, %v, %v), want a no-op", i, st, done, err)
			}
			return nil
		}
		for i, r := range reqs {
			st, err := r.Wait()
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != i || st.Count != 2 || bufs[i][0] != byte(i) || bufs[i][1] != byte(i>>8) {
				return fmt.Errorf("request %d: status %+v, bytes %v", i, st, bufs[i])
			}
			if err := noop(i, r); err != nil {
				return err
			}
		}
		// A fresh request, still pending while every finished one is
		// waited again: a recycled slot would hand it to an old Wait.
		late := make([]byte, 2)
		r, err := w.Irecv(late, 2, Byte, 0, live+1)
		if err != nil {
			return err
		}
		if j, dup := seen[r]; dup {
			return fmt.Errorf("a Request issued after the waits aliases finished request %d", j)
		}
		for i, old := range reqs {
			if err := noop(i, old); err != nil {
				return err
			}
		}
		if err := w.Send(nil, 0, Byte, 0, live+1); err != nil {
			return err
		}
		st, err := r.Wait()
		if err != nil || st.Tag != live+1 || late[0] != 0x5a || late[1] != 0xa5 {
			return fmt.Errorf("late request: (%+v, %v), bytes %v", st, err, late)
		}
		return nil
	})
}
