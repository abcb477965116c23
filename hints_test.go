package gompi

import (
	"fmt"
	"testing"
)

var hintCfg = Config{Device: "ch4", Fabric: "inf", VCIs: 4}

// TestDupOptHintsCachesAssertions verifies the creation-time hint API:
// the duplicate carries the assertions, the parent does not, and a
// further Dup of the hinted communicator inherits them through the
// info-key path.
func TestDupOptHintsCachesAssertions(t *testing.T) {
	run(t, 2, hintCfg, func(p *Proc) error {
		w := p.World()
		h := CommHints{NoAnySource: true, NoAnyTag: true, ExactLength: true}
		d, err := w.DupOpt(CommOptions{Hints: h})
		if err != nil {
			return err
		}
		if got := d.Hints(); got != h {
			return fmt.Errorf("hinted dup carries %+v, want %+v", got, h)
		}
		if got := w.Hints(); got != (CommHints{}) {
			return fmt.Errorf("world picked up hints %+v", got)
		}
		dd, err := d.Dup()
		if err != nil {
			return err
		}
		if got := dd.Hints(); got != h {
			return fmt.Errorf("dup of hinted comm carries %+v, want inherited %+v", got, h)
		}
		return nil
	})
}

// TestHintViolationsReturnErrHint pins the contract: an operation that
// breaks a communicator assertion fails with an ErrHint-classed error
// instead of silently degrading the channel mapping.
func TestHintViolationsReturnErrHint(t *testing.T) {
	run(t, 2, hintCfg, func(p *Proc) error {
		w := p.World()
		d, err := w.DupOpt(CommOptions{Hints: CommHints{NoAnySource: true, NoAnyTag: true}})
		if err != nil {
			return err
		}
		buf := make([]byte, 1)
		wantHint := func(op string, err error) error {
			if ClassOf(err) != ErrHint {
				return fmt.Errorf("%s on hinted comm: got %v (class %v), want ErrHint", op, err, ClassOf(err))
			}
			return nil
		}
		if _, err := d.Irecv(buf, 1, Byte, AnySource, 0); wantHint("Irecv AnySource", err) != nil {
			return wantHint("Irecv AnySource", err)
		}
		if _, err := d.Irecv(buf, 1, Byte, 1-p.Rank(), AnyTag); wantHint("Irecv AnyTag", err) != nil {
			return wantHint("Irecv AnyTag", err)
		}
		if _, _, err := d.Iprobe(AnySource, 0); wantHint("Iprobe AnySource", err) != nil {
			return wantHint("Iprobe AnySource", err)
		}
		if _, _, err := d.Improbe(1-p.Rank(), AnyTag); wantHint("Improbe AnyTag", err) != nil {
			return wantHint("Improbe AnyTag", err)
		}
		// Legal traffic on the same communicator still flows.
		peer := 1 - p.Rank()
		req, err := d.Isend([]byte{byte(p.Rank())}, 1, Byte, peer, 3)
		if err != nil {
			return err
		}
		st, err := d.Recv(buf, 1, Byte, peer, 3)
		if err != nil {
			return err
		}
		if st.Source != peer || buf[0] != byte(peer) {
			return fmt.Errorf("hinted exchange delivered src=%d payload=%d, want %d", st.Source, buf[0], peer)
		}
		_, err = req.Wait()
		return err
	})
}

// TestExactLengthHint pins the third assertion: a receive on an
// mpi_assert_exact_length communicator must be filled exactly — a short
// delivery surfaces as ErrHint at completion, an exact one succeeds,
// and a ProcNull receive (which legitimately completes with count 0)
// stays exempt.
func TestExactLengthHint(t *testing.T) {
	run(t, 2, hintCfg, func(p *Proc) error {
		w := p.World()
		d, err := w.DupOpt(CommOptions{Hints: CommHints{ExactLength: true}})
		if err != nil {
			return err
		}
		peer := 1 - p.Rank()
		// Exact fit: 4 bytes into a 4-byte buffer.
		if _, err := d.Isend([]byte{1, 2, 3, 4}, 4, Byte, peer, 0); err != nil {
			return err
		}
		// Short: 2 bytes toward a 4-byte buffer.
		if _, err := d.Isend([]byte{9, 9}, 2, Byte, peer, 1); err != nil {
			return err
		}
		exact := make([]byte, 4)
		if _, err := d.Recv(exact, 4, Byte, peer, 0); err != nil {
			return fmt.Errorf("exact-fit receive failed: %v", err)
		}
		short := make([]byte, 4)
		if _, err := d.Recv(short, 4, Byte, peer, 1); ClassOf(err) != ErrHint {
			return fmt.Errorf("short delivery on exact-length comm: got %v, want ErrHint", err)
		}
		if st, err := d.Recv(make([]byte, 4), 4, Byte, ProcNull, 0); err != nil || st.Count != 0 {
			return fmt.Errorf("ProcNull receive on exact-length comm: st=%+v err=%v", st, err)
		}
		return d.CommWaitall()
	})
}

// TestSplitOptHintsPinnedTraffic runs byte-verified traffic over
// hinted SplitOpt communicators under multiple VCIs: each split half
// asserts away wildcards and rides its own context's interface, and
// the payloads must still land intact.
func TestSplitOptHintsPinnedTraffic(t *testing.T) {
	const n = 4
	run(t, n, hintCfg, func(p *Proc) error {
		w := p.World()
		h := CommHints{NoAnySource: true, NoAnyTag: true, ExactLength: true}
		s, err := w.SplitOpt(p.Rank()%2, p.Rank(), CommOptions{Hints: h})
		if err != nil {
			return err
		}
		if got := s.Hints(); got != h {
			return fmt.Errorf("split carries %+v, want %+v", got, h)
		}
		peer := 1 - s.Rank() // pair up within each 2-rank half
		const msgs = 32
		reqs := make([]*Request, 0, msgs)
		for i := 0; i < msgs; i++ {
			req, err := s.Isend([]byte{byte(s.Rank()*msgs + i)}, 1, Byte, peer, i)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		for i := msgs - 1; i >= 0; i-- {
			buf := make([]byte, 1)
			st, err := s.Recv(buf, 1, Byte, peer, i)
			if err != nil {
				return err
			}
			if want := byte(peer*msgs + i); buf[0] != want || st.Tag != i {
				return fmt.Errorf("msg %d: got payload=%d tag=%d, want %d/%d", i, buf[0], st.Tag, want, i)
			}
		}
		for _, req := range reqs {
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestRecvInitHints holds a persistent receive to the communicator's
// assertions, as Irecv is held: a wildcard a hint rules out is ErrHint
// at RecvInit, and every activation of a receive on an exact-length
// communicator reports a short delivery as ErrHint at its Wait, while
// an exact one completes. Both devices.
func TestRecvInitHints(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			run(t, 2, Config{Device: dev, Fabric: "inf"}, func(p *Proc) error {
				w, peer := p.World(), 1-p.Rank()
				buf := make([]byte, 4)
				d, err := w.DupOpt(CommOptions{Hints: CommHints{NoAnySource: true, NoAnyTag: true}})
				if err != nil {
					return err
				}
				if _, err := d.RecvInit(buf, 4, Byte, AnySource, 0); ClassOf(err) != ErrHint {
					return fmt.Errorf("RecvInit AnySource on a NoAnySource comm: got %v, want ErrHint", err)
				}
				if _, err := d.RecvInit(buf, 4, Byte, peer, AnyTag); ClassOf(err) != ErrHint {
					return fmt.Errorf("RecvInit AnyTag on a NoAnyTag comm: got %v, want ErrHint", err)
				}

				e, err := w.DupOpt(CommOptions{Hints: CommHints{ExactLength: true}})
				if err != nil {
					return err
				}
				op, err := e.RecvInit(buf, 4, Byte, peer, 1)
				if err != nil {
					return err
				}
				// Short, exact, short: the check holds on every activation.
				for i, n := range []int{2, 4, 2} {
					if err := op.Start(); err != nil {
						return err
					}
					if err := e.Send([]byte{1, 2, 3, 4}[:n], n, Byte, peer, 1); err != nil {
						return err
					}
					_, err := op.Wait()
					if want := n == 4; (err == nil) != want || (!want && ClassOf(err) != ErrHint) {
						return fmt.Errorf("activation %d: %d bytes into an exact-length 4-byte receive: %v", i, n, err)
					}
				}
				return nil
			})
		})
	}
}
