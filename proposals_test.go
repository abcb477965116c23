package gompi

import (
	"fmt"
	"testing"

	"gompi/internal/core"
)

// Flag combinations for the proposal-ladder measurement.
const (
	flagNoMatchNoReq       = core.FlagNoMatch | core.FlagNoReq
	flagNoMatchNoReqGlobal = flagNoMatchNoReq | core.FlagGlobalRank
	flagAllButPredef       = flagNoMatchNoReqGlobal | core.FlagNoProcNull
)

// ipoCfg is the fastest MPI-3.1-conformant build, the baseline for
// proposal measurements (Figure 6 runs on the infinitely fast network).
var ipoCfg = Config{Device: "ch4", Fabric: "inf", Build: "no-err-single-ipo"}

func TestIsendGlobalPublic(t *testing.T) {
	const n = 4
	run(t, n, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		// Build a reversed subcommunicator so comm ranks != world ranks.
		sub, err := w.Split(0, n-p.Rank())
		if err != nil {
			return err
		}
		// Stencil pattern: precompute the right neighbor's WORLD rank
		// once (MPI_GROUP_TRANSLATE_RANKS style), then send with the
		// global-rank call.
		rightComm := (sub.Rank() + 1) % n
		rightWorld, err := sub.WorldRank(rightComm)
		if err != nil {
			return err
		}
		req, err := sub.IsendGlobal([]byte{byte(sub.Rank())}, 1, Byte, rightWorld, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, 1)
		leftComm := (sub.Rank() - 1 + n) % n
		st, err := sub.Recv(buf, 1, Byte, leftComm, 0)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if int(buf[0]) != leftComm || st.Source != leftComm {
			return fmt.Errorf("global-rank send delivered %d from %d, want %d", buf[0], st.Source, leftComm)
		}
		return nil
	})
}

func TestIsendNPNPublic(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			req, err := w.IsendNPN([]byte{5}, 1, Byte, 1, 0)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		buf := make([]byte, 1)
		_, err := w.Recv(buf, 1, Byte, 0, 0)
		if err != nil {
			return err
		}
		if buf[0] != 5 {
			return fmt.Errorf("NPN send delivered %d", buf[0])
		}
		return nil
	})
}

func TestNoReqCommWaitallPublic(t *testing.T) {
	run(t, 2, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 20; i++ {
				if err := w.IsendNoReq([]byte{byte(i)}, 1, Byte, 1, i); err != nil {
					return err
				}
			}
			return w.CommWaitall()
		}
		for i := 0; i < 20; i++ {
			buf := make([]byte, 1)
			if _, err := w.Recv(buf, 1, Byte, 0, i); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestNoMatchArrivalOrder(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 8; i++ {
				req, err := w.IsendNoMatch([]byte{byte(i)}, 1, Byte, 1)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 8; i++ {
			buf := make([]byte, 1)
			if _, err := w.RecvNoMatch(buf, 1, Byte); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("arrival order: got %d at %d", buf[0], i)
			}
		}
		return nil
	})
}

// TestNoMatchStatusSource checks that an arrival-order receive reports
// who sent the message: ranks 1 and 2 each send rank 0 one no-match
// message, and rank 0's two statuses (one RecvNoMatch, one
// IrecvNoMatch) must name both senders, on ch4 off-node and on-node and
// on the baseline. A second round on a communicator that reverses the
// world order checks that the source is the sender's rank in that
// communicator, not in the world.
func TestNoMatchStatusSource(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ch4-offnode", Config{Fabric: FabricOFI}},
		{"ch4-onnode", Config{Fabric: FabricOFI, RanksPerNode: 3}},
		{"original", Config{Device: DeviceOriginal, Fabric: FabricOFI}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 3, tc.cfg, func(p *Proc) error {
				// World rank r is rank 2-r of reversed.
				reversed, err := p.World().Split(0, -p.Rank())
				if err != nil {
					return err
				}
				for _, c := range []*Comm{p.World(), reversed} {
					root := 0
					if c == reversed {
						root = 2
					}
					if c.Rank() != root {
						req, err := c.IsendNoMatch([]byte{byte(c.Rank())}, 1, Byte, root)
						if err != nil {
							return err
						}
						if _, err := req.Wait(); err != nil {
							return err
						}
						continue
					}
					buf := make([]byte, 1)
					first, err := c.RecvNoMatch(buf, 1, Byte)
					if err != nil {
						return err
					}
					from := int(buf[0])
					req, err := c.IrecvNoMatch(buf, 1, Byte)
					if err != nil {
						return err
					}
					second, err := req.Wait()
					if err != nil {
						return err
					}
					if first.Source != from || second.Source != int(buf[0]) || first.Source+second.Source != 3-root {
						return fmt.Errorf("comm rank %d: statuses name sources %d and %d, messages came from %d and %d",
							root, first.Source, second.Source, from, buf[0])
					}
				}
				return nil
			})
		})
	}
}

func TestPredefinedCommPublic(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(Comm1); err != nil {
			return err
		}
		if p.PredefComm(Comm1) == nil {
			return fmt.Errorf("predefined slot empty after dup")
		}
		if p.PredefComm(Comm2) != nil {
			return fmt.Errorf("unpopulated slot non-nil")
		}
		if p.Rank() == 0 {
			req, err := p.IsendPredef(Comm1, []byte{3}, 1, Byte, 1, 0)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		buf := make([]byte, 1)
		_, err := p.PredefComm(Comm1).Recv(buf, 1, Byte, 0, 0)
		if err != nil {
			return err
		}
		if buf[0] != 3 {
			return fmt.Errorf("predef comm delivered %d", buf[0])
		}
		return nil
	})
}

func TestPredefinedHandleValidation(t *testing.T) {
	run(t, 1, Config{}, func(p *Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(CommHandle(99)); ClassOf(err) != ErrArg {
			return fmt.Errorf("bad handle accepted: %v", err)
		}
		if _, err := p.IsendPredef(Comm3, []byte{1}, 1, Byte, 0, 0); ClassOf(err) != ErrComm {
			return fmt.Errorf("unpopulated handle accepted: %v", err)
		}
		return nil
	})
}

func TestAllOptsPublic(t *testing.T) {
	run(t, 2, ipoCfg, func(p *Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(Comm1); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for i := 0; i < 4; i++ {
				if err := p.IsendAllOpts(Comm1, []byte{byte(40 + i)}, 1); err != nil {
					return err
				}
			}
			return p.PredefComm(Comm1).CommWaitall()
		}
		for i := 0; i < 4; i++ {
			buf := make([]byte, 1)
			if _, err := p.PredefComm(Comm1).RecvNoMatch(buf, 1, Byte); err != nil {
				return err
			}
			if buf[0] != byte(40+i) {
				return fmt.Errorf("all-opts arrival order: %d at %d", buf[0], i)
			}
		}
		return nil
	})
}

// measureIsend returns the MPI instruction cost of one send variant on
// the ipo build.
func measureIsend(p *Proc, send func() error) (int64, error) {
	before := p.Counters()
	if err := send(); err != nil {
		return 0, err
	}
	return p.Counters().Sub(before).TotalInstr, nil
}

// TestProposalLadderPublic verifies the Figure 6 ordering end-to-end:
// each proposal strictly reduces the instruction count, bottoming out
// at 16 for the fused path.
func TestProposalLadderPublic(t *testing.T) {
	run(t, 2, ipoCfg, func(p *Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(Comm1); err != nil {
			return err
		}
		if p.Rank() != 0 {
			for i := 0; i < 4; i++ {
				buf := make([]byte, 1)
				if _, err := w.RecvNoMatch(buf, 1, Byte); err != nil {
					return err
				}
			}
			buf := make([]byte, 1)
			if _, err := p.PredefComm(Comm1).RecvNoMatch(buf, 1, Byte); err != nil {
				return err
			}
			return nil
		}
		buf := []byte{1}
		// Baseline: a no-match send (the receiver is in arrival-order
		// mode); each step stacks one more proposal flag through the
		// MPI layer, the last being the fused all-opts path.
		base, err := measureIsend(p, func() error { _, e := w.IsendNoMatch(buf, 1, Byte, 1); return e })
		if err != nil {
			return err
		}
		noReq, err := measureIsend(p, func() error {
			_, e := w.isend(buf, 1, Byte, 1, 0, flagNoMatchNoReq, nil)
			return e
		})
		if err != nil {
			return err
		}
		glob, err := measureIsend(p, func() error {
			_, e := w.isend(buf, 1, Byte, 1, 0, flagNoMatchNoReqGlobal, nil)
			return e
		})
		if err != nil {
			return err
		}
		npn, err := measureIsend(p, func() error {
			_, e := w.isend(buf, 1, Byte, 1, 0, flagAllButPredef, nil)
			return e
		})
		if err != nil {
			return err
		}
		all, err := measureIsend(p, func() error { return p.IsendAllOpts(Comm1, buf, 1) })
		if err != nil {
			return err
		}
		if !(base > noReq && noReq > glob && glob > npn && npn > all) {
			return fmt.Errorf("ladder not strictly decreasing: %d %d %d %d %d", base, noReq, glob, npn, all)
		}
		if all != 16 {
			return fmt.Errorf("all-opts = %d instructions, want 16", all)
		}
		if err := w.CommWaitall(); err != nil {
			return err
		}
		return p.PredefComm(Comm1).CommWaitall()
	})
}

// TestNoMatchInfoHintAlternative verifies the Section 3.6 alternative:
// the "allow overtaking" info hint gives the same wire semantics as
// MPI_ISEND_NOMATCH but costs an extra dereference and branch (4
// instructions), shrinking to just the branch (2) when the
// communicator is a predefined handle — the paper's exact analysis.
func TestNoMatchInfoHintAlternative(t *testing.T) {
	run(t, 2, ipoCfg, func(p *Proc) error {
		w := p.World()
		hinted, err := w.DupPredefined(Comm1)
		if err != nil {
			return err
		}
		hinted.SetInfo("mpi_assert_allow_overtaking", "true")
		if p.Rank() != 0 {
			buf := make([]byte, 1)
			for i := 0; i < 3; i++ {
				if _, err := hinted.RecvNoMatch(buf, 1, Byte); err != nil {
					return err
				}
			}
			return nil
		}
		buf := []byte{1}
		measure := func(send func() error) (int64, error) {
			before := p.Counters()
			if err := send(); err != nil {
				return 0, err
			}
			return p.Counters().Sub(before).TotalInstr, nil
		}
		// Dedicated function on the hinted comm (flag wins the switch).
		fn, err := measure(func() error {
			req, e := hinted.IsendNoMatch(buf, 1, Byte, 1)
			if e != nil {
				return e
			}
			_, e = req.Wait()
			return e
		})
		if err != nil {
			return err
		}
		// Hint-driven path through the plain Isend.
		hint, err := measure(func() error {
			req, e := hinted.Isend(buf, 1, Byte, 1, 0)
			if e != nil {
				return e
			}
			_, e = req.Wait()
			return e
		})
		if err != nil {
			return err
		}
		if hint-fn != 4 {
			return fmt.Errorf("hint cost %d vs function %d: delta %d, want 4", hint, fn, hint-fn)
		}
		// With the predefined-handle flag, only the branch remains.
		hintPredef, err := measure(func() error {
			req, e := p.IsendPredef(Comm1, buf, 1, Byte, 1, 0)
			if e != nil {
				return e
			}
			_, e = req.Wait()
			return e
		})
		if err != nil {
			return err
		}
		fnPredefExpected := fn - 7 // predefined handle saves the comm deref
		if hintPredef-fnPredefExpected != 2 {
			return fmt.Errorf("predef hint = %d, function-equivalent %d: delta %d, want 2",
				hintPredef, fnPredefExpected, hintPredef-fnPredefExpected)
		}
		return nil
	})
}

// TestClass3DatatypeSurvivesInlining reproduces the Section 2.2
// datatype-usage analysis: class-2 usage (a compile-time-constant
// predefined type) loses its redundant runtime checks under link-time
// inlining, but class-3 usage (a predefined type reached through a
// runtime variable, the LULESH/Nekbone idiom) keeps the datatype check
// even in the ipo build.
func TestClass3DatatypeSurvivesInlining(t *testing.T) {
	run(t, 2, ipoCfg, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 8)
			for i := 0; i < 2; i++ {
				if _, err := w.Recv(buf, 8, Byte, 0, 0); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 8)
		measure := func(dt *Datatype) (int64, error) {
			before := p.Counters()
			req, err := w.Isend(buf, 8, dt, 1, 0)
			if err != nil {
				return 0, err
			}
			if _, err := req.Wait(); err != nil {
				return 0, err
			}
			return p.Counters().Sub(before).Redundant, nil
		}
		class2, err := measure(Byte) // compile-time constant
		if err != nil {
			return err
		}
		class3, err := measure(Byte.AsRuntimeMapped()) // runtime variable
		if err != nil {
			return err
		}
		if class2 != 0 {
			return fmt.Errorf("class-2 redundant = %d under ipo, want 0", class2)
		}
		if class3 != 14 {
			return fmt.Errorf("class-3 redundant = %d under ipo, want 14 (datatype re-derivation)", class3)
		}
		return nil
	})
}
