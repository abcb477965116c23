package gompi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// run is the test harness: fail the test if any rank errors.
func run(t *testing.T, n int, cfg Config, body func(p *Proc) error) {
	t.Helper()
	if err := Run(n, cfg, body); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if err := Run(2, Config{Fabric: "tcp"}, func(*Proc) error { return nil }); err == nil {
		t.Error("unknown fabric accepted")
	}
	if err := Run(2, Config{Build: "turbo"}, func(*Proc) error { return nil }); err == nil {
		t.Error("unknown build accepted")
	}
	if err := Run(2, Config{Device: "ch5"}, func(*Proc) error { return nil }); err == nil {
		t.Error("unknown device accepted")
	}
	if err := Run(0, Config{}, func(*Proc) error { return nil }); err == nil {
		t.Error("zero world accepted")
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 5)
	run(t, 5, Config{}, func(p *Proc) error {
		if p.Size() != 5 {
			return fmt.Errorf("size %d", p.Size())
		}
		if p.World().Rank() != p.Rank() || p.World().Size() != 5 {
			return errors.New("world comm mismatch")
		}
		seen[p.Rank()] = true
		return nil
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d missing", r)
		}
	}
}

func TestRunPropagatesRankErrors(t *testing.T) {
	err := Run(3, Config{}, func(p *Proc) error {
		if p.Rank() == 1 {
			return errors.New("deliberate")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v", err)
	}
}

// devices and fabrics to sweep in cross-config tests.
var sweepConfigs = []Config{
	{Device: "ch4", Fabric: "ofi"},
	{Device: "ch4", Fabric: "ucx"},
	{Device: "ch4", Fabric: "inf"},
	{Device: "ch4", Fabric: "ofi", RanksPerNode: 2},
	{Device: "original", Fabric: "ofi"},
	{Device: "original", Fabric: "inf"},
}

func cfgName(cfg Config) string {
	return fmt.Sprintf("%s-%s-rpn%d", cfg.Device, cfg.Fabric, cfg.RanksPerNode)
}

func TestPingPongAcrossConfigs(t *testing.T) {
	for _, cfg := range sweepConfigs {
		t.Run(cfgName(cfg), func(t *testing.T) {
			run(t, 2, cfg, func(p *Proc) error {
				w := p.World()
				msg := []byte("ping-pong-payload")
				if p.Rank() == 0 {
					if err := w.Send(msg, len(msg), Byte, 1, 7); err != nil {
						return err
					}
					buf := make([]byte, len(msg))
					st, err := w.Recv(buf, len(buf), Byte, 1, 8)
					if err != nil {
						return err
					}
					if string(buf) != string(msg) || st.Source != 1 {
						return fmt.Errorf("pong %q st %+v", buf, st)
					}
					return nil
				}
				buf := make([]byte, len(msg))
				if _, err := w.Recv(buf, len(buf), Byte, 0, 7); err != nil {
					return err
				}
				return w.Send(buf, len(buf), Byte, 0, 8)
			})
		})
	}
}

// TestTable1Isend pins the headline Table 1 column: the default ch4
// build spends exactly 221 instructions on MPI_ISEND, split
// 74/6/23/59/59 across the five categories.
func TestTable1Isend(t *testing.T) {
	run(t, 2, Config{Device: "ch4", Fabric: "inf", Build: "default"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 8)
			_, err := w.Recv(buf, 8, Byte, 0, 0)
			return err
		}
		buf := make([]byte, 8)
		before := p.Counters()
		req, err := w.Isend(buf, 8, Byte, 1, 0)
		if err != nil {
			return err
		}
		d := p.Counters().Sub(before)
		if _, err := req.Wait(); err != nil {
			return err
		}
		want := Counters{ErrorCheck: 74, ThreadCheck: 6, Call: 23, Redundant: 59, Mandatory: 59, TotalInstr: 221}
		if d.ErrorCheck != want.ErrorCheck || d.ThreadCheck != want.ThreadCheck ||
			d.Call != want.Call || d.Redundant != want.Redundant ||
			d.Mandatory != want.Mandatory || d.TotalInstr != want.TotalInstr {
			return fmt.Errorf("Isend breakdown = %+v, want %+v", d, want)
		}
		return nil
	})
}

// TestTable1Put pins the MPI_PUT column: 72/14/25/62/44 (total 217; the
// paper's Table 1 rows sum to the same 217).
func TestTable1Put(t *testing.T) {
	run(t, 2, Config{Device: "ch4", Fabric: "inf", Build: "default"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			before := p.Counters()
			if err := win.Put([]byte{1}, 1, Byte, 1, 0); err != nil {
				return err
			}
			d := p.Counters().Sub(before)
			want := Counters{ErrorCheck: 72, ThreadCheck: 14, Call: 25, Redundant: 62, Mandatory: 44, TotalInstr: 217}
			if d.ErrorCheck != want.ErrorCheck || d.ThreadCheck != want.ThreadCheck ||
				d.Call != want.Call || d.Redundant != want.Redundant ||
				d.Mandatory != want.Mandatory || d.TotalInstr != want.TotalInstr {
				return fmt.Errorf("Put breakdown = %+v, want %+v", d, want)
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
}

// TestFigure2Ladder pins the build ladder of Figure 2 for both devices:
// Original 253/1342, ch4 221/217, no-err 147/145, no-err-single
// 141/131, ipo 59/44 for Isend/Put. (The paper prints 215/143/129 for
// the Put intermediates; our Table 1 columns sum to slightly different
// intermediate totals with identical row values — see EXPERIMENTS.md.)
func TestFigure2Ladder(t *testing.T) {
	type point struct {
		device, build string
		isend, put    int64
	}
	points := []point{
		{"original", "default", 253, 1342},
		{"ch4", "default", 221, 217},
		{"ch4", "no-err", 147, 145},
		{"ch4", "no-err-single", 141, 131},
		{"ch4", "no-err-single-ipo", 59, 44},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.device+"-"+pt.build, func(t *testing.T) {
			run(t, 2, Config{Device: DeviceKind(pt.device), Fabric: FabricInf, Build: BuildKind(pt.build)}, func(p *Proc) error {
				w := p.World()
				// Isend measurement.
				var isend int64
				if p.Rank() == 0 {
					before := p.Counters()
					req, err := w.Isend([]byte{1}, 1, Byte, 1, 0)
					if err != nil {
						return err
					}
					isend = p.Counters().Sub(before).TotalInstr
					if _, err := req.Wait(); err != nil {
						return err
					}
					if isend != pt.isend {
						return fmt.Errorf("isend = %d, want %d", isend, pt.isend)
					}
				} else {
					buf := make([]byte, 1)
					if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
						return err
					}
				}
				// Put measurement.
				win, _, err := w.WinAllocate(16, 1)
				if err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if p.Rank() == 0 {
					before := p.Counters()
					if err := win.Put([]byte{1}, 1, Byte, 1, 0); err != nil {
						return err
					}
					put := p.Counters().Sub(before).TotalInstr
					if put != pt.put {
						return fmt.Errorf("put = %d, want %d", put, pt.put)
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				return win.Free()
			})
		})
	}
}

func TestThreadMultipleCharges(t *testing.T) {
	run(t, 2, Config{Fabric: "inf", Build: "default", ThreadMultiple: true}, func(p *Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 1)
			_, err := w.Recv(buf, 1, Byte, 0, 0)
			return err
		}
		before := p.Counters()
		if err := w.Send([]byte{1}, 1, Byte, 1, 0); err != nil {
			return err
		}
		d := p.Counters().Sub(before)
		if d.ThreadCheck <= 6 {
			return fmt.Errorf("THREAD_MULTIPLE charged only %d thread instructions", d.ThreadCheck)
		}
		return nil
	})
}

func TestVirtualTimeAdvances(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		if p.VirtualCycles() < 0 {
			return errors.New("negative clock")
		}
		if p.Rank() == 0 {
			t0 := p.VirtualTime()
			for i := 0; i < 100; i++ {
				if err := w.IsendNoReq([]byte{1}, 1, Byte, 1, 0); err != nil {
					return err
				}
			}
			if p.VirtualTime() <= t0 {
				return errors.New("clock did not advance across sends")
			}
		} else {
			for i := 0; i < 100; i++ {
				buf := make([]byte, 1)
				if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
					return err
				}
			}
		}
		if p.ClockHz() != 2.2e9 {
			return fmt.Errorf("hz = %v", p.ClockHz())
		}
		return nil
	})
}

// TestCountersCyclesAreCharged: Counters.Cycles is the cycles charged,
// every MPI instruction at the platform's CPI plus transport, so a
// 1-byte eager Isend's delta equals the clock's advance on bgq, whose
// in-order core takes 6 cycles an instruction, as on inf at 1.
func TestCountersCyclesAreCharged(t *testing.T) {
	for _, fab := range []FabricKind{"inf", "bgq"} {
		run(t, 2, Config{Fabric: fab}, func(p *Proc) error {
			w := p.World()
			buf := []byte{1}
			if p.Rank() != 0 {
				_, err := w.Recv(buf, 1, Byte, 0, 0)
				return err
			}
			before, t0 := p.Counters(), p.VirtualCycles()
			req, err := w.Isend(buf, 1, Byte, 1, 0)
			if err != nil {
				return err
			}
			d, advance := p.Counters().Sub(before), p.VirtualCycles()-t0
			if _, err := req.Wait(); err != nil {
				return err
			}
			if d.Cycles != advance {
				return fmt.Errorf("%s: Counters.Cycles advanced %d (%+v), the clock %d", fab, d.Cycles, d, advance)
			}
			return nil
		})
	}
}

func TestChargeCompute(t *testing.T) {
	run(t, 1, Config{}, func(p *Proc) error {
		before := p.Counters()
		p.ChargeCompute(12345)
		d := p.Counters().Sub(before)
		if d.Compute != 12345 || d.TotalInstr != 0 {
			return fmt.Errorf("compute charge leaked: %+v", d)
		}
		return nil
	})
}

func TestErrorClasses(t *testing.T) {
	run(t, 1, Config{Build: "default"}, func(p *Proc) error {
		w := p.World()
		cases := []struct {
			err   error
			class ErrorClass
		}{
			{func() error { _, e := w.Isend(nil, 4, Byte, 0, 0); return e }(), ErrBuffer},
			{func() error { _, e := w.Isend([]byte{1}, -1, Byte, 0, 0); return e }(), ErrCount},
			{func() error { _, e := w.Isend([]byte{1}, 1, nil, 0, 0); return e }(), ErrType},
			{func() error { _, e := w.Isend([]byte{1}, 1, Byte, 5, 0); return e }(), ErrRank},
			{func() error { _, e := w.Isend([]byte{1}, 1, Byte, 0, -3); return e }(), ErrTag},
			{func() error { _, e := w.Irecv([]byte{1}, 1, Byte, AnySource, AnyTag); return e }(), ErrNone},
		}
		for i, c := range cases {
			if ClassOf(c.err) != c.class {
				return fmt.Errorf("case %d: class %v (err %v), want %v", i, ClassOf(c.err), c.err, c.class)
			}
		}
		// Drain the wildcard receive posted above with a self-send.
		if err := w.Send([]byte{1}, 1, Byte, 0, 1); err != nil {
			return err
		}
		return nil
	})
}

func TestUncommittedTypeRejected(t *testing.T) {
	run(t, 1, Config{Build: "default"}, func(p *Proc) error {
		v, err := TypeVector(2, 1, 2, Byte)
		if err != nil {
			return err
		}
		if _, err := p.World().Isend(make([]byte, 4), 1, v, 0, 0); ClassOf(err) != ErrType {
			return fmt.Errorf("uncommitted type: %v", err)
		}
		return nil
	})
}
