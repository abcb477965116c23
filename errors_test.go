package gompi

import (
	"testing"

	"gompi/internal/instr"
)

// TestCheckChainPrefixCharges pins what each failing argument of the
// two check chains charges: the ErrorCheck instructions of every check
// up to and including the one that fails, and nothing after it. A
// chain that succeeds charges its whole row: 74 for a send, 72 for a
// one-sided call (Table 1).
func TestCheckChainPrefixCharges(t *testing.T) {
	uncommitted, err := TypeVector(2, 1, 2, Long)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name  string
		check func() error
		class ErrorClass
		want  int64
	}
	run(t, 2, Config{Fabric: FabricOFI}, func(p *Proc) error {
		world := p.World()
		freed, err := world.Dup()
		if err != nil {
			return err
		}
		if err := freed.Free(); err != nil {
			return err
		}
		win, _, err := world.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		idle, _, err := world.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, 8)
		send := func(buf []byte, count int, dt *Datatype, rank, tag int, c *Comm) func() error {
			return func() error { return p.checkSendArgs(buf, count, dt, rank, tag, c, false) }
		}
		rma := func(origin []byte, count int, dt *Datatype, target, disp int, w *Win) func() error {
			return func() error { return p.checkRMAArgs(origin, count, dt, target, disp, w) }
		}
		rows := []row{
			{"send/nil-comm", send(buf, 1, Long, 1, 0, nil), ErrComm, 14},
			{"send/nil-handle", send(buf, 1, Long, 1, 0, &Comm{p: p}), ErrComm, 14},
			{"send/freed-comm", send(buf, 1, Long, 1, 0, freed), ErrComm, 14},
			{"send/rank-range", send(buf, 1, Long, 2, 0, world), ErrRank, 24},
			{"send/tag-range", send(buf, 1, Long, 1, -5, world), ErrTag, 30},
			{"send/negative-count", send(buf, -1, Long, 1, 0, world), ErrCount, 34},
			{"send/nil-datatype", send(buf, 1, nil, 1, 0, world), ErrType, 42},
			{"send/uncommitted", send(buf, 1, uncommitted, 1, 0, world), ErrType, 48},
			{"send/nil-buffer", send(nil, 1, Long, 1, 0, world), ErrBuffer, 56},
			{"send/short-buffer", send(buf[:4], 1, Long, 1, 0, world), ErrBuffer, 66},
			{"send/ok", send(buf, 1, Long, 1, 0, world), ErrNone, 74},
			{"rma/nil-window", rma(buf, 1, Long, 1, 0, nil), ErrWin, 14},
			{"rma/outside-epoch", rma(buf, 1, Long, 1, 0, idle), ErrRMASync, 22},
			{"rma/target-range", rma(buf, 1, Long, 2, 0, win), ErrRank, 32},
			{"rma/negative-count", rma(buf, -1, Long, 1, 0, win), ErrCount, 36},
			{"rma/nil-datatype", rma(buf, 1, nil, 1, 0, win), ErrType, 44},
			{"rma/uncommitted", rma(buf, 1, uncommitted, 1, 0, win), ErrType, 50},
			{"rma/nil-buffer", rma(nil, 1, Long, 1, 0, win), ErrBuffer, 58},
			{"rma/negative-disp", rma(buf, 1, Long, 1, -8, win), ErrArg, 72},
			{"rma/ok", rma(buf, 1, Long, 1, 0, win), ErrNone, 72},
		}
		prof := p.rank.Profile()
		for _, r := range rows {
			before := prof.Snap()
			err := r.check()
			got := prof.Delta(before)
			if ClassOf(err) != r.class {
				t.Errorf("rank %d %s: error %v, want class %s", p.Rank(), r.name, err, r.class)
			}
			if got.Count(instr.ErrorCheck) != r.want || got.Total != r.want {
				t.Errorf("rank %d %s: charged %d ErrorCheck of %d total, want %d ErrorCheck only",
					p.Rank(), r.name, got.Count(instr.ErrorCheck), got.Total, r.want)
			}
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := win.Free(); err != nil {
			return err
		}
		return idle.Free()
	})
}
