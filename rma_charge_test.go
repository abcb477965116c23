package gompi

import (
	"sync/atomic"
	"testing"
)

// rmaCharge is what one one-sided call charges its origin rank: the
// five instruction categories and the transport cycles.
type rmaCharge struct{ errCheck, thread, call, redundant, mandatory, transport int64 }

func rmaChargeOf(c Counters) rmaCharge {
	return rmaCharge{c.ErrorCheck, c.ThreadCheck, c.Call, c.Redundant, c.Mandatory, c.Transport}
}

// rmaCost runs one call of op at rank 0 of a 2-rank world, into an
// open fence epoch on rank 1's 64-byte window, and returns what rank 0
// was charged by the call alone. Rank 1 pumps its progress engine
// until the call returns, so the baseline's emulated get is served
// without rank 1 sending rank 0 anything else (a fence's barrier
// packet landing during the origin's wait would be charged to it).
func rmaCost(t *testing.T, cfg Config, op func(win *Win) error) rmaCharge {
	t.Helper()
	var done atomic.Bool
	var got rmaCharge
	run(t, 2, cfg, func(p *Proc) error {
		win, _, err := p.World().WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			before := p.Counters()
			err := op(win)
			got = rmaChargeOf(p.Counters().Sub(before))
			done.Store(true)
			if err != nil {
				return err
			}
		} else {
			for !done.Load() {
				p.Progress()
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	return got
}

// TestRmaChargeTable pins what Put, Get, Accumulate and GetAccumulate
// charge the origin, per Table 1 category plus transport cycles, for
// an 8-byte contiguous transfer, a vector(2,1,2,long) target layout
// (the ch4 active-message fallback, the baseline's layout packet),
// MPI_PROC_NULL, and the virtual-address calls, on ch4 off-node, ch4
// on-node (shared memory), the ch4 inlined build, and the baseline.
// Both devices send the derived rows and every baseline row as the one
// active-message packet set (core.AM); a GetAccumulate is one packet.
func TestRmaChargeTable(t *testing.T) {
	vec, err := TypeVector(2, 1, 2, Long)
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	buf := func() []byte { return make([]byte, 24) }
	devices := [...]struct {
		name string
		cfg  Config
	}{
		{"ch4-offnode", Config{Fabric: FabricOFI}},
		{"ch4-onnode", Config{Fabric: FabricOFI, RanksPerNode: 2}},
		{"ch4-ipo", Config{Fabric: FabricOFI, Build: BuildNoErrSingleIPO}},
		{"original", Config{Device: DeviceOriginal, Fabric: FabricOFI}},
	}
	// Each row: {error check, thread check, call, redundant, mandatory,
	// transport} per device, in the order above.
	cases := []struct {
		name string
		op   func(win *Win) error
		want [len(devices)]rmaCharge
	}{
		{"put/contig", func(win *Win) error { return win.Put(buf(), 8, Byte, 1, 8) },
			[4]rmaCharge{{72, 14, 25, 62, 44, 391}, {72, 14, 25, 62, 46, 182}, {0, 0, 0, 0, 44, 391}, {72, 14, 62, 77, 1117, 420}}},
		// A derived target rides the active-message packet set on ch4
		// too: an 18-byte header, unpadded, then the 12+8n-byte layout.
		{"put/derived", func(win *Win) error { return win.Put(buf(), 1, vec, 1, 8) },
			[4]rmaCharge{{72, 14, 25, 62, 84, 428}, {72, 14, 25, 62, 84, 728}, {0, 0, 0, 0, 84, 428}, {72, 14, 62, 77, 1135, 430}}},
		{"put/procnull", func(win *Win) error { return win.Put(buf(), 8, Byte, ProcNull, 8) },
			[4]rmaCharge{{72, 14, 25, 0, 3, 0}, {72, 14, 25, 0, 3, 0}, {0, 0, 0, 0, 3, 0}, {72, 14, 62, 77, 1102, 0}}},
		{"put/vaddr", func(win *Win) error { return win.PutVirtualAddr(buf(), 8, Byte, 1, win.BaseAddr(1)+8) },
			[4]rmaCharge{{72, 14, 25, 62, 41, 391}, {72, 14, 25, 62, 43, 182}, {0, 0, 0, 0, 41, 391}, {72, 14, 62, 77, 1117, 420}}},
		{"get/contig", func(win *Win) error { return win.Get(buf(), 8, Byte, 1, 8) },
			[4]rmaCharge{{72, 14, 25, 62, 44, 420}, {72, 14, 25, 62, 46, 182}, {0, 0, 0, 0, 44, 420}, {72, 14, 62, 77, 1117, 418}}},
		// Every baseline request pads the 18-byte header to CH3's 24
		// bytes and carries the target layout, a zero word when
		// contiguous: the derived get request's 12+8n-byte layout costs
		// 7 more transport cycles than the contiguous 28-byte one on OFI.
		{"get/derived", func(win *Win) error { return win.Get(buf(), 1, vec, 1, 8) },
			[4]rmaCharge{{72, 14, 25, 62, 52, 840}, {72, 14, 25, 62, 52, 840}, {0, 0, 0, 0, 52, 840}, {72, 14, 62, 77, 1117, 425}}},
		{"get/procnull", func(win *Win) error { return win.Get(buf(), 8, Byte, ProcNull, 8) },
			[4]rmaCharge{{72, 14, 25, 0, 3, 0}, {72, 14, 25, 0, 3, 0}, {0, 0, 0, 0, 3, 0}, {72, 14, 62, 77, 1102, 0}}},
		{"get/vaddr", func(win *Win) error { return win.GetVirtualAddr(buf(), 8, Byte, 1, win.BaseAddr(1)+8) },
			[4]rmaCharge{{72, 14, 25, 62, 41, 420}, {72, 14, 25, 62, 43, 182}, {0, 0, 0, 0, 41, 420}, {72, 14, 62, 77, 1117, 418}}},
		{"acc/contig", func(win *Win) error { return win.Accumulate(buf(), 1, Long, 1, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 53, 44, 391}, {72, 14, 25, 53, 46, 184}, {0, 0, 0, 0, 44, 391}, {72, 14, 62, 77, 1117, 420}}},
		{"acc/derived", func(win *Win) error { return win.Accumulate(buf(), 1, vec, 1, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 53, 66, 428}, {72, 14, 25, 53, 66, 728}, {0, 0, 0, 0, 66, 428}, {72, 14, 62, 77, 1135, 430}}},
		{"acc/procnull", func(win *Win) error { return win.Accumulate(buf(), 1, Long, ProcNull, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 0, 3, 0}, {72, 14, 25, 0, 3, 0}, {0, 0, 0, 0, 3, 0}, {72, 14, 62, 77, 1102, 0}}},
		{"getacc/contig", func(win *Win) error { return win.GetAccumulate(buf(), buf(), 1, Long, 1, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 53, 44, 391}, {72, 14, 25, 53, 46, 184}, {0, 0, 0, 0, 44, 391}, {72, 14, 62, 77, 1117, 420}}},
		{"getacc/derived", func(win *Win) error { return win.GetAccumulate(buf(), buf(), 1, vec, 1, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 53, 66, 428}, {72, 14, 25, 53, 66, 728}, {0, 0, 0, 0, 66, 428}, {72, 14, 62, 77, 1135, 430}}},
		{"getacc/procnull", func(win *Win) error { return win.GetAccumulate(buf(), buf(), 1, Long, ProcNull, 8, OpSum) },
			[4]rmaCharge{{72, 14, 25, 0, 3, 0}, {72, 14, 25, 0, 3, 0}, {0, 0, 0, 0, 3, 0}, {72, 14, 62, 77, 1102, 0}}},
	}
	for _, c := range cases {
		for i, dev := range devices {
			if got := rmaCost(t, dev.cfg, c.op); got != c.want[i] {
				t.Errorf("%s on %s: {err, thread, call, redundant, mandatory, transport} = %v, want %v",
					c.name, dev.name, got, c.want[i])
			}
		}
	}
}
