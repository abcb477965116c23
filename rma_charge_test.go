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

// rmaSync is what one synchronization call charges its origin rank
// (the five instruction categories and the transport cycles) and what
// it records: the deltas of the flush counter, the LockAll counter and
// the epoch-open→flush histogram's sample count.
type rmaSync struct {
	errCheck, thread, call, redundant, mandatory, transport int64
	flushes, lockAlls, epochFlush                           int64
}

// syncCost runs setup, op and teardown at rank 0 of an n-rank world on
// a 64-byte window and returns what op alone charged and recorded. The
// other ranks only pump their progress engines until op returns, then
// join the window's free.
func syncCost(t *testing.T, n int, cfg Config, setup, op, teardown func(win *Win) error) rmaSync {
	t.Helper()
	var done atomic.Bool
	var got rmaSync
	run(t, n, cfg, func(p *Proc) error {
		win, _, err := p.World().WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if setup != nil {
				if err := setup(win); err != nil {
					return err
				}
			}
			before, mb := p.Counters(), p.Metrics()
			err := op(win)
			c, ma := p.Counters().Sub(before), p.Metrics()
			got = rmaSync{c.ErrorCheck, c.ThreadCheck, c.Call, c.Redundant, c.Mandatory, c.Transport,
				ma.Rma.Flushes - mb.Rma.Flushes, ma.Rma.LockAlls - mb.Rma.LockAlls,
				ma.Lat.EpochFlush.Count - mb.Lat.EpochFlush.Count}
			done.Store(true)
			if err != nil {
				return err
			}
			if teardown != nil {
				if err := teardown(win); err != nil {
					return err
				}
			}
		} else {
			for !done.Load() {
				p.Progress()
			}
		}
		return win.Free()
	})
	return got
}

// TestRmaSyncChargeTable pins what every window synchronization call
// charges the origin and records, on ch4 off-node, ch4 on-node, the
// ch4 inlined build and the baseline, at 2 and 4 ranks so the
// baseline's per-target loops show: {error check, thread check, call,
// redundant, mandatory, transport, flushes, LockAlls, epoch→flush
// samples}. Fence and FenceEnd run at 1 rank, where the barrier has no
// rounds (with more ranks its match charge depends on whether its
// message was posted or unexpected first).
func TestRmaSyncChargeTable(t *testing.T) {
	devices := [...]struct {
		name string
		cfg  Config
	}{
		{"ch4-offnode", Config{Fabric: FabricOFI}},
		{"ch4-onnode", Config{Fabric: FabricOFI, RanksPerNode: 2}},
		{"ch4-ipo", Config{Fabric: FabricOFI, Build: BuildNoErrSingleIPO}},
		{"original", Config{Device: DeviceOriginal, Fabric: FabricOFI}},
	}
	lock := func(excl bool) func(win *Win) error { return func(win *Win) error { return win.Lock(1, excl) } }
	unlock := func(win *Win) error { return win.Unlock(1) }
	lockAll := func(win *Win) error { return win.LockAll() }
	unlockAll := func(win *Win) error { return win.UnlockAll() }
	lockAllExcl := func(win *Win) error { return win.LockAllExclusive() }
	flush := func(t int) func(win *Win) error { return func(win *Win) error { return win.Flush(t) } }
	flushLocal := func(t int) func(win *Win) error {
		return func(win *Win) error {
			if t < 0 {
				return win.FlushLocalAll()
			}
			return win.FlushLocal(t)
		}
	}
	flushAll := func(win *Win) error { return win.FlushAll() }
	fence := func(win *Win) error { return win.Fence() }
	rputWait := func(win *Win) error {
		req, err := win.Rput(make([]byte, 8), 8, Byte, 1, 8)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	}
	cases := []struct {
		name                string
		n                   int
		setup, op, teardown func(win *Win) error
		want                [len(devices)]rmaSync
	}{
		{"fence", 1, nil, fence, nil,
			[4]rmaSync{{0, 14, 17, 0, 6, 0, 0, 0, 0}, {0, 14, 17, 0, 6, 0, 0, 0, 0}, {0, 0, 0, 0, 6, 0, 0, 0, 0}, {0, 14, 17, 0, 95, 0, 0, 0, 0}}},
		{"fence-end", 1, fence, func(win *Win) error { return win.FenceEnd() }, nil,
			[4]rmaSync{{0, 14, 17, 0, 6, 0, 0, 0, 0}, {0, 14, 17, 0, 6, 0, 0, 0, 0}, {0, 0, 0, 0, 6, 0, 0, 0, 0}, {0, 14, 17, 0, 95, 0, 0, 0, 0}}},
		{"lock/shared", 2, nil, lock(false), unlock,
			[4]rmaSync{{0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 0, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 40, 4400, 0, 0, 0}}},
		{"lock/exclusive", 2, nil, lock(true), unlock,
			[4]rmaSync{{0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 0, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 40, 4400, 0, 0, 0}}},
		{"unlock/shared", 2, lock(false), unlock, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 0, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 65, 4400, 1, 0, 0}}},
		{"unlock/exclusive", 2, lock(true), unlock, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 0, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 65, 4400, 1, 0, 0}}},
		{"lockall", 2, nil, lockAll, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 0, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 80, 8800, 0, 1, 0}}},
		{"lockall/exclusive", 2, nil, lockAllExcl, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 0, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 80, 8800, 0, 1, 0}}},
		{"unlockall", 2, lockAll, unlockAll, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 1}, {0, 0, 17, 0, 36, 4400, 1, 0, 1}, {0, 0, 0, 0, 36, 4400, 1, 0, 1}, {0, 0, 17, 0, 90, 8800, 2, 0, 2}}},
		{"flush", 2, lockAll, flush(1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 0, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"flushlocal", 2, lockAll, flushLocal(1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 0, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"flushall", 2, lockAll, flushAll, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 0, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 50, 8800, 2, 0, 2}}},
		{"flushlocalall", 2, lockAll, flushLocal(-1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 0, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"rput+wait", 2, lockAll, rputWait, unlockAll,
			[4]rmaSync{{72, 14, 25, 62, 69, 4791, 1, 0, 1}, {72, 14, 25, 62, 71, 4582, 1, 0, 1}, {0, 0, 0, 0, 69, 4791, 1, 0, 1}, {72, 14, 62, 77, 1142, 5120, 1, 0, 1}}},
		{"lock/shared", 4, nil, lock(false), unlock,
			[4]rmaSync{{0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 0, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 40, 4400, 0, 0, 0}}},
		{"lock/exclusive", 4, nil, lock(true), unlock,
			[4]rmaSync{{0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 24, 4400, 0, 0, 0}, {0, 0, 0, 0, 24, 4400, 0, 0, 0}, {0, 0, 17, 0, 40, 4400, 0, 0, 0}}},
		{"unlock/shared", 4, lock(false), unlock, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 0, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 65, 4400, 1, 0, 0}}},
		{"unlock/exclusive", 4, lock(true), unlock, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 36, 4400, 1, 0, 0}, {0, 0, 0, 0, 36, 4400, 1, 0, 0}, {0, 0, 17, 0, 65, 4400, 1, 0, 0}}},
		{"lockall", 4, nil, lockAll, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 0, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 160, 17600, 0, 1, 0}}},
		{"lockall/exclusive", 4, nil, lockAllExcl, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 30, 4400, 0, 1, 0}, {0, 0, 0, 0, 30, 4400, 0, 1, 0}, {0, 0, 17, 0, 160, 17600, 0, 1, 0}}},
		{"unlockall", 4, lockAll, unlockAll, nil,
			[4]rmaSync{{0, 0, 17, 0, 36, 4400, 1, 0, 1}, {0, 0, 17, 0, 36, 4400, 1, 0, 1}, {0, 0, 0, 0, 36, 4400, 1, 0, 1}, {0, 0, 17, 0, 140, 17600, 4, 0, 4}}},
		{"flush", 4, lockAll, flush(1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 0, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"flushlocal", 4, lockAll, flushLocal(1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 0, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"flushall", 4, lockAll, flushAll, unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 12, 4400, 1, 0, 1}, {0, 0, 0, 0, 12, 4400, 1, 0, 1}, {0, 0, 17, 0, 100, 17600, 4, 0, 4}}},
		{"flushlocalall", 4, lockAll, flushLocal(-1), unlockAll,
			[4]rmaSync{{0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 4, 0, 1, 0, 1}, {0, 0, 0, 0, 4, 0, 1, 0, 1}, {0, 0, 17, 0, 25, 4400, 1, 0, 1}}},
		{"rput+wait", 4, lockAll, rputWait, unlockAll,
			[4]rmaSync{{72, 14, 25, 62, 69, 4791, 1, 0, 1}, {72, 14, 25, 62, 71, 4582, 1, 0, 1}, {0, 0, 0, 0, 69, 4791, 1, 0, 1}, {72, 14, 62, 77, 1142, 5120, 1, 0, 1}}},
	}
	for _, c := range cases {
		for i, dev := range devices {
			if got := syncCost(t, c.n, dev.cfg, c.setup, c.op, c.teardown); got != c.want[i] {
				t.Errorf("%s at %d ranks on %s: {err, thread, call, redundant, mandatory, transport, flushes, lockalls, epoch_flush} = %v, want %v",
					c.name, c.n, dev.name, got, c.want[i])
			}
		}
	}
}
