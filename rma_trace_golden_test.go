package gompi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// rmaTracedRun is a traced 2-rank job that makes every one-sided data
// and synchronization call once: a fence epoch with each data call, two
// PSCW rounds (one closed by Wait, one by TestWait), a Lock epoch with
// the request-based calls and both per-target flushes, and a LockAll and
// a LockAllExclusive epoch with the all-target flushes, the fused put
// and a notified put. Rank 0 is the origin and rank 1 the target; the
// job returns its Chrome trace followed by each rank's summary.
//
// Every token a rank receives was sent before the receive is posted, the
// origin issues an epoch's operations only once the target has left the
// call before it (the channels below order both), and the target serves
// a passive epoch from inside a Barrier, so no charge depends on
// goroutine interleaving.
func rmaTracedRun(t *testing.T) []byte {
	t.Helper()
	var st Stats
	summaries := make([]bytes.Buffer, 2)
	toTarget := make(chan struct{}, 1)
	toOrigin := make(chan struct{}, 1)
	err := Run(2, Config{Fabric: "inf", Trace: true, Stats: &st}, func(p *Proc) error {
		w := p.World()
		origin := p.Rank() == 0
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		data := []byte{1, 0, 0, 0, 0, 0, 0, 0}
		res := make([]byte, 8)
		calls := func(fs ...func() error) error {
			for i, f := range fs {
				if err := f(); err != nil {
					return fmt.Errorf("rank %d call %d: %w", p.Rank(), i, err)
				}
			}
			return nil
		}

		// Active target: one fence epoch with every data call, issued
		// once the target has left the opening fence.
		if err := win.Fence(); err != nil {
			return err
		}
		if !origin {
			toOrigin <- struct{}{}
		} else {
			<-toOrigin
			if err := calls(
				func() error { return win.Put(data, 8, Byte, 1, 0) },
				func() error { return win.Get(res, 8, Byte, 1, 8) },
				func() error { return win.Accumulate(data, 1, Long, 1, 16, OpSum) },
				func() error { return win.GetAccumulate(data, res, 1, Long, 1, 16, OpSum) },
				func() error { return win.FetchAndOp(data, res, Long, 1, 16, OpSum) },
				func() error { return win.PutVirtualAddr(data, 8, Byte, 1, win.BaseAddr(1)+24) },
				func() error { return win.GetVirtualAddr(res, 8, Byte, 1, win.BaseAddr(1)+32) },
			); err != nil {
				return err
			}
		}
		if err := win.FenceEnd(); err != nil {
			return err
		}

		// Generalized active target, twice: the target posts before the
		// origin starts and the origin completes before the target waits.
		for round := 0; round < 2; round++ {
			if origin {
				<-toOrigin
				if err := calls(
					func() error { return win.Start([]int{1}) },
					func() error { return win.Put(data, 8, Byte, 1, 40) },
					win.Complete,
				); err != nil {
					return err
				}
				toTarget <- struct{}{}
				continue
			}
			if err := win.Post([]int{0}); err != nil {
				return err
			}
			toOrigin <- struct{}{}
			<-toTarget
			if round == 0 {
				if err := win.Wait(); err != nil {
					return err
				}
			} else if done, err := win.TestWait(); err != nil || !done {
				return fmt.Errorf("TestWait = %v, %v after the complete token was sent", done, err)
			}
		}

		// Passive target, begun once the target has closed its last
		// exposure: the target serves from inside the Barrier, then takes
		// the notification that was sent before the Barrier.
		if !origin {
			toOrigin <- struct{}{}
		} else {
			<-toOrigin
			var reqs [3]*Request
			if err := calls(
				func() error { return win.Lock(1, true) },
				func() (err error) { reqs[0], err = win.Rput(data, 8, Byte, 1, 0); return err },
				func() (err error) { reqs[1], err = win.Rget(res, 8, Byte, 1, 8); return err },
				func() (err error) { reqs[2], err = win.Raccumulate(data, 1, Long, 1, 16, OpSum); return err },
				func() error { return Waitall(reqs[:]) },
				func() error { return win.Flush(1) },
				func() error { return win.FlushLocal(1) },
				func() error { return win.Unlock(1) },
				win.LockAll,
				func() error { return win.PutOpt(data, 8, Byte, 1, 48, AllPutOptions) },
				win.FlushAll,
				win.FlushLocalAll,
				func() error { return win.PutNotify(data, 8, Byte, 1, 56) },
				win.UnlockAll,
				win.LockAllExclusive,
				func() error { return win.Put(data, 8, Byte, 1, 0) },
				win.FlushAll,
				win.UnlockAll,
			); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if !origin {
			if src, err := win.WaitNotify(0); err != nil || src != 0 {
				return fmt.Errorf("WaitNotify = %d, %v", src, err)
			}
		}
		p.WriteTraceSummary(&summaries[p.Rank()])
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := st.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	for r := range summaries {
		fmt.Fprintf(&out, "-- rank %d summary --\n", r)
		out.Write(summaries[r].Bytes())
	}
	return out.Bytes()
}

// TestRmaTraceGolden pins the trace bytes of every one-sided data and
// synchronization call: each call's span, and through the spans' virtual
// times what the call charges.
func TestRmaTraceGolden(t *testing.T) {
	got := rmaTracedRun(t)
	path := filepath.Join("testdata", "rma_trace.golden")
	if *updateTrace {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace output differs from %s (regenerate with -update only for an intended change):\ngot:\n%s", path, got)
	}
}
