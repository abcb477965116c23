package gompi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceRecordsOperations(t *testing.T) {
	run(t, 2, Config{Fabric: "ofi", Trace: true}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			if err := w.Send(make([]byte, 16), 16, Byte, 1, 0); err != nil {
				return err
			}
		} else {
			buf := make([]byte, 16)
			if _, err := w.Recv(buf, 16, Byte, 0, 0); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}

		events := p.TraceEvents()
		if len(events) == 0 {
			return fmt.Errorf("no events recorded")
		}
		kinds := map[string]int{}
		// Events are recorded as they complete, so the log is ordered
		// by End: the barrier's per-round schedule spans close before
		// the collective span that encloses them.
		var prev int64 = -1
		for _, e := range events {
			kinds[e.Kind.String()]++
			if int64(e.End) < prev {
				return fmt.Errorf("events out of order")
			}
			prev = int64(e.End)
			if e.End < e.Start {
				return fmt.Errorf("negative duration: %+v", e)
			}
		}
		if kinds["collective"] == 0 || kinds["sched-round"] == 0 {
			return fmt.Errorf("barrier and its rounds not traced: %v", kinds)
		}
		if p.Rank() == 0 && kinds["send"] == 0 {
			return fmt.Errorf("send not traced: %v", kinds)
		}
		if p.Rank() == 1 && (kinds["recv"] == 0 || kinds["wait"] == 0) {
			return fmt.Errorf("recv/wait not traced: %v", kinds)
		}
		// Send events carry peer and bytes.
		if p.Rank() == 0 {
			for _, e := range events {
				if e.Kind == TraceSend {
					if e.Peer != 1 || e.Bytes != 16 {
						return fmt.Errorf("send event %+v", e)
					}
				}
			}
		}
		var sb strings.Builder
		p.WriteTraceSummary(&sb)
		if !strings.Contains(sb.String(), "total") {
			return fmt.Errorf("summary: %s", sb.String())
		}
		return nil
	})
}

func TestTraceRMAOperations(t *testing.T) {
	run(t, 2, Config{Fabric: "inf", Trace: true}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(16, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Put([]byte{1, 2}, 2, Byte, 1, 0); err != nil {
				return err
			}
			buf := make([]byte, 8)
			if err := win.Get(buf, 2, Byte, 1, 4); err != nil {
				return err
			}
			if err := win.PutVirtualAddr([]byte{3}, 1, Byte, 1, win.BaseAddr(1)+2); err != nil {
				return err
			}
			if err := win.GetVirtualAddr(buf, 1, Byte, 1, win.BaseAddr(1)+2); err != nil {
				return err
			}
			if err := win.GetAccumulate(make([]byte, 8), buf, 1, Long, 1, 8, OpSum); err != nil {
				return err
			}
			if err := win.FetchAndOp(make([]byte, 8), buf, Long, 1, 8, OpSum); err != nil {
				return err
			}
		}
		if err := win.FenceEnd(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		if err := win.Free(); err != nil {
			return err
		}
		kinds := map[string]int{}
		for _, e := range p.TraceEvents() {
			kinds[e.Kind.String()]++
		}
		// Fence and FenceEnd on every rank; Lock and Unlock at rank 0.
		if want := 2 + 2*(1-p.Rank()); kinds["rma-sync"] != want {
			return fmt.Errorf("rank %d: %d sync events, want %d: %v", p.Rank(), kinds["rma-sync"], want, kinds)
		}
		if p.Rank() == 0 && (kinds["put"] != 2 || kinds["get"] != 2 || kinds["accumulate"] != 2) {
			return fmt.Errorf("rma ops not traced: %v", kinds)
		}
		return nil
	})
}

func TestTraceDisabledByDefault(t *testing.T) {
	run(t, 1, Config{}, func(p *Proc) error {
		if err := p.World().Barrier(); err != nil {
			return err
		}
		if len(p.TraceEvents()) != 0 {
			return fmt.Errorf("events recorded without Trace")
		}
		return nil
	})
}

func TestTraceDoesNotPerturbCounts(t *testing.T) {
	// Tracing must not change the instruction accounting.
	for _, tr := range []bool{false, true} {
		run(t, 2, Config{Fabric: "inf", Build: "default", Trace: tr}, func(p *Proc) error {
			w := p.World()
			if p.Rank() != 0 {
				buf := make([]byte, 1)
				_, err := w.Recv(buf, 1, Byte, 0, 0)
				return err
			}
			before := p.Counters()
			req, err := w.Isend([]byte{1}, 1, Byte, 1, 0)
			if err != nil {
				return err
			}
			d := p.Counters().Sub(before)
			if _, err := req.Wait(); err != nil {
				return err
			}
			if d.TotalInstr != 221 {
				return fmt.Errorf("trace=%v: isend = %d instructions", tr, d.TotalInstr)
			}
			return nil
		})
	}
}

// kindProfiler records which operation kinds its Enter hook saw.
type kindProfiler struct {
	mu    sync.Mutex
	kinds map[TraceKind]bool
}

func (k *kindProfiler) Enter(rank int, op TraceKind, peer, bytes int, vcycles int64) {
	k.mu.Lock()
	k.kinds[op] = true
	k.mu.Unlock()
}

func (k *kindProfiler) Exit(rank int, op TraceKind, peer, bytes int, vcycles int64) {}

// TestTraceRecordsEveryKind: a traced and profiled job that makes a
// call of every family — two-sided, probes, a collective, one-sided
// data, synchronization, a flush and notified access — records every
// exported Trace* kind in the span log, and the profiler enters every
// kind but the schedule rounds.
func TestTraceRecordsEveryKind(t *testing.T) {
	prof := &kindProfiler{kinds: map[TraceKind]bool{}}
	var mu sync.Mutex
	traced := map[TraceKind]bool{}
	run(t, 2, Config{Fabric: "inf", Trace: true, Profiler: prof}, func(p *Proc) error {
		w := p.World()
		buf := make([]byte, 8)
		if p.Rank() == 0 {
			if err := w.Send(buf, 8, Byte, 1, 1); err != nil {
				return err
			}
			if err := w.Send(buf, 8, Byte, 1, 2); err != nil {
				return err
			}
		} else {
			if _, err := w.Probe(0, 1); err != nil {
				return err
			}
			if _, ok, err := w.Iprobe(0, 1); err != nil || !ok {
				return fmt.Errorf("Iprobe after Probe = %v, %v", ok, err)
			}
			if _, err := w.Recv(buf, 8, Byte, 0, 1); err != nil {
				return err
			}
			m, err := w.Mprobe(0, 2)
			if err != nil {
				return err
			}
			if _, err := m.Recv(buf, 8, Byte); err != nil {
				return err
			}
			if _, ok, err := w.Improbe(0, 3); err != nil || ok {
				return fmt.Errorf("Improbe of an unsent message = %v, %v", ok, err)
			}
		}
		if err := w.Bcast(buf, 8, Byte, 0); err != nil {
			return err
		}
		win, _, err := w.WinAllocate(32, 1)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Put(buf, 8, Byte, 1, 0); err != nil {
				return err
			}
			if err := win.Get(buf, 8, Byte, 1, 8); err != nil {
				return err
			}
			if err := win.Accumulate(buf, 1, Long, 1, 16, OpSum); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			if err := win.PutNotify(buf, 8, Byte, 1, 24); err != nil {
				return err
			}
		} else if _, err := win.WaitNotify(0); err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		for _, e := range p.TraceEvents() {
			traced[e.Kind] = true
		}
		mu.Unlock()
		return win.Free()
	})
	for _, k := range []TraceKind{TraceSend, TraceRecv, TraceWait, TraceColl, TracePut, TraceGet,
		TraceAcc, TraceSync, TraceProbe, TraceSched, TraceFlush, TraceNotify} {
		if !traced[k] {
			t.Errorf("no %v event in the trace", k)
		}
		// A schedule round is a step inside a collective, not an MPI
		// call, so only the trace records it.
		if k != TraceSched && !prof.kinds[k] {
			t.Errorf("the profiler never entered a %v call", k)
		}
	}
}
