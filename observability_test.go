package gompi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
)

// exchangeBody is a small neighbor exchange every observability test
// reuses: each rank sends msgs messages to its right neighbor and
// receives from its left.
func exchangeBody(msgs, bytes int) func(p *Proc) error {
	return func(p *Proc) error {
		w := p.World()
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		buf := make([]byte, bytes)
		recv := make([]byte, bytes)
		for i := 0; i < msgs; i++ {
			req, err := w.Isend(buf, bytes, Byte, right, i)
			if err != nil {
				return err
			}
			if _, err := w.Recv(recv, bytes, Byte, left, i); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestRunStatsCollects verifies the teardown snapshot: every rank slot
// filled, counters and metrics nonzero, virtual time advanced.
func TestRunStatsCollects(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			st, err := RunStats(4, Config{Device: dev, Fabric: "ofi"}, exchangeBody(5, 64))
			if err != nil {
				t.Fatal(err)
			}
			if st.Hz != 2.2e9 || len(st.Ranks) != 4 {
				t.Fatalf("hz=%g ranks=%d", st.Hz, len(st.Ranks))
			}
			for i, r := range st.Ranks {
				if r.Rank != i {
					t.Fatalf("slot %d holds rank %d", i, r.Rank)
				}
				if r.Counters.TotalInstr == 0 || r.VirtualCycles == 0 {
					t.Fatalf("rank %d: empty counters %+v", i, r)
				}
				if r.Metrics.NetSend.Msgs != 5 || r.Metrics.NetRecv.Msgs != 5 {
					t.Fatalf("rank %d: net msgs %+v", i, r.Metrics.NetSend)
				}
			}
			agg := st.Aggregate()
			if agg.NetSend.Bytes != agg.NetRecv.Bytes || agg.NetSend.Bytes != 4*5*64 {
				t.Fatalf("aggregate bytes send=%d recv=%d, want %d",
					agg.NetSend.Bytes, agg.NetRecv.Bytes, 4*5*64)
			}
		})
	}
}

// TestProcMetricsInBody verifies the mid-run snapshot path.
func TestProcMetricsInBody(t *testing.T) {
	run(t, 2, Config{}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			if err := w.Send([]byte{1}, 1, Byte, 1, 0); err != nil {
				return err
			}
			m := p.Metrics()
			if m.NetSend.Msgs != 1 || m.NetSend.Bytes != 1 {
				return fmt.Errorf("send metrics %+v", m.NetSend)
			}
			return nil
		}
		buf := make([]byte, 1)
		if _, err := w.Recv(buf, 1, Byte, 0, 0); err != nil {
			return err
		}
		m := p.Metrics()
		if m.NetRecv.Msgs != 1 {
			return fmt.Errorf("recv metrics %+v", m.NetRecv)
		}
		return nil
	})
}

// TestChromeTraceExport runs traced jobs under both devices and checks
// the catapult document parses and holds this run's events, and that
// each pt2pt event names the device's VCI: lane 0 of a one-VCI ch4,
// -1 on the baseline, which has none.
func TestChromeTraceExport(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			st, err := RunStats(2, Config{Device: dev, Trace: true}, exchangeBody(3, 16))
			if err != nil {
				t.Fatal(err)
			}
			if len(st.TraceEvents(0)) == 0 || len(st.TraceEvents(1)) == 0 {
				t.Fatal("traced run collected no events")
			}
			wantVCI := 0
			if dev == DeviceOriginal {
				wantVCI = -1
			}
			for r := 0; r < 2; r++ {
				for _, e := range st.TraceEvents(r) {
					if (e.Kind == TraceSend || e.Kind == TraceRecv) && e.VCI != wantVCI {
						t.Fatalf("rank %d %v event on VCI %d, want %d", r, e.Kind, e.VCI, wantVCI)
					}
				}
			}
			var buf bytes.Buffer
			if err := st.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Ts   float64 `json:"ts"`
					Tid  int     `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("chrome export does not parse: %v", err)
			}
			var sends, ranks int
			seen := map[int]bool{}
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" && e.Name == "send" {
					sends++
				}
				if !seen[e.Tid] {
					seen[e.Tid] = true
					ranks++
				}
			}
			if sends != 2*3 {
				t.Fatalf("chrome export has %d send events, want 6", sends)
			}
			if ranks != 2 {
				t.Fatalf("chrome export covers %d ranks, want 2", ranks)
			}
		})
	}
}

// TestTraceRingOverflowPublic forces the bounded ring to evict oldest
// events and checks the drop count surfaces in the teardown snapshot
// while the retained window stays chronological.
func TestTraceRingOverflowPublic(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			const ring = 8
			st, err := RunStats(2, Config{Device: dev, Trace: true, TraceEvents: ring},
				exchangeBody(20, 8)) // 20 x (send+recv+waits) >> ring
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				if st.Ranks[r].TraceDropped == 0 {
					t.Fatalf("rank %d: ring of %d did not drop with 20 exchanges", r, ring)
				}
				evs := st.TraceEvents(r)
				if len(evs) != ring {
					t.Fatalf("rank %d retained %d events, want the full ring %d", r, len(evs), ring)
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].Start < evs[i-1].Start {
						t.Fatalf("rank %d: retained events out of order at %d", r, i)
					}
				}
			}
		})
	}
}

// countingProfiler counts Enter/Exit pairs across all ranks.
type countingProfiler struct {
	enters, exits atomic.Int64
	sendBytes     atomic.Int64
}

func (c *countingProfiler) Enter(rank int, op TraceKind, peer, bytes int, vcycles int64) {
	c.enters.Add(1)
}

func (c *countingProfiler) Exit(rank int, op TraceKind, peer, bytes int, vcycles int64) {
	c.exits.Add(1)
	if op == TraceSend {
		c.sendBytes.Add(int64(bytes))
	}
}

// TestProfilerHooks verifies the PMPI-style interception layer fires
// around every operation, balanced, with tracing off.
func TestProfilerHooks(t *testing.T) {
	prof := &countingProfiler{}
	err := Run(2, Config{Profiler: prof}, exchangeBody(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if prof.enters.Load() == 0 {
		t.Fatal("profiler never fired")
	}
	if prof.enters.Load() != prof.exits.Load() {
		t.Fatalf("unbalanced hooks: %d enters, %d exits", prof.enters.Load(), prof.exits.Load())
	}
	// 2 ranks x 4 sends x 32 bytes.
	if prof.sendBytes.Load() != 2*4*32 {
		t.Fatalf("profiler saw %d send bytes, want %d", prof.sendBytes.Load(), 2*4*32)
	}
}

// TestProfilerSeesAllOpts verifies the fused path reports through the
// hooks too (it bypasses the generic MPI layer but not observability).
func TestProfilerSeesAllOpts(t *testing.T) {
	prof := &countingProfiler{}
	err := Run(2, Config{Profiler: prof, Device: "ch4", Fabric: "inf", Build: "no-err-single-ipo"},
		func(p *Proc) error {
			w := p.World()
			if _, err := w.DupPredefined(Comm1); err != nil {
				return err
			}
			if p.Rank() == 0 {
				if err := p.IsendAllOpts(Comm1, []byte{7}, 1); err != nil {
					return err
				}
				return w.CommWaitall()
			}
			buf := make([]byte, 1)
			_, err := p.PredefComm(Comm1).RecvNoMatch(buf, 1, Byte)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if prof.sendBytes.Load() != 1 {
		t.Fatalf("profiler saw %d bytes from the all-opts send, want 1", prof.sendBytes.Load())
	}
}
