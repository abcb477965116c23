package gompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/metrics"
)

// fillPattern writes a deterministic byte pattern so corruption is
// position-sensitive (a swapped fragment changes bytes, not just sums).
func fillPattern(buf []byte, seed int) {
	for i := range buf {
		buf[i] = byte((i+seed)*131 + 7)
	}
}

// TestHandoffCopyCounts pins the copy-count contract of the shm
// transport: above the handoff threshold a message costs zero staging
// copies and exactly one direct copy into the posted buffer; below it
// the staged path pays at least two (copy-in plus reassembly).
func TestHandoffCopyCounts(t *testing.T) {
	const thresh = 16384
	cases := []struct {
		name string
		size int
		// expectations on the job-wide aggregate
		stagedMax int64 // -1 = no bound
		stagedMin int64
		direct    int64
		handoffs  int64
	}{
		{name: "handoff", size: 65536, stagedMax: 0, stagedMin: 0, direct: 1, handoffs: 1},
		{name: "staged", size: 4096, stagedMax: -1, stagedMin: 2, direct: 1, handoffs: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			cfg := Config{RanksPerNode: 2, Fabric: "ofi", ShmEagerMax: thresh, Stats: &st}
			err := Run(2, cfg, func(p *Proc) error {
				w := p.World()
				if p.Rank() == 0 {
					buf := make([]byte, tc.size)
					fillPattern(buf, 3)
					r, err := w.Isend(buf, tc.size, Byte, 1, 9)
					if err != nil {
						return err
					}
					_, err = r.Wait()
					return err
				}
				got := make([]byte, tc.size)
				if _, err := w.Recv(got, tc.size, Byte, 0, 9); err != nil {
					return err
				}
				want := make([]byte, tc.size)
				fillPattern(want, 3)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("payload corrupted")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			if tc.stagedMax >= 0 && agg.CopiesStaged.Msgs > tc.stagedMax {
				t.Errorf("CopiesStaged.Msgs = %d, want <= %d", agg.CopiesStaged.Msgs, tc.stagedMax)
			}
			if agg.CopiesStaged.Msgs < tc.stagedMin {
				t.Errorf("CopiesStaged.Msgs = %d, want >= %d", agg.CopiesStaged.Msgs, tc.stagedMin)
			}
			if agg.CopiesDirect.Msgs != tc.direct {
				t.Errorf("CopiesDirect.Msgs = %d, want %d", agg.CopiesDirect.Msgs, tc.direct)
			}
			if agg.ShmHandoff.Msgs != tc.handoffs {
				t.Errorf("ShmHandoff.Msgs = %d, want %d", agg.ShmHandoff.Msgs, tc.handoffs)
			}
			if tc.handoffs > 0 {
				if agg.ShmHandoff.Bytes != int64(tc.size) {
					t.Errorf("ShmHandoff.Bytes = %d, want %d", agg.ShmHandoff.Bytes, tc.size)
				}
				if agg.Lat.HandoffRTT.Count < tc.handoffs {
					t.Errorf("HandoffRTT.Count = %d, want >= %d", agg.Lat.HandoffRTT.Count, tc.handoffs)
				}
			}
		})
	}
}

// TestHandoffAllreduceInPlace runs the zero-copy two-level allreduce on
// a single 4-rank node: the intra-node reduce-scatter folds lent views
// in place, so the whole collective performs ZERO staging copies — the
// only copies in the job are the final fan-out landings in the posted
// result buffers.
func TestHandoffAllreduceInPlace(t *testing.T) {
	const (
		ranks = 4
		count = 4096 // longs; 32 KiB payload, 8 KiB per-member chunk
	)
	var st Stats
	cfg := Config{
		RanksPerNode:  ranks,
		Fabric:        "ofi",
		ShmEagerMax:   1024,
		CollAlgorithm: "two-level",
		Stats:         &st,
	}
	err := Run(ranks, cfg, func(p *Proc) error {
		w := p.World()
		rank := p.Rank()
		send := make([]byte, count*8)
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], uint64((rank+1)*(i+1)))
		}
		recv := make([]byte, count*8)
		r, err := w.Iallreduce(send, recv, count, Long, OpSum)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			want := uint64(10 * (i + 1)) // (1+2+3+4)*(i+1)
			if got := binary.LittleEndian.Uint64(recv[i*8:]); got != want {
				return fmt.Errorf("rank %d element %d = %d, want %d", rank, i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := st.Aggregate()
	zc := agg.Coll[metrics.CollAllreduceTwoLevelZC]
	if zc.Calls != ranks {
		t.Errorf("two-level-zerocopy calls = %d, want %d", zc.Calls, ranks)
	}
	if agg.CopiesStaged.Msgs != 0 {
		t.Errorf("CopiesStaged.Msgs = %d, want 0 (in-place reduction)", agg.CopiesStaged.Msgs)
	}
	// Leader lands 3 chunks, fan-out lands 3 full results; the
	// reduce-scatter folds are not copies.
	if agg.CopiesDirect.Msgs != 6 {
		t.Errorf("CopiesDirect.Msgs = %d, want 6", agg.CopiesDirect.Msgs)
	}
	if agg.ShmHandoff.Msgs == 0 {
		t.Error("no handoffs recorded for the zero-copy allreduce")
	}
}

// TestHandoffSelectionFallsBack pins that the zero-copy algorithm is
// NOT selected below the handoff threshold or when handoff is
// disabled: the plain two-level algorithm runs instead.
func TestHandoffSelectionFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		eager int
		count int
	}{
		{name: "below-threshold", eager: 1 << 20, count: 64},
		{name: "disabled", eager: 0, count: 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			cfg := Config{
				RanksPerNode: 2, Fabric: "ofi",
				ShmEagerMax: tc.eager, CollAlgorithm: "two-level", Stats: &st,
			}
			err := Run(4, cfg, func(p *Proc) error {
				w := p.World()
				send := make([]byte, tc.count*8)
				recv := make([]byte, tc.count*8)
				for i := 0; i < tc.count; i++ {
					binary.LittleEndian.PutUint64(send[i*8:], uint64(p.Rank()+1))
				}
				r, err := w.Iallreduce(send, recv, tc.count, Long, OpSum)
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				if got := binary.LittleEndian.Uint64(recv); got != 10 {
					return fmt.Errorf("element 0 = %d, want 10", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			if zc := agg.Coll[metrics.CollAllreduceTwoLevelZC]; zc.Calls != 0 {
				t.Errorf("two-level-zerocopy used %d times, want 0", zc.Calls)
			}
			if tl := agg.Coll[metrics.CollAllreduceTwoLevel]; tl.Calls != 4 {
				t.Errorf("two-level used %d times, want 4", tl.Calls)
			}
		})
	}
}

// TestHandoffProbeFullSize pins satellite semantics: Iprobe and Mprobe
// on a handoff message report the full payload size, not the one
// descriptor cell that carried it.
func TestHandoffProbeFullSize(t *testing.T) {
	const size = 32768
	run(t, 2, Config{RanksPerNode: 2, Fabric: "ofi", ShmEagerMax: 4096}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			buf := make([]byte, size)
			fillPattern(buf, 11)
			r, err := w.Isend(buf, size, Byte, 1, 4)
			if err != nil {
				return err
			}
			_, err = r.Wait()
			return err
		}
		// Non-consuming probe first: full size, not one cell.
		for {
			st, ok, err := w.Iprobe(0, 4)
			if err != nil {
				return err
			}
			if ok {
				if st.GetCount(Byte) != size {
					return fmt.Errorf("Iprobe count %d, want %d", st.GetCount(Byte), size)
				}
				break
			}
		}
		m, err := w.Mprobe(0, 4)
		if err != nil {
			return err
		}
		if m.Size() != size || m.Count(Byte) != size {
			return fmt.Errorf("Mprobe size %d count %d, want %d", m.Size(), m.Count(Byte), size)
		}
		got := make([]byte, size)
		st, err := m.Recv(got, size, Byte)
		if err != nil {
			return err
		}
		if st.GetCount(Byte) != size {
			return fmt.Errorf("Mrecv count %d, want %d", st.GetCount(Byte), size)
		}
		want := make([]byte, size)
		fillPattern(want, 11)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("mrecv payload corrupted")
		}
		return nil
	})
}

// TestWatchdogHandoffDeadlock drives the handoff-specific deadlock — a
// sender parked on a completion ack for a lent buffer whose receiver
// exited without receiving — and checks that the watchdog trips, the
// abort unparks the sender, and the diagnosis names the outstanding
// handoff in the wait graph and the flight recorder.
func TestWatchdogHandoffDeadlock(t *testing.T) {
	var diag bytes.Buffer
	var st Stats
	cfg := Config{
		RanksPerNode: 2, Fabric: "ofi",
		ShmEagerMax:      1024,
		Watchdog:         true,
		WatchdogInterval: 5 * time.Millisecond,
		DiagWriter:       &diag,
		Stats:            &st,
	}
	err := Run(2, cfg, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil // exit without ever receiving
		}
		buf := make([]byte, 65536)
		r, err := p.World().Isend(buf, len(buf), Byte, 1, 0)
		if err != nil {
			return err
		}
		_, err = r.Wait() // parks awaiting the handoff ack
		return err
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	out := diag.String()
	if !bytes.Contains(diag.Bytes(), []byte("awaits handoff ack")) {
		t.Errorf("diagnosis missing handoff wait-graph line:\n%s", out)
	}
	if !bytes.Contains(diag.Bytes(), []byte("shm-handoff")) {
		t.Errorf("flight recorder missing shm-handoff event:\n%s", out)
	}
}

// handoffEcho runs a 2-rank on-node job sending one size-byte message
// under the given threshold and returns the received bytes.
func handoffEcho(size, eagerMax int) ([]byte, error) {
	got := make([]byte, size)
	err := Run(2, Config{RanksPerNode: 2, Fabric: "ofi", ShmEagerMax: eagerMax}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			buf := make([]byte, size)
			fillPattern(buf, 29)
			r, err := w.Isend(buf, size, Byte, 1, 2)
			if err != nil {
				return err
			}
			_, err = r.Wait()
			return err
		}
		_, err := w.Recv(got, size, Byte, 0, 2)
		return err
	})
	return got, err
}

// FuzzHandoffStaged differentially fuzzes the staged and handoff
// paths: for any payload size and threshold, the bytes delivered must
// be identical whether the message rode staging cells or a lent view.
// Seeds straddle the threshold (below, exact, above) and ragged
// multi-cell sizes.
func FuzzHandoffStaged(f *testing.F) {
	f.Add(uint32(0), uint32(4096))
	f.Add(uint32(4095), uint32(4096))
	f.Add(uint32(4096), uint32(4096))
	f.Add(uint32(4097), uint32(4096))
	f.Add(uint32(3*4096+123), uint32(4096))
	f.Add(uint32(16384), uint32(1))
	f.Fuzz(func(t *testing.T, size, thresh uint32) {
		size %= 1 << 17
		thresh = thresh%(1<<16) + 1
		staged, err := handoffEcho(int(size), 0)
		if err != nil {
			t.Fatalf("staged run: %v", err)
		}
		handoff, err := handoffEcho(int(size), int(thresh))
		if err != nil {
			t.Fatalf("handoff run: %v", err)
		}
		if !bytes.Equal(staged, handoff) {
			t.Fatalf("size %d thresh %d: staged and handoff payloads differ", size, thresh)
		}
	})
}
