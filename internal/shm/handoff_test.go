package shm

import (
	"bytes"
	"strings"
	"testing"

	"gompi/internal/match"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// TestConfigDefaults pins the package defaults and the Config override
// plumbing: a zero Config reproduces NewDomain's geometry exactly, and
// overrides land in the rings.
func TestConfigDefaults(t *testing.T) {
	if CellSize != 4096 || RingCells != 64 {
		t.Fatalf("package defaults moved: CellSize=%d RingCells=%d, want 4096/64", CellSize, RingCells)
	}
	d := NewDomainCfg(DefaultProfile, Config{}, 2,
		func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
	if d.cellSize != CellSize || d.ringCells != RingCells {
		t.Errorf("zero Config: cellSize=%d ringCells=%d, want %d/%d",
			d.cellSize, d.ringCells, CellSize, RingCells)
	}
	if d.eagerMax != 0 {
		t.Errorf("zero Config: eagerMax=%d, want 0 (handoff disabled)", d.eagerMax)
	}
	d = NewDomainCfg(DefaultProfile, Config{CellSize: 1024, RingCells: 8, EagerMax: 2048}, 2,
		func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
	if d.cellSize != 1024 || d.ringCells != 8 || d.eagerMax != 2048 {
		t.Errorf("override Config not honored: %d/%d/%d", d.cellSize, d.ringCells, d.eagerMax)
	}
	r := d.ring(0, 1)
	d.Bind(0, testRank())
	d.Send(0, 1, match.MakeBits(0, 0, 0), make([]byte, inlineBytes+1)) // a long fragment: the slab
	if slot := r.payload(0, inlineBytes+1, d.cellSize); len(r.cells) != 8 || cap(slot) != 1024 {
		t.Errorf("ring geometry %d cells x %d bytes, want 8 x 1024", len(r.cells), cap(slot))
	}
}

// TestCellSizeAffectsCost pins that larger cells mean fewer fragments
// and fewer charged cycles for the same staged payload — the knob the
// crossover sweep turns.
func TestCellSizeAffectsCost(t *testing.T) {
	cost := func(cellSize int) int64 {
		d := NewDomainCfg(DefaultProfile, Config{CellSize: cellSize}, 2,
			func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
		meters := []*proc.Rank{testRank(), testRank()}
		d.Bind(0, meters[0])
		d.Bind(1, meters[1])
		d.Send(0, 1, match.MakeBits(0, 0, 0), make([]byte, 32768))
		d.Progress(1)
		return int64(meters[0].Now()) + int64(meters[1].Now())
	}
	small, large := cost(1024), cost(16384)
	if large >= small {
		t.Errorf("16K cells cost %d cycles, 1K cells cost %d; larger cells must be cheaper", large, small)
	}
}

// TestHandoffAllocFree pins the zero-allocation contract of the
// descriptor path: after warm-up, publish → drain → release → finish
// allocates nothing (satellite: 0 allocs/op on the handoff path).
func TestHandoffAllocFree(t *testing.T) {
	var rel Releaser
	d := NewDomainCfg(DefaultProfile, Config{EagerMax: 1024}, 2,
		func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
	d.SetDeliverView(func(dst int, bits match.Bits, src int, view []byte, arrival vtime.Time, vci int, r Releaser) {
		rel = r
	})
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	bits := match.MakeBits(0, 0, 0)
	payload := make([]byte, 65536)

	cycle := func() {
		h := d.SendVCI(0, 1, bits, payload, 0)
		if h == nil {
			t.Fatal("large payload did not take the handoff path")
		}
		d.Progress(1)
		if rel == nil {
			t.Fatal("view not delivered")
		}
		rel.Release(false)
		rel = nil
		if !h.Done() {
			t.Fatal("release did not complete the handoff")
		}
		d.FinishHandoff(h)
	}
	cycle() // warm up the freelist and ring
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("handoff cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHandoffWaitGraph pins the observability line for a lent buffer
// whose ack is outstanding.
func TestHandoffWaitGraph(t *testing.T) {
	d := NewDomainCfg(DefaultProfile, Config{EagerMax: 128}, 2,
		func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
	d.SetDeliverView(func(dst int, bits match.Bits, src int, view []byte, arrival vtime.Time, vci int, r Releaser) {
		// Keep the view: the ack stays outstanding.
	})
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	h := d.SendVCI(0, 1, match.MakeBits(0, 0, 0), make([]byte, 4096), 0)
	if h == nil {
		t.Fatal("expected handoff")
	}
	d.Progress(1)
	var sb strings.Builder
	d.WriteWaitGraph(&sb)
	if !strings.Contains(sb.String(), "rank 0 awaits handoff ack from rank 1") {
		t.Errorf("wait graph missing handoff line:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "4096 byte(s) lent") {
		t.Errorf("wait graph missing lent byte count:\n%s", sb.String())
	}
}

// TestHandoffViewIdentity pins zero-copy semantics proper: the
// delivered view aliases the sender's buffer (no bytes moved), and a
// staged send of the same payload delivers equal bytes.
func TestHandoffViewIdentity(t *testing.T) {
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	var view []byte
	var viewRel Releaser
	d := NewDomainCfg(DefaultProfile, Config{EagerMax: 1024}, 2,
		func(dst int, bits match.Bits, src int, data []byte, arrival vtime.Time, vci int) {}, nil)
	d.SetDeliverView(func(dst int, bits match.Bits, src int, v []byte, arrival vtime.Time, vci int, r Releaser) {
		view, viewRel = v, r
	})
	d.Bind(0, testRank())
	d.Bind(1, testRank())
	h := d.SendVCI(0, 1, match.MakeBits(0, 0, 0), payload, 0)
	d.Progress(1)
	if view == nil {
		t.Fatal("no view delivered")
	}
	if &view[0] != &payload[0] || len(view) != len(payload) {
		t.Error("handoff view does not alias the sender's buffer")
	}
	viewRel.Release(true)
	d.FinishHandoff(h)

	// Staged reference delivers the same bytes.
	var staged []byte
	d2, boxes, _ := newTestDomain(2)
	d2.Send(0, 1, match.MakeBits(0, 0, 0), payload)
	d2.Progress(1)
	staged = (*boxes[1])[0].data
	if !bytes.Equal(staged, payload) {
		t.Error("staged payload corrupted")
	}
}
