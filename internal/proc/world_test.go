package proc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gompi/internal/instr"
)

func TestWorldGeometry(t *testing.T) {
	w := NewWorld(32, 16, 2.2e9)
	if w.Size() != 32 || w.RanksPerNode() != 16 {
		t.Fatalf("geometry = %d/%d", w.Size(), w.RanksPerNode())
	}
	if w.Node(0) != 0 || w.Node(15) != 0 || w.Node(16) != 1 || w.Node(31) != 1 {
		t.Error("node mapping wrong")
	}
	if !w.SameNode(0, 15) || w.SameNode(15, 16) {
		t.Error("SameNode wrong")
	}
}

func TestWorldDefaultsSingleNode(t *testing.T) {
	w := NewWorld(8, 0, 1e9)
	if w.Node(7) != 0 {
		t.Fatalf("last rank on node %d, want 0", w.Node(7))
	}
}

func TestWorldOddNodeCount(t *testing.T) {
	w := NewWorld(10, 4, 1e9)
	if w.Node(9) != 2 {
		t.Fatalf("last rank on node %d, want 2 (3 nodes for 10 ranks at 4 each)", w.Node(9))
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, 1, 1e9)
}

func TestRunAllRanks(t *testing.T) {
	w := NewWorld(17, 4, 1e9)
	var n atomic.Int64
	var seen [17]atomic.Bool
	err := errors.Join(w.RunAll(func(r *Rank) error {
		n.Add(1)
		seen[r.ID()].Store(true)
		if r.World() != w {
			t.Error("rank has wrong world")
		}
		return nil
	})...)
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 17 {
		t.Fatalf("ran %d ranks, want 17", n.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Errorf("rank %d never ran", i)
		}
	}
}

func TestRunCollectsErrors(t *testing.T) {
	w := NewWorld(4, 4, 1e9)
	boom := errors.New("boom")
	err := errors.Join(w.RunAll(func(r *Rank) error {
		if r.ID() == 2 {
			return boom
		}
		return nil
	})...)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("error does not identify the failing rank: %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := NewWorld(3, 3, 1e9)
	err := errors.Join(w.RunAll(func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})...)
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked") {
		t.Fatalf("err = %v, want rank 1 panic", err)
	}
}

func TestRankMeter(t *testing.T) {
	w := NewWorld(1, 1, 2.2e9)
	r := w.Rank(0)
	r.Charge(instr.Mandatory, 10)
	r.ChargeCycles(instr.Transport, 100)
	if r.Profile().Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Profile().Total())
	}
	if r.Now() != 110 {
		t.Errorf("Now = %d, want 110", r.Now())
	}
	r.Sync(500)
	if r.Now() != 500 {
		t.Errorf("Sync: Now = %d, want 500", r.Now())
	}
	if w.Hz() != 2.2e9 {
		t.Error("clock frequency lost")
	}
}

// Property: node mapping partitions ranks into contiguous blocks of
// ranksPerNode.
func TestNodeMappingProperty(t *testing.T) {
	f := func(size, rpn uint8) bool {
		n := int(size%64) + 1
		k := int(rpn%8) + 1
		w := NewWorld(n, k, 1e9)
		for r := 0; r < n; r++ {
			if w.Node(r) != r/k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
