package instr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestChargeAccumulates(t *testing.T) {
	var p Profile
	p.Charge(ErrorCheck, 10)
	p.Charge(ErrorCheck, 5)
	p.Charge(Mandatory, 7)
	if got := p.Count(ErrorCheck); got != 15 {
		t.Errorf("Count(ErrorCheck) = %d, want 15", got)
	}
	if got := p.Count(Mandatory); got != 7 {
		t.Errorf("Count(Mandatory) = %d, want 7", got)
	}
	if got := p.Total(); got != 22 {
		t.Errorf("Total = %d, want 22", got)
	}
	if got := p.Cycles(); got != 22 {
		t.Errorf("Cycles = %d, want 22", got)
	}
}

func TestTransportExcludedFromTotal(t *testing.T) {
	var p Profile
	p.Charge(Mandatory, 3)
	p.ChargeCycles(Transport, 100)
	p.ChargeCycles(Compute, 50)
	if got := p.Total(); got != 3 {
		t.Errorf("Total = %d, want 3 (transport/compute must not count)", got)
	}
	if got := p.Cycles(); got != 153 {
		t.Errorf("Cycles = %d, want 153", got)
	}
}

func TestChargeCyclesPanicsOnMPICategory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChargeCycles(Mandatory) did not panic")
		}
	}()
	var p Profile
	p.ChargeCycles(Mandatory, 1)
}

func TestSnapshotDelta(t *testing.T) {
	var p Profile
	p.Charge(ErrorCheck, 100)
	s := p.Snap()
	p.Charge(ErrorCheck, 4)
	p.Charge(Call, CallEntry.Value())
	p.ChargeCycles(Transport, 300)
	d := p.Delta(s)
	if d.Count(ErrorCheck) != 4 {
		t.Errorf("delta ErrorCheck = %d, want 4", d.Count(ErrorCheck))
	}
	if d.Count(Call) != CallEntry.Value() {
		t.Errorf("delta Call = %d, want %d", d.Count(Call), CallEntry.Value())
	}
	if d.Total != 4+CallEntry.Value() {
		t.Errorf("delta Total = %d, want %d", d.Total, 4+CallEntry.Value())
	}
	if d.Cycles != 4+CallEntry.Value()+300 {
		t.Errorf("delta Cycles = %d, want %d", d.Cycles, 4+CallEntry.Value()+300)
	}
}

func TestBreakdownAddScale(t *testing.T) {
	var p Profile
	p.Charge(Mandatory, 10)
	b := p.Delta(Snapshot{})
	sum := b.Add(b).Add(b)
	if sum.Count(Mandatory) != 30 || sum.Total != 30 {
		t.Errorf("Add: got %d/%d, want 30/30", sum.Count(Mandatory), sum.Total)
	}
	avg := sum.Scale(3)
	if avg.Count(Mandatory) != 10 || avg.Total != 10 {
		t.Errorf("Scale: got %d/%d, want 10/10", avg.Count(Mandatory), avg.Total)
	}
}

func TestBreakdownScaleRoundsToNearest(t *testing.T) {
	b := Breakdown{Total: 10, Cycles: 11}
	b.Counts[Mandatory] = 10
	b.Counts[Call] = 2
	avg := b.Scale(4)
	// 10/4 = 2.5 rounds to 3 (not the truncated 2); 2/4 = 0.5 rounds to
	// 1; 11/4 = 2.75 rounds to 3.
	if avg.Counts[Mandatory] != 3 {
		t.Errorf("Scale(4) of 10 = %d, want 3", avg.Counts[Mandatory])
	}
	if avg.Counts[Call] != 1 {
		t.Errorf("Scale(4) of 2 = %d, want 1", avg.Counts[Call])
	}
	if avg.Total != 3 || avg.Cycles != 3 {
		t.Errorf("Scale(4) total/cycles = %d/%d, want 3/3", avg.Total, avg.Cycles)
	}
	// Exact multiples stay exact — the pinned single-op counts.
	exact := Breakdown{Total: 300}
	if got := exact.Scale(3).Total; got != 100 {
		t.Errorf("Scale(3) of 300 = %d, want 100", got)
	}
}

func TestBreakdownScalePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	Breakdown{}.Scale(0)
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		ErrorCheck:  "Error checking",
		ThreadCheck: "Thread-safety check",
		Call:        "MPI function call",
		Redundant:   "Redundant runtime checks",
		Mandatory:   "MPI mandatory overheads",
		Transport:   "Transport",
		Compute:     "Compute",
	}
	for cat, s := range want {
		if cat.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", cat, cat.String(), s)
		}
	}
	if Category(200).String() != "Unknown" {
		t.Error("unknown category should stringify as Unknown")
	}
}

func TestBreakdownStringHasAllRows(t *testing.T) {
	var p Profile
	p.Charge(ErrorCheck, 74)
	p.Charge(ThreadCheck, 6)
	p.Charge(Call, 23)
	p.Charge(Redundant, 59)
	p.Charge(Mandatory, 59)
	s := p.Delta(Snapshot{}).String()
	for _, cat := range MPICategories {
		if !strings.Contains(s, cat.String()) {
			t.Errorf("String() missing row %q:\n%s", cat.String(), s)
		}
	}
	if !strings.Contains(s, "221") {
		t.Errorf("String() missing total 221:\n%s", s)
	}
}

// Property: the profile keeps no running totals, yet for any sequence
// of charges — on a single-writer and on a shared profile — Total,
// Cycles and Delta equal the accumulators the test keeps beside it (the
// two a Charge used to maintain), and Transport and Compute cycles
// count toward Cycles only.
func TestLedgerTotalsAreSums(t *testing.T) {
	f := func(pre, post []uint16, shared bool) bool {
		var p Profile
		if shared {
			p.Share()
		}
		var total, cycles int64
		charge := func(charges []uint16) {
			for i, c := range charges {
				cat := Category(i % int(NumCategories))
				n := int64(c % 1000)
				cycles += n
				if cat < Transport {
					total += n
					p.Charge(cat, n)
				} else {
					p.ChargeCycles(cat, n)
				}
			}
		}
		charge(pre)
		if p.Total() != total || p.Cycles() != cycles {
			return false
		}
		s, total0, cycles0 := p.Snap(), total, cycles
		charge(post)
		d := p.Delta(s)
		var counts int64
		for cat := Category(0); cat < NumCategories; cat++ {
			counts += d.Count(cat)
		}
		return d.Total == total-total0 && d.Cycles == cycles-cycles0 && counts == d.Cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Delta is the difference of two snapshots regardless of
// interleaving.
func TestDeltaInvariant(t *testing.T) {
	f := func(pre, post []uint8) bool {
		var p Profile
		for _, c := range pre {
			p.Charge(Category(c%5), int64(c))
		}
		s := p.Snap()
		var want int64
		for _, c := range post {
			p.Charge(Category(c%5), int64(c))
			want += int64(c)
		}
		return p.Delta(s).Total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
