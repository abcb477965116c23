package instr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestChargeAccumulates(t *testing.T) {
	var p Profile
	p.Add(ErrorCheck, 10)
	p.Add(ErrorCheck, 5)
	p.Add(Mandatory, 7)
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
	p.Add(Mandatory, 3)
	p.Add(Transport, 100)
	p.Add(Compute, 50)
	if got := p.Total(); got != 3 {
		t.Errorf("Total = %d, want 3 (transport/compute must not count)", got)
	}
	if got := p.Cycles(); got != 153 {
		t.Errorf("Cycles = %d, want 153", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	var p Profile
	p.Add(ErrorCheck, 100)
	s := p.Snap()
	p.Add(ErrorCheck, 4)
	p.Add(Call, CallEntry.Value())
	p.Add(Transport, 300)
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
	p.Add(ErrorCheck, 74)
	p.Add(ThreadCheck, 6)
	p.Add(Call, 23)
	p.Add(Redundant, 59)
	p.Add(Mandatory, 59)
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
// of charges — plain adds of a single-writer rank or atomic adds of a
// shared one — Total, Cycles and Delta equal the accumulators the test
// keeps beside it (the two a charge used to maintain), and Transport
// and Compute cycles count toward Cycles only.
func TestLedgerTotalsAreSums(t *testing.T) {
	f := func(pre, post []uint16, shared bool) bool {
		var p Profile
		add := p.Add
		if shared {
			add = p.AddShared
		}
		var total, cycles int64
		charge := func(charges []uint16) {
			for i, c := range charges {
				cat := Category(i % int(NumCategories))
				n := int64(c % 1000)
				cycles += n
				if cat < Transport {
					total += n
				}
				add(cat, n)
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
			p.Add(Category(c%5), int64(c))
		}
		s := p.Snap()
		var want int64
		for _, c := range post {
			p.Add(Category(c%5), int64(c))
			want += int64(c)
		}
		return p.Delta(s).Total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
