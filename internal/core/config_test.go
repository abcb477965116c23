package core

import (
	"testing"

	"gompi/internal/datatype"
	"gompi/internal/instr"
	"gompi/internal/proc"
)

// TestPaysRemovalRules pins Table 1's removal rules for the four
// Figure 2 builds, and checks that a Meter charges exactly what Pays
// allows, its Mandatory shortcut included. Every build pays a class-3
// type's re-derivation.
func TestPaysRemovalRules(t *testing.T) {
	count := func(paid bool) int64 {
		if paid {
			return 1
		}
		return 0
	}
	for _, c := range []struct {
		name                 string
		cfg                  Config
		thread, call, redund bool
	}{
		{"default", Default, true, true, true},
		{"no-err", NoErr, true, true, true},
		{"no-err-single", NoErrSingle, false, true, true},
		{"no-err-single-ipo", NoErrSingleIPO, false, false, false},
	} {
		want := map[instr.Category]bool{
			instr.ErrorCheck: true, instr.ThreadCheck: c.thread, instr.Call: c.call,
			instr.Redundant: c.redund, instr.Mandatory: true, instr.Transport: true, instr.Compute: true,
		}
		r := proc.NewWorld(1, 1, 1e9).Rank(0)
		m := NewMeter(r, c.cfg)
		for cat := instr.Category(0); cat < instr.NumCategories; cat++ {
			if got := c.cfg.Pays(cat, false); got != want[cat] {
				t.Errorf("%s: Pays(%v) = %v, want %v", c.name, cat, got, want[cat])
			}
			if cat >= instr.Transport {
				continue // cycles, which ChargeCycles records
			}
			before := r.Profile().Count(cat)
			m.Charge(cat, 1)
			if paid := r.Profile().Count(cat) - before; paid != count(want[cat]) {
				t.Errorf("%s: Meter charged %d of %v", c.name, paid, cat)
			}
		}
		if !c.cfg.Pays(instr.Redundant, true) {
			t.Errorf("%s: removes a class-3 type's re-derivation", c.name)
		}
		before := r.Profile().Count(instr.Redundant)
		m.ChargeType(datatype.Byte.AsRuntimeMapped(), 1)
		m.ChargeType(datatype.Byte, 1)
		if paid, want := r.Profile().Count(instr.Redundant)-before, 1+count(c.redund); paid != want {
			t.Errorf("%s: ChargeType charged %d of a class-3 and a plain type, want %d", c.name, paid, want)
		}
	}
}
