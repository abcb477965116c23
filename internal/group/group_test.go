package group

import (
	"testing"
	"testing/quick"
)

func TestWorldGroup(t *testing.T) {
	g := WorldGroup(4)
	if g.Size() != 4 {
		t.Fatalf("Size = %d", g.Size())
	}
	for i := 0; i < 4; i++ {
		w, err := g.WorldRank(i)
		if err != nil || w != i {
			t.Errorf("WorldRank(%d) = (%d,%v)", i, w, err)
		}
		if g.Rank(i) != i {
			t.Errorf("Rank(%d) = %d", i, g.Rank(i))
		}
	}
}

func TestWorldRankOutOfRange(t *testing.T) {
	g := WorldGroup(3)
	if _, err := g.WorldRank(3); err != ErrBadRank {
		t.Error("rank 3 of size-3 group accepted")
	}
	if _, err := g.WorldRank(-1); err != ErrBadRank {
		t.Error("rank -1 accepted")
	}
	if g.Rank(99) != Undefined {
		t.Error("absent world rank not Undefined")
	}
}

func TestFromRanksDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate world rank did not panic")
		}
	}()
	FromRanks([]int{1, 2, 1})
}

func TestInclExcl(t *testing.T) {
	g := WorldGroup(6)
	sub, err := g.Incl([]int{4, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 3 {
		t.Fatalf("Incl size = %d", sub.Size())
	}
	if w, _ := sub.WorldRank(0); w != 4 {
		t.Errorf("Incl order not preserved: %d", w)
	}
	rest, err := g.Excl([]int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if rest.Size() != 4 || rest.Rank(0) != Undefined || rest.Rank(5) != Undefined {
		t.Error("Excl kept excluded ranks")
	}
	if _, err := g.Incl([]int{9}); err != ErrBadRank {
		t.Error("Incl out-of-range accepted")
	}
	if _, err := g.Excl([]int{-2}); err != ErrBadRank {
		t.Error("Excl out-of-range accepted")
	}
}

func TestSetOperations(t *testing.T) {
	a := FromRanks([]int{0, 1, 2, 3})
	b := FromRanks([]int{2, 3, 4, 5})

	u := Union(a, b)
	if u.Size() != 6 {
		t.Errorf("Union size = %d, want 6", u.Size())
	}
	if w, _ := u.WorldRank(4); w != 4 { // a's ranks first, then b's new
		t.Errorf("Union order: rank 4 = world %d, want 4", w)
	}

	i := Intersection(a, b)
	if i.Size() != 2 || i.Rank(2) == Undefined || i.Rank(3) == Undefined {
		t.Error("Intersection wrong")
	}

	d := Difference(a, b)
	if d.Size() != 2 || d.Rank(0) == Undefined || d.Rank(1) == Undefined {
		t.Error("Difference wrong")
	}
}

func TestTranslateRanks(t *testing.T) {
	a := FromRanks([]int{10, 20, 30})
	b := FromRanks([]int{30, 10})
	out, err := TranslateRanks(a, []int{0, 1, 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, Undefined, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("translate[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if _, err := TranslateRanks(a, []int{7}, b); err != ErrBadRank {
		t.Error("out-of-range translate accepted")
	}
}

// Property: Rank and WorldRank are inverse on every member.
func TestRankInverseProperty(t *testing.T) {
	f := func(perm []uint8) bool {
		seen := map[int]bool{}
		var ranks []int
		for _, p := range perm {
			w := int(p)
			if !seen[w] {
				seen[w] = true
				ranks = append(ranks, w)
			}
		}
		if len(ranks) == 0 {
			return true
		}
		g := FromRanks(ranks)
		for i := range ranks {
			w, err := g.WorldRank(i)
			if err != nil || g.Rank(w) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |A∩B| + |A\B| = |A|, and Union contains every member of
// both.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(as, bs []uint8) bool {
		mk := func(xs []uint8) *Group {
			seen := map[int]bool{}
			var ranks []int
			for _, x := range xs {
				if !seen[int(x)] {
					seen[int(x)] = true
					ranks = append(ranks, int(x))
				}
			}
			return FromRanks(ranks)
		}
		a, b := mk(as), mk(bs)
		if Intersection(a, b).Size()+Difference(a, b).Size() != a.Size() {
			return false
		}
		u := Union(a, b)
		for _, w := range a.Ranks() {
			if u.Rank(w) == Undefined {
				return false
			}
		}
		for _, w := range b.Ranks() {
			if u.Rank(w) == Undefined {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
