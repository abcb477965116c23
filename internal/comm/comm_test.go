package comm

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gompi/internal/group"
)

// worldViews builds every rank's view of MPI_COMM_WORLD for one job.
func worldViews(n int) []*Comm {
	reg := NewRegistry()
	cs := make([]*Comm, n)
	for i := range cs {
		cs[i] = NewWorld(reg, n, i)
	}
	return cs
}

// spinWaiter stands in for a rank's device: Wake moves its counter and
// WaitEvent yields until the counter moves.
type spinWaiter struct{ seq atomic.Uint64 }

func (w *spinWaiter) Progress()        {}
func (w *spinWaiter) EventSeq() uint64 { return w.seq.Load() }
func (w *spinWaiter) Wake()            { w.seq.Add(1) }
func (w *spinWaiter) WaitEvent(last uint64) {
	for w.seq.Load() == last {
		runtime.Gosched()
	}
}

// collective runs body once per rank concurrently and waits.
func collective(cs []*Comm, body func(c *Comm)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(c)
	}
	wg.Wait()
}

func TestWorldComm(t *testing.T) {
	cs := worldViews(4)
	for i, c := range cs {
		if c.Size() != 4 || c.Rank() != i {
			t.Fatalf("rank %d: size=%d rank=%d", i, c.Size(), c.Rank())
		}
		if c.Ctx != 0 || c.CollCtx != 1 {
			t.Errorf("world contexts = %d/%d, want 0/1", c.Ctx, c.CollCtx)
		}
		w, err := c.WorldRank(i)
		if err != nil || w != i {
			t.Errorf("WorldRank(%d) = (%d,%v)", i, w, err)
		}
		if c.Table.Kind() != TableIdentity {
			t.Error("world table should be identity")
		}
	}
}

func TestWorldRankValidation(t *testing.T) {
	cs := worldViews(2)
	if _, err := cs[0].WorldRank(2); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := cs[0].WorldRank(-1); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestDup(t *testing.T) {
	cs := worldViews(3)
	dups := make([]*Comm, 3)
	collective(cs, func(c *Comm) {
		d, err := c.Dup()
		if err != nil {
			t.Error(err)
			return
		}
		dups[c.Rank()] = d
	})
	ctx := dups[0].Ctx
	if ctx == cs[0].Ctx {
		t.Error("dup reused parent context")
	}
	for i, d := range dups {
		if d.Ctx != ctx {
			t.Fatalf("rank %d dup ctx %d != rank 0 ctx %d", i, d.Ctx, ctx)
		}
		if d.Rank() != i || d.Size() != 3 {
			t.Errorf("dup rank/size wrong at %d", i)
		}
	}
}

func TestSequentialDupsGetDistinctContexts(t *testing.T) {
	cs := worldViews(2)
	var first, second [2]*Comm
	collective(cs, func(c *Comm) {
		d1, _ := c.Dup()
		d2, _ := c.Dup()
		first[c.Rank()], second[c.Rank()] = d1, d2
	})
	if first[0].Ctx == second[0].Ctx {
		t.Error("two dups share a context")
	}
	if first[0].Ctx != first[1].Ctx || second[0].Ctx != second[1].Ctx {
		t.Error("ranks disagree on dup contexts")
	}
}

func TestDupCopiesInfo(t *testing.T) {
	cs := worldViews(1)
	cs[0].SetInfo("mpi_assert_no_any_tag", "true")
	d, err := cs[0].Dup()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Info("mpi_assert_no_any_tag"); !ok || v != "true" {
		t.Error("info hint not copied to dup")
	}
	if _, ok := d.Info("absent"); ok {
		t.Error("phantom info hint")
	}
}

func TestSplitEvenOdd(t *testing.T) {
	const n = 6
	cs := worldViews(n)
	subs := make([]*Comm, n)
	collective(cs, func(c *Comm) {
		s, err := c.Split(new(spinWaiter), c.Rank()%2, c.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		subs[c.Rank()] = s
	})
	for i, s := range subs {
		if s.Size() != n/2 {
			t.Fatalf("rank %d: split size %d, want %d", i, s.Size(), n/2)
		}
		if s.Rank() != i/2 {
			t.Errorf("rank %d: new rank %d, want %d", i, s.Rank(), i/2)
		}
		w, _ := s.WorldRank(s.Rank())
		if w != i {
			t.Errorf("rank %d: translates to world %d", i, w)
		}
	}
	if subs[0].Ctx == subs[1].Ctx {
		t.Error("even and odd halves share a context")
	}
	if subs[0].Ctx != subs[2].Ctx {
		t.Error("even half ranks disagree on context")
	}
	// Even ranks {0,2,4}: strided table expected.
	if subs[0].Table.Kind() != TableStrided {
		t.Errorf("even half table kind = %d, want strided", subs[0].Table.Kind())
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	const n = 4
	cs := worldViews(n)
	subs := make([]*Comm, n)
	collective(cs, func(c *Comm) {
		// Reverse order by key.
		s, err := c.Split(new(spinWaiter), 0, n-c.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		subs[c.Rank()] = s
	})
	for i, s := range subs {
		if want := n - 1 - i; s.Rank() != want {
			t.Errorf("world %d: new rank %d, want %d", i, s.Rank(), want)
		}
	}
}

func TestSplitUndefined(t *testing.T) {
	cs := worldViews(3)
	subs := make([]*Comm, 3)
	collective(cs, func(c *Comm) {
		color := 0
		if c.Rank() == 1 {
			color = Undefined
		}
		s, err := c.Split(new(spinWaiter), color, 0)
		if err != nil {
			t.Error(err)
			return
		}
		subs[c.Rank()] = s
	})
	if subs[1] != nil {
		t.Error("UNDEFINED rank got a communicator")
	}
	if subs[0] == nil || subs[0].Size() != 2 {
		t.Error("remaining ranks got wrong communicator")
	}
}

func TestCreate(t *testing.T) {
	const n = 4
	cs := worldViews(n)
	g := group.FromRanks([]int{3, 1}) // deliberately reordered
	subs := make([]*Comm, n)
	collective(cs, func(c *Comm) {
		s, err := c.Create(new(spinWaiter), g)
		if err != nil {
			t.Error(err)
			return
		}
		subs[c.Rank()] = s
	})
	if subs[0] != nil || subs[2] != nil {
		t.Error("non-members received a communicator")
	}
	if subs[3] == nil || subs[3].Rank() != 0 {
		t.Error("world 3 should be rank 0 of the new comm")
	}
	if subs[1] == nil || subs[1].Rank() != 1 {
		t.Error("world 1 should be rank 1 of the new comm")
	}
	if subs[1].Ctx != subs[3].Ctx {
		t.Error("created comm contexts disagree")
	}
}

// TestWaitGraphNamesOpenRendezvous: while a rendezvous is open, the
// wait graph names its context, its sequence number, how many ranks
// have arrived and which have not; once it closes, nothing is printed.
func TestWaitGraphNamesOpenRendezvous(t *testing.T) {
	cs := worldViews(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs[1].Exchange(new(spinWaiter), "b")
	}()
	reg := cs[0].reg
	graph := func() string {
		var b strings.Builder
		reg.WriteWaitGraph(&b)
		return b.String()
	}
	for !strings.Contains(graph(), "1/3") {
		runtime.Gosched()
	}
	if want := "rendezvous ctx=0 seq=0: 1/3 arrived, waiting on comm rank(s) [0 2]"; !strings.Contains(graph(), want) {
		t.Errorf("wait graph %q, want %q", graph(), want)
	}
	collective([]*Comm{cs[0], cs[2]}, func(c *Comm) {
		vals := c.Exchange(new(spinWaiter), c.Rank())
		if vals[0] != 0 || vals[1] != "b" || vals[2] != 2 {
			t.Errorf("rank %d: exchanged %v", c.Rank(), vals)
		}
	})
	<-done
	if g := graph(); g != "" {
		t.Errorf("closed rendezvous still printed: %q", g)
	}
}

func TestFree(t *testing.T) {
	cs := worldViews(1)
	if err := cs[0].Free(); err != nil {
		t.Fatal(err)
	}
	if err := cs[0].Free(); err != ErrFreed {
		t.Error("double free not detected")
	}
	if _, err := cs[0].Dup(); err != ErrFreed {
		t.Error("dup of freed comm accepted")
	}
	if _, err := cs[0].Split(new(spinWaiter), 0, 0); err != ErrFreed {
		t.Error("split of freed comm accepted")
	}
}

func TestRankTableKinds(t *testing.T) {
	cases := []struct {
		ranks []int
		kind  TableKind
	}{
		{[]int{0, 1, 2, 3}, TableIdentity},
		{[]int{4}, TableStrided},
		{[]int{2, 4, 6}, TableStrided},
		{[]int{5, 4, 3}, TableStrided}, // negative stride
		{[]int{0, 1, 3}, TableDense},
		{[]int{7, 2, 9}, TableDense},
	}
	for _, c := range cases {
		rt := BuildRankTable(group.FromRanks(c.ranks))
		if rt.Kind() != c.kind {
			t.Errorf("ranks %v: kind %d, want %d", c.ranks, rt.Kind(), c.kind)
		}
		for i, w := range c.ranks {
			if rt.World(i) != w {
				t.Errorf("ranks %v: World(%d) = %d, want %d", c.ranks, i, rt.World(i), w)
			}
		}
	}
}

// TestRankTableKindByConstructor: whichever way a group is built —
// FromRanks, Strided, Incl, Excl — an arithmetic progression (sizes 0
// and 1 included) gets the O(1) identity or strided table, anything
// else the dense one.
func TestRankTableKindByConstructor(t *testing.T) {
	world := group.WorldGroup(8)
	build := func(g *group.Group, err error) *group.Group {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		g    *group.Group
		kind TableKind
	}{
		{"FromRanks/empty", group.FromRanks(nil), TableIdentity},
		{"FromRanks/single", group.FromRanks([]int{5}), TableStrided},
		{"FromRanks/identity", group.FromRanks([]int{0, 1, 2}), TableIdentity},
		{"FromRanks/strided", group.FromRanks([]int{1, 4, 7}), TableStrided},
		{"FromRanks/irregular", group.FromRanks([]int{0, 1, 3}), TableDense},
		{"Strided/identity", group.Strided(4, 0, 1), TableIdentity},
		{"Strided/single", group.Strided(1, 3, 1), TableStrided},
		{"Strided/reversed", group.Strided(4, 7, -2), TableStrided},
		{"Incl/prefix", build(world.Incl([]int{0, 1, 2, 3})), TableIdentity},
		{"Incl/strided", build(world.Incl([]int{6, 4, 2})), TableStrided},
		{"Incl/irregular", build(world.Incl([]int{2, 0, 5})), TableDense},
		{"Excl/suffix", build(world.Excl([]int{0, 1})), TableStrided},
		{"Excl/odd", build(world.Excl([]int{1, 3, 5, 7})), TableStrided},
		{"Excl/all-but-one", build(world.Excl([]int{0, 1, 2, 3, 4, 6, 7})), TableStrided},
		{"Excl/irregular", build(world.Excl([]int{3})), TableDense},
	}
	for _, c := range cases {
		rt := BuildRankTable(c.g)
		if rt.Kind() != c.kind {
			t.Errorf("%s: kind %d, want %d", c.name, rt.Kind(), c.kind)
		}
		for i, w := range c.g.Ranks() {
			if rt.World(i) != w {
				t.Errorf("%s: World(%d) = %d, want %d", c.name, i, rt.World(i), w)
			}
		}
	}
}

// Property: every representation translates identically to the dense
// truth for arbitrary groups.
func TestRankTableProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var ranks []int
		for _, x := range raw {
			if !seen[int(x)] {
				seen[int(x)] = true
				ranks = append(ranks, int(x))
			}
		}
		if len(ranks) == 0 {
			return true
		}
		rt := BuildRankTable(group.FromRanks(ranks))
		if rt.Size() != len(ranks) {
			return false
		}
		for i, w := range ranks {
			if rt.World(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: splitting any world by modulo-k color yields consistent
// contexts within a color and disjoint contexts across colors.
func TestSplitContextProperty(t *testing.T) {
	f := func(sz, kk uint8) bool {
		n := int(sz%6) + 2
		k := int(kk%3) + 1
		cs := worldViews(n)
		subs := make([]*Comm, n)
		collective(cs, func(c *Comm) {
			s, err := c.Split(new(spinWaiter), c.Rank()%k, 0)
			if err == nil {
				subs[c.Rank()] = s
			}
		})
		ctxByColor := map[int]uint16{}
		for i, s := range subs {
			if s == nil {
				return false
			}
			color := i % k
			if prev, ok := ctxByColor[color]; ok && prev != s.Ctx {
				return false
			}
			ctxByColor[color] = s.Ctx
		}
		seen := map[uint16]bool{}
		for _, ctx := range ctxByColor {
			if seen[ctx] {
				return false
			}
			seen[ctx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
