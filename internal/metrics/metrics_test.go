package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gompi/internal/flight"
	"gompi/internal/hist"
)

func TestNoteAndSnapshot(t *testing.T) {
	var r Rank
	r.NetSend.Note(100)
	r.NetSend.Note(28)
	r.Eager.Note(128)
	r.Raise(&r.Match.UnexpectedMax, 5)
	r.Raise(&r.Match.UnexpectedMax, 3) // must not lower the high water
	r.Req.Allocs++
	r.Req.Reuses++
	r.Rma.Puts++

	var a Arrivals
	a.PoolHits[1]++
	a.UnexpectedMax = 4 // below the registry's own high water
	s := r.Snapshot()
	a.AddTo(&s)
	if s.NetSend.Msgs != 2 || s.NetSend.Bytes != 128 {
		t.Errorf("NetSend = %+v, want {2 128}", s.NetSend)
	}
	if s.Match.UnexpectedMax != 5 {
		t.Errorf("UnexpectedMax = %d, want 5", s.Match.UnexpectedMax)
	}
	if s.Pool.Hits[1] != 1 || s.Req.Reuses != 1 || s.Rma.Puts != 1 {
		t.Errorf("snapshot dropped counters: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	var a, b Rank
	a.ShmSend.Note(64)
	a.Raise(&a.Match.UnexpectedMax, 7)
	b.ShmRecv.Note(64)
	b.Raise(&b.Match.UnexpectedMax, 3)
	bs := b.Snapshot()
	bs.Match.BinHits = 2

	m := a.Snapshot().Merge(bs)
	if m.ShmSend.Bytes != 64 || m.ShmRecv.Bytes != 64 {
		t.Errorf("merge lost path bytes: %+v", m)
	}
	if m.Match.UnexpectedMax != 7 {
		t.Errorf("merged UnexpectedMax = %d, want max(7,3)=7", m.Match.UnexpectedMax)
	}
	if m.Match.BinHits != 2 {
		t.Errorf("merged BinHits = %d, want 2", m.Match.BinHits)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	var r Rank
	r.NetSend.Note(1)
	out, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"net_send", "shm_send", "match", "buffer_pool", "request_pool", "rma"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", key, out)
		}
	}
}

// observers finds every Path and hist.H of the registry by walking its
// fields, nested structs included, so one added later is driven and
// checked without being listed here.
func observers(t *testing.T, r *Rank) (paths []*Path, lats []*hist.H) {
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Type() {
			case reflect.TypeOf(Path{}), reflect.TypeOf(hist.H{}):
				if !f.CanInterface() {
					t.Fatalf("%s.%s is an unexported observer: Share and this walk cannot see it", v.Type(), v.Type().Field(i).Name)
				}
				switch o := f.Addr().Interface().(type) {
				case *Path:
					paths = append(paths, o)
				case *hist.H:
					lats = append(lats, o)
				}
			default:
				if f.Kind() == reflect.Struct {
					walk(f)
				}
			}
		}
	}
	walk(reflect.ValueOf(r).Elem())
	return paths, lats
}

// TestShareReachesEveryObserver: each Path and histogram carries its own
// mode, so one Share forgot would keep plain stores under
// MPI_THREAD_MULTIPLE — a silent race. Every one the walk finds must be
// shared afterwards (and the walk must find the ones Snapshot reports).
func TestShareReachesEveryObserver(t *testing.T) {
	var r Rank
	r.Share()
	paths, lats := observers(t, &r)
	if len(paths) < 12 || len(lats) < 8 {
		t.Fatalf("walk found %d paths and %d histograms, want at least 12 and 8", len(paths), len(lats))
	}
	for i, p := range paths {
		if !p.shared {
			t.Errorf("path %d of the registry is not shared after Share", i)
		}
	}
	for i, h := range lats {
		if !reflect.ValueOf(h).Elem().FieldByName("shared").Bool() {
			t.Errorf("histogram %d of the registry is not shared after Share", i)
		}
	}
	if !r.shared || !reflect.ValueOf(&r.Flight).Elem().FieldByName("shared").Bool() {
		t.Error("the registry's counters or flight ring are not shared after Share")
	}
}

// drive applies one seeded stream of every kind of note to r.
func drive(t *testing.T, r *Rank) {
	rng := rand.New(rand.NewSource(22))
	paths, lats := observers(t, r)
	rma := []*int64{&r.Rma.Puts, &r.Rma.Gets, &r.Rma.Accs, &r.Rma.GetAccs, &r.Rma.Flushes, &r.Rma.LockAlls, &r.Rma.Notifies}
	for i := 0; i < 5000; i++ {
		n := rng.Intn(1 << 16)
		paths[rng.Intn(len(paths))].Note(n)
		lats[rng.Intn(len(lats))].Observe(int64(n))
		r.Add(rma[rng.Intn(len(rma))], 1)
		r.Raise(&r.Match.UnexpectedMax, int64(n%97))
		r.Raise(&r.Match.PostedMax, int64(n%89))
		r.Add(&r.Req.Allocs, 1)
		if n%3 == 0 {
			r.Add(&r.Req.Reuses, 1)
		}
		r.NoteColl(rng.Intn(NumCollAlgos), int64(n))
		if n%2 == 0 {
			r.Add(&r.Sched.CacheHits, 1)
		} else {
			r.Add(&r.Sched.CacheMisses, 1)
		}
		r.Add(&r.Sched.PartitionsReady, int64(n%5))
		r.NotePeerState(n%11 == 0, int64(n%256))
		r.Flight.Record(flight.Kind(n%8), int64(i), n%4, n, 0)
		if n%64 == 0 {
			r.NotePark(int64(i), n%4, 0)
		}
	}
	r.Publish(5000)
}

// TestSingleVsSharedRank: the registry gives identical snapshots, park
// clock and flight dump in single-writer and shared mode.
func TestSingleVsSharedRank(t *testing.T) {
	var single, shared Rank
	shared.Share()
	drive(t, &single)
	drive(t, &shared)
	if a, b := single.Snapshot(), shared.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("single-writer and shared registries differ:\n%+v\n%+v", a, b)
	}
	if single.Snapshot().Rma.Puts == 0 || single.Snapshot().Lat.ReqLife.Count == 0 {
		t.Fatal("the stream noted nothing")
	}
	var da, db bytes.Buffer
	single.Flight.Dump(&da, "r")
	shared.Flight.Dump(&db, "r")
	if da.String() != db.String() || single.ParkClock.Load() != shared.ParkClock.Load() {
		t.Fatalf("dumps differ:\n%s\n%s", da.String(), db.String())
	}
}

// TestSharedRankConcurrent: 8 goroutines note into one shared registry
// while a ninth snapshots it (run under -race); nothing is lost.
func TestSharedRankConcurrent(t *testing.T) {
	const writers, per = 8, 2000
	var r Rank
	r.Share()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.NetSend.Note(8)
				r.Add(&r.Rma.Puts, 1)
				r.Raise(&r.Match.PostedMax, int64(i))
				r.Lat.ReqLife.Observe(int64(i))
				r.Flight.Record(flight.SendEager, int64(i), 1, 8, 0)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.NetSend != (PathStat{writers * per, 8 * writers * per}) || s.Rma.Puts != writers*per ||
		s.Match.PostedMax != per-1 || s.Lat.ReqLife.Count != writers*per {
		t.Fatalf("shared registry lost notes: %+v", s)
	}
}

// BenchmarkNote is the ladder's metrics.note_ns probe, in both modes.
func BenchmarkNote(b *testing.B) {
	for _, mode := range []string{"owner", "shared"} {
		b.Run(mode, func(b *testing.B) {
			var m Rank
			if mode == "shared" {
				m.Share()
			}
			for i := 0; i < b.N; i++ {
				m.NetSend.Note(8)
			}
		})
	}
}

// leaf is one int64 of a registry struct, named by its field path.
type leaf struct {
	name string
	p    *int64
}

// leaves lists every int64 under v — nested structs and arrays
// included, in declaration order — found by reflection, not by walk.
func leaves(name string, v reflect.Value) []leaf {
	switch v.Kind() {
	case reflect.Int64:
		return []leaf{{name, (*int64)(v.Addr().UnsafePointer())}}
	case reflect.Array:
		var out []leaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, leaves(fmt.Sprintf("%s[%d]", name, i), v.Index(i))...)
		}
		return out
	case reflect.Struct:
		var out []leaf
		for i := 0; i < v.NumField(); i++ {
			out = append(out, leaves(name+"."+v.Type().Field(i).Name, v.Field(i))...)
		}
		return out
	}
	return nil
}

// TestWalkVisitsEveryCounter: walk is the registry's one list of
// counters. It must visit every int64 of Counts exactly once — paths'
// Msgs and Bytes included — paired with the same counter of the other
// side, live or frozen, under a series name no other counter has; and
// walkLat must visit every histogram of Lat exactly once.
func TestWalkVisitsEveryCounter(t *testing.T) {
	var s, o Snapshot
	var r Rank
	want := leaves("Counts", reflect.ValueOf(&s.Counts).Elem())
	frozen := leaves("Counts", reflect.ValueOf(&o.Counts).Elem())
	live := leaves("Counts", reflect.ValueOf(&r.Counts).Elem())
	if len(want) < 50 || len(live) != len(want) {
		t.Fatalf("reflection found %d frozen and %d live counters", len(want), len(live))
	}
	idx := map[*int64]int{}
	for i, l := range want {
		idx[l.p] = i
	}
	visits := make([]int, len(want))
	series := map[Series]string{}
	check := func(c Series, x *int64, y *int64, other []leaf) {
		i, ok := idx[x]
		if !ok {
			t.Fatalf("walk visited %v, which is no counter of Counts", c)
		}
		visits[i]++
		if y != other[i].p {
			t.Errorf("walk pairs %s with a different counter", want[i].name)
		}
		if prev, dup := series[c]; dup && prev != want[i].name {
			t.Errorf("%s and %s are both exported as %v", prev, want[i].name, c)
		}
		series[c] = want[i].name
	}
	walk(&s.Counts, &o.Counts, nil, func(c Series, x, y *int64) { check(c, x, y, frozen) })
	walk(&s.Counts, &r.Counts, nil, func(c Series, x, y *int64) { check(c, x, y, live) })
	for i, n := range visits {
		if n != 2 {
			t.Errorf("two walks visited %s %d times, want 2", want[i].name, n)
		}
	}

	var l LatSnapshot
	v := reflect.ValueOf(&l).Elem()
	hists := map[*hist.Snapshot]string{}
	for i := 0; i < v.NumField(); i++ {
		hists[v.Field(i).Addr().Interface().(*hist.Snapshot)] = v.Type().Field(i).Name
	}
	seen := map[string]int{}
	walkLat(&l, &r.Lat, func(name string, x *hist.Snapshot, y *hist.H) {
		f, ok := hists[x]
		if !ok {
			t.Fatalf("walkLat visited %s, which is no histogram of Lat", name)
		}
		seen[f]++
		if y != reflect.ValueOf(&r.Lat).Elem().FieldByName(f).Addr().Interface() {
			t.Errorf("walkLat pairs %s with a different live histogram", f)
		}
	})
	for _, f := range hists {
		if seen[f] != 1 {
			t.Errorf("walkLat visited %s %d times, want 1", f, seen[f])
		}
	}
}

// TestMergeSumsAndMaxes: merging a snapshot with itself doubles every
// counter except the high waters, which stay.
func TestMergeSumsAndMaxes(t *testing.T) {
	var s Snapshot
	all := leaves("Counts", reflect.ValueOf(&s.Counts).Elem())
	for i, l := range all {
		*l.p = int64(i + 1)
	}
	m := s.Merge(s)
	highs := map[string]bool{"Counts.Match.UnexpectedMax": true, "Counts.Match.PostedMax": true, "Counts.Peers.MaxStateBytes": true}
	for i, l := range leaves("Counts", reflect.ValueOf(&m.Counts).Elem()) {
		want := 2 * int64(i+1)
		if highs[l.name] {
			want = int64(i + 1)
		}
		if *l.p != want {
			t.Errorf("merged %s = %d, want %d", l.name, *l.p, want)
		}
	}
}
