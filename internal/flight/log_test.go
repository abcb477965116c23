package flight

import (
	"strings"
	"testing"
	"testing/quick"

	"gompi/internal/vtime"
)

// vtimeT shortens literal conversions in the tests.
func vtimeT(v int) vtime.Time { return vtime.Time(v) }

func TestDisabledRecordsNothing(t *testing.T) {
	var l Log
	l.Record(Event{Kind: Send})
	if len(l.Events()) != 0 || l.Enabled() {
		t.Fatal("zero-value log recorded")
	}
}

func TestRecordAndSummarize(t *testing.T) {
	var l Log
	l.Enable(16)
	l.Record(Event{Kind: Send, Peer: 1, Bytes: 8, Start: 0, End: 100})
	l.Record(Event{Kind: Send, Peer: 2, Bytes: 8, Start: 100, End: 150})
	l.Record(Event{Kind: Recv, Peer: 1, Bytes: 8, Start: 150, End: 400})

	ev := l.Events()
	if len(ev) != 3 || ev[0].Dur() != 100 {
		t.Fatalf("events %v", ev)
	}
	s := l.Summarize()
	if s.Total != 3 || s.Cycles != 400 {
		t.Fatalf("summary %+v", s)
	}
	// recv has more cycles than send: must sort first.
	if s.Stats[0].Kind != Recv || s.Stats[0].MaxDur != 250 {
		t.Fatalf("stats %+v", s.Stats)
	}
	if s.Stats[1].Kind != Send || s.Stats[1].Count != 2 || s.Stats[1].Bytes != 16 {
		t.Fatalf("send stat %+v", s.Stats[1])
	}
}

func TestRingOverwrite(t *testing.T) {
	var l Log
	l.Enable(4)
	for i := 0; i < 10; i++ {
		l.Record(Event{Kind: Send, Start: vtimeT(i), End: vtimeT(i + 1)})
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("%d events", len(ev))
	}
	// Chronological: the oldest surviving first.
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatalf("events out of order: %v", ev)
		}
	}
	if ev[0].Start != 6 || l.Dropped() != 6 {
		t.Fatalf("oldest %d dropped %d", ev[0].Start, l.Dropped())
	}
}

func TestSummaryWrite(t *testing.T) {
	var l Log
	l.Enable(8)
	l.Record(Event{Kind: Coll, Bytes: 64, Start: 0, End: 5000})
	var sb strings.Builder
	l.Summarize().Write(&sb)
	for _, want := range []string{"collective", "5000", "total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}
}

// TestKindStrings: every kind of the one enum has its own name — the
// flush both views record is the one "rma-flush" — and Summarize lists
// each kind exactly once.
func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
	}
	if RmaFlush.String() != "rma-flush" {
		t.Errorf("RmaFlush is named %q", RmaFlush)
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind prints %q", got)
	}
	listed := map[Kind]bool{}
	for _, k := range summaryOrder {
		listed[k] = true
	}
	if len(summaryOrder) != int(numKinds) || len(listed) != int(numKinds) {
		t.Errorf("summaryOrder lists %d distinct of %d entries, want every one of %d kinds once",
			len(listed), len(summaryOrder), numKinds)
	}
}

// Property: total cycles in the summary equal the sum of event
// durations regardless of ring wrap.
func TestSummaryConservation(t *testing.T) {
	f := func(durs []uint8, capRaw uint8) bool {
		var l Log
		l.Enable(int(capRaw%16) + 1)
		now := vtimeT(0)
		var want int64
		n := cap(l.events)
		for i, d := range durs {
			l.Record(Event{Kind: Kind(uint8(i) % uint8(numKinds)), Start: now, End: now + vtime.Time(d)})
			now += vtime.Time(d)
		}
		// Expected: sum over the last min(len, cap) events.
		start := 0
		if len(durs) > n {
			start = len(durs) - n
		}
		for _, d := range durs[start:] {
			want += int64(d)
		}
		return l.Summarize().Cycles == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
