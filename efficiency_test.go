package gompi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestEfficiencyImbalanced pins Load Balance on a deliberately
// imbalanced run: rank r charges (r+1)×100000 compute cycles and
// nothing else, then all ranks barrier so every clock ends at the
// slowest rank's. avg useful = 250000, max useful = 400000, so
// LB = 0.625 exactly — the same hand-derived value the internal/pop
// unit test pins, here produced end-to-end through RunStats.
func TestEfficiencyImbalanced(t *testing.T) {
	st, err := RunStats(4, Config{Device: DeviceCH4, Fabric: FabricOFI, RanksPerNode: 2},
		func(p *Proc) error {
			p.ChargeCompute(int64(p.Rank()+1) * 100000)
			return p.World().Barrier()
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Efficiency()
	if rep.Ranks != 4 || rep.Excluded != 0 {
		t.Fatalf("ranks=%d excluded=%d", rep.Ranks, rep.Excluded)
	}
	if rep.LoadBalance != 0.625 {
		t.Fatalf("LB = %g, want exactly 0.625 (avg 250000 / max 400000)", rep.LoadBalance)
	}
	if rep.AvgUsefulCycles != 250000 || rep.MaxUsefulCycles != 400000 {
		t.Fatalf("useful avg=%g max=%d", rep.AvgUsefulCycles, rep.MaxUsefulCycles)
	}
	checkUnit(t, rep.Metrics)
}

// checkUnit fails the test when any efficiency leaves [0,1].
func checkUnit(t *testing.T, m EfficiencyMetrics) {
	t.Helper()
	for name, v := range map[string]float64{
		"PE": m.ParallelEff, "LB": m.LoadBalance, "CommE": m.CommEff,
		"SerE": m.SerEff, "TE": m.TransferEff,
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s = %g outside [0,1] (%+v)", name, v, m)
		}
	}
}

// TestEfficiencyExcludesDeadSlots verifies the Valid flag does its job:
// a zero slot (as left by a rank that died by panic) is excluded from
// the efficiency math instead of read as a perfectly-idle rank.
func TestEfficiencyExcludesDeadSlots(t *testing.T) {
	st := &Stats{Hz: 2.2e9, Ranks: []RankStats{
		{Rank: 0, Valid: true, VirtualCycles: 1000, Counters: Counters{Compute: 800}},
		{Rank: 1}, // dead slot: Valid false, all zero
		{Rank: 2, Valid: true, VirtualCycles: 1000, Counters: Counters{Compute: 800}},
	}}
	rep := st.Efficiency()
	if rep.Ranks != 2 || rep.Excluded != 1 {
		t.Fatalf("ranks=%d excluded=%d, want 2 valid / 1 excluded", rep.Ranks, rep.Excluded)
	}
	if rep.LoadBalance != 1.0 {
		t.Fatalf("LB = %g with a dead slot, want 1.0", rep.LoadBalance)
	}
	var buf bytes.Buffer
	if err := st.WriteEfficiencyReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 dead slot(s) excluded") {
		t.Fatalf("report does not note the exclusion:\n%s", buf.String())
	}
}

// TestRunStatsMarksValid verifies teardown sets the flag on every slot
// a finished rank filled.
func TestRunStatsMarksValid(t *testing.T) {
	st, err := RunStats(2, Config{}, func(p *Proc) error { return p.World().Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range st.Ranks {
		if !r.Valid {
			t.Fatalf("rank %d finished but Valid=false", i)
		}
	}
}

// TestPhaseRegions exercises the phase API: accumulation across calls,
// nesting, useful/transport attribution, and the teardown snapshot.
func TestPhaseRegions(t *testing.T) {
	st, err := RunStats(2, Config{Device: DeviceCH4, RanksPerNode: 2},
		func(p *Proc) error {
			w := p.World()
			peer := 1 - p.Rank()
			buf := make([]byte, 256)
			for i := 0; i < 3; i++ {
				if err := p.Phase("compute", func() error {
					p.ChargeCompute(1000)
					return nil
				}); err != nil {
					return err
				}
			}
			p.PhaseBegin("outer")
			p.PhaseBegin("exchange")
			r, err := w.Irecv(buf, len(buf), Byte, peer, 7)
			if err != nil {
				return err
			}
			if err := w.Send(buf, len(buf), Byte, peer, 7); err != nil {
				return err
			}
			if _, err := r.Wait(); err != nil {
				return err
			}
			p.PhaseEnd()
			p.PhaseEnd()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for rank, rs := range st.Ranks {
		byName := map[string]PhaseStats{}
		for _, ph := range rs.Phases {
			byName[ph.Name] = ph
		}
		c, ok := byName["compute"]
		if !ok || c.Calls != 3 {
			t.Fatalf("rank %d: compute phase %+v (phases %+v)", rank, c, rs.Phases)
		}
		if c.UsefulCycles != 3000 || c.Cycles < 3000 {
			t.Fatalf("rank %d: compute attribution %+v, want 3000 useful", rank, c)
		}
		ex, ok := byName["exchange"]
		if !ok || ex.Calls != 1 || ex.MPIInstr == 0 || ex.UsefulCycles != 0 {
			t.Fatalf("rank %d: exchange phase %+v", rank, ex)
		}
		// The nested region's cycles also land in the enclosing one.
		outer := byName["outer"]
		if outer.Cycles < ex.Cycles || outer.MPIInstr < ex.MPIInstr {
			t.Fatalf("rank %d: outer %+v does not cover nested exchange %+v", rank, outer, ex)
		}
	}
	rep := st.Efficiency()
	if len(rep.Phases) != 3 {
		t.Fatalf("report has %d phase rows, want 3: %+v", len(rep.Phases), rep.Phases)
	}
	for _, ph := range rep.Phases {
		checkUnit(t, ph.Metrics)
	}
	// The compute phase was perfectly balanced across the two ranks.
	for _, ph := range rep.Phases {
		if ph.Name == "compute" && ph.LoadBalance != 1.0 {
			t.Fatalf("balanced compute phase LB = %g", ph.LoadBalance)
		}
	}
}

// TestPhaseEndUnmatchedPanics pins the contract on a stray PhaseEnd.
func TestPhaseEndUnmatchedPanics(t *testing.T) {
	err := Run(1, Config{}, func(p *Proc) error {
		defer func() {
			if recover() == nil {
				t.Error("PhaseEnd without PhaseBegin did not panic")
			}
		}()
		p.PhaseEnd()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhaseLeftOpenStillAttributed verifies teardown closes regions the
// body left open, so their cycles still reach the snapshot.
func TestPhaseLeftOpenStillAttributed(t *testing.T) {
	st, err := RunStats(1, Config{}, func(p *Proc) error {
		p.PhaseBegin("dangling")
		p.ChargeCompute(500)
		return nil // no PhaseEnd
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := st.Ranks[0].Phases
	if len(phases) != 1 || phases[0].Name != "dangling" || phases[0].UsefulCycles != 500 {
		t.Fatalf("dangling phase not closed at teardown: %+v", phases)
	}
}

// TestPhaseTraceEvents verifies phase regions land in the trace log and
// render into the Chrome document as spans plus counter tracks.
func TestPhaseTraceEvents(t *testing.T) {
	st, err := RunStats(1, Config{Trace: true}, func(p *Proc) error {
		return p.Phase("step", func() error {
			p.ChargeCompute(100)
			return p.World().Barrier()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	events := st.TraceEvents(0)
	var phase *TraceEvent
	for i := range events {
		if events[i].Kind.String() == "phase" {
			phase = &events[i]
		}
	}
	if phase == nil {
		t.Fatal("no phase event recorded")
	}
	if phase.Name != "step" || phase.Useful != 100 || phase.Comm <= 0 {
		t.Fatalf("phase event %+v", phase)
	}
	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	span, counter := false, false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "phase:step" {
			span = true
		}
		if e.Ph == "C" && strings.Contains(e.Name, "phase cycles") {
			counter = true
		}
	}
	if !span || !counter {
		t.Fatalf("chrome trace span=%v counter=%v, want both", span, counter)
	}
}

// TestPromEfficiencyGauges verifies the Prometheus exposition includes
// the run-level gauges and a labeled series per phase.
func TestPromEfficiencyGauges(t *testing.T) {
	st, err := RunStats(2, Config{}, func(p *Proc) error {
		return p.Phase("work", func() error {
			p.ChargeCompute(1000)
			return p.World().Barrier()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gompi_efficiency_parallel gauge",
		"gompi_efficiency_load_balance ",
		"gompi_efficiency_serialization ",
		"gompi_efficiency_transfer ",
		`gompi_efficiency_parallel{phase="work"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestEfficiencyJSONShape round-trips WriteEfficiencyJSON and checks
// the documented keys.
func TestEfficiencyJSONShape(t *testing.T) {
	st, err := RunStats(2, Config{}, func(p *Proc) error {
		return p.Phase("work", func() error {
			p.ChargeCompute(100)
			return p.World().Barrier()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteEfficiencyJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ranks       int      `json:"ranks"`
		ParallelEff *float64 `json:"parallel_efficiency"`
		LoadBalance *float64 `json:"load_balance"`
		Phases      []struct {
			Name string `json:"name"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ranks != 2 || doc.ParallelEff == nil || doc.LoadBalance == nil {
		t.Fatalf("efficiency JSON shape: %s", buf.String())
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Name != "work" {
		t.Fatalf("phase rows: %s", buf.String())
	}
}

// TestEfficiencyDeterministic pins that the whole report repeats
// bit-identically across runs — the property that lets two commits'
// efficiency fractions be compared to the digit.
func TestEfficiencyDeterministic(t *testing.T) {
	body := func(p *Proc) error {
		return p.Phase("work", func() error {
			p.ChargeCompute(int64(p.Rank()+1) * 5000)
			return p.World().Barrier()
		})
	}
	var first string
	for i := 0; i < 3; i++ {
		st, err := RunStats(4, Config{Device: DeviceCH4, RanksPerNode: 2}, body)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", st.Efficiency())
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}
