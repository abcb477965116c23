package pop

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// inUnit reports whether every metric lies in [0,1] (no NaN sneaks in).
func inUnit(m Metrics) bool {
	for _, v := range []float64{m.LoadBalance, m.CommEff, m.SerEff, m.TransferEff, m.ParallelEff} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return false
		}
	}
	return true
}

// TestComputeProperties is the property test: on random inputs every
// efficiency stays in [0,1] and the hierarchy factors exactly
// (PE == LB × CommE, CommE == SerE × TE).
func TestComputeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) // deterministic: same cases every run
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(16)
		ranks := make([]Rank, n)
		for i := range ranks {
			useful := rng.Int63n(1 << 20)
			transport := rng.Int63n(1 << 18)
			// Total covers useful+transport plus random wait time, as a
			// real clock would.
			ranks[i] = Rank{
				Valid:     rng.Intn(8) != 0, // occasional dead slot
				Useful:    useful,
				Transport: transport,
				Total:     useful + transport + rng.Int63n(1<<19),
			}
		}
		m := Compute(ranks)
		if !inUnit(m) {
			t.Fatalf("trial %d: metric outside [0,1]: %+v (ranks %+v)", trial, m, ranks)
		}
		if diff := math.Abs(m.ParallelEff - m.LoadBalance*m.CommEff); diff > 1e-12 {
			t.Fatalf("trial %d: PE %g != LB×CommE %g", trial, m.ParallelEff, m.LoadBalance*m.CommEff)
		}
		if diff := math.Abs(m.CommEff - m.SerEff*m.TransferEff); diff > 1e-9 {
			t.Fatalf("trial %d: CommE %g != SerE×TE %g (%+v)", trial, m.CommEff, m.SerEff*m.TransferEff, m)
		}
	}
}

// TestComputeBalanced pins Load Balance to exactly 1.0 when every rank
// did identical useful work.
func TestComputeBalanced(t *testing.T) {
	ranks := make([]Rank, 4)
	for i := range ranks {
		ranks[i] = Rank{Valid: true, Useful: 5000, Transport: 100, Total: 6000}
	}
	m := Compute(ranks)
	if m.LoadBalance != 1.0 {
		t.Fatalf("balanced run: LB = %g, want exactly 1.0", m.LoadBalance)
	}
	if !inUnit(m) {
		t.Fatalf("metrics outside [0,1]: %+v", m)
	}
}

// TestComputeHandDerived checks the whole hierarchy against values
// derived by hand: useful {100,200,300,400}, every total 1000, no
// transport.
//
//	LB    = avg(250) / max(400)      = 0.625
//	CommE = max(400) / runtime(1000) = 0.4
//	ideal = total − transport = 1000, so SerE = 0.4, TE = 1
//	PE    = 0.625 × 0.4              = 0.25
func TestComputeHandDerived(t *testing.T) {
	ranks := []Rank{
		{Valid: true, Useful: 100, Total: 1000},
		{Valid: true, Useful: 200, Total: 1000},
		{Valid: true, Useful: 300, Total: 1000},
		{Valid: true, Useful: 400, Total: 1000},
	}
	m := Compute(ranks)
	want := Metrics{LoadBalance: 0.625, CommEff: 0.4, SerEff: 0.4, TransferEff: 1, ParallelEff: 0.25}
	if m != want {
		t.Fatalf("hand-derived case:\n got %+v\nwant %+v", m, want)
	}
}

// TestComputeExcludesInvalid verifies dead slots don't drag the math:
// a zero slot among balanced ranks must not lower Load Balance.
func TestComputeExcludesInvalid(t *testing.T) {
	ranks := []Rank{
		{Valid: true, Useful: 500, Total: 800},
		{}, // rank died by panic: zero slot, Valid false
		{Valid: true, Useful: 500, Total: 800},
	}
	m := Compute(ranks)
	if m.LoadBalance != 1.0 {
		t.Fatalf("LB = %g with a dead slot, want 1.0 (slot must be excluded)", m.LoadBalance)
	}
	if all := Compute(nil); all != (Metrics{}) {
		t.Fatalf("no ranks: metrics %+v, want zero", all)
	}
}

// TestComputeNoUseful pins the pure-communication conventions: LB and
// TE are 1, CommE and SerE (and hence PE) are 0.
func TestComputeNoUseful(t *testing.T) {
	ranks := []Rank{
		{Valid: true, Total: 1000, Transport: 200},
		{Valid: true, Total: 900, Transport: 100},
	}
	m := Compute(ranks)
	if m.LoadBalance != 1 || m.CommEff != 0 || m.SerEff != 0 || m.ParallelEff != 0 {
		t.Fatalf("pure-communication run: %+v", m)
	}
	if m.TransferEff != 0.8 {
		t.Fatalf("TE = %g, want (1000-200)/1000 = 0.8", m.TransferEff)
	}
}

// TestBuildReport checks the report assembly: counts, runtime, phase
// rows in entry order, and the text table rendering.
func TestBuildReport(t *testing.T) {
	ranks := []Rank{
		{Valid: true, Useful: 100, Total: 1000},
		{Valid: true, Useful: 300, Total: 1200, Transport: 50},
		{},
	}
	phases := []PhaseInput{
		{Name: "halo", Calls: 6, Ranks: []Rank{{Valid: true, Useful: 10, Total: 40}, {Valid: true, Useful: 20, Total: 60}}},
		{Name: "compute", Calls: 6, Ranks: []Rank{{Valid: true, Useful: 400, Total: 400}, {Valid: true, Useful: 400, Total: 400}}},
	}
	rep := Build(ranks, phases)
	if rep.Ranks != 2 || rep.Excluded != 1 {
		t.Fatalf("ranks=%d excluded=%d, want 2/1", rep.Ranks, rep.Excluded)
	}
	if rep.RuntimeCycles != 1200 || rep.MaxUsefulCycles != 300 || rep.AvgUsefulCycles != 200 {
		t.Fatalf("runtime=%d max=%d avg=%g", rep.RuntimeCycles, rep.MaxUsefulCycles, rep.AvgUsefulCycles)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "halo" {
		t.Fatalf("phases %+v, want entry order halo first", rep.Phases)
	}
	if pc := rep.Phases[1]; pc.Ranks != 2 || pc.UsefulCycles != 800 || pc.RuntimeCycles != 400 {
		t.Fatalf("compute phase row %+v", pc)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Parallel Efficiency", "Load Balance", "dead slot(s) excluded", "compute", "halo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
