package bench

import (
	"strings"
	"testing"

	"gompi"
)

func TestTable1MatchesPaper(t *testing.T) {
	isend, put, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if isend.Counters.TotalInstr != 221 {
		t.Errorf("Isend total = %d, want 221", isend.Counters.TotalInstr)
	}
	if put.Counters.TotalInstr != 217 {
		t.Errorf("Put total = %d, want 217 (the paper's Table 1 rows sum to 217)", put.Counters.TotalInstr)
	}
	var sb strings.Builder
	WriteTable1(&sb, isend, put)
	for _, want := range []string{"Error checking", "74", "221", "MPI mandatory overheads"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFigure2LadderMonotone(t *testing.T) {
	isends, puts, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(isends) != len(BuildLadder) {
		t.Fatalf("got %d points", len(isends))
	}
	// Original must dwarf everything; the ch4 ladder must strictly
	// decrease.
	if isends[0].Counters.TotalInstr != 253 || puts[0].Counters.TotalInstr != 1342 {
		t.Errorf("original = %d/%d, want 253/1342",
			isends[0].Counters.TotalInstr, puts[0].Counters.TotalInstr)
	}
	for i := 2; i < len(isends); i++ {
		if isends[i].Counters.TotalInstr >= isends[i-1].Counters.TotalInstr {
			t.Errorf("isend ladder not decreasing at %d", i)
		}
		if puts[i].Counters.TotalInstr >= puts[i-1].Counters.TotalInstr {
			t.Errorf("put ladder not decreasing at %d", i)
		}
	}
	last := len(isends) - 1
	if isends[last].Counters.TotalInstr != 59 || puts[last].Counters.TotalInstr != 44 {
		t.Errorf("ipo = %d/%d, want 59/44",
			isends[last].Counters.TotalInstr, puts[last].Counters.TotalInstr)
	}
	var sb strings.Builder
	WriteFigure2(&sb, isends, puts)
	if !strings.Contains(sb.String(), "1342") {
		t.Error("figure 2 output missing original Put count")
	}
}

func TestMessageRatesOrdering(t *testing.T) {
	for _, fab := range []string{"ofi", "ucx", "inf"} {
		pts, err := MessageRates(fab, 300)
		if err != nil {
			t.Fatalf("%s: %v", fab, err)
		}
		if len(pts) != len(BuildLadder) {
			t.Fatalf("%s: %d points", fab, len(pts))
		}
		// Every optimization step must not slow either operation; the
		// endpoints must show a real gain.
		for i := 1; i < len(pts); i++ {
			if pts[i].IsendRate < pts[i-1].IsendRate*0.999 {
				t.Errorf("%s: isend rate fell at %s", fab, pts[i].Label)
			}
			if pts[i].PutRate < pts[i-1].PutRate*0.999 {
				t.Errorf("%s: put rate fell at %s", fab, pts[i].Label)
			}
		}
		last := len(pts) - 1
		if pts[last].IsendRate <= pts[0].IsendRate {
			t.Errorf("%s: no isend gain", fab)
		}
		if pts[last].PutRate <= pts[0].PutRate {
			t.Errorf("%s: no put gain", fab)
		}
	}
}

// TestRealNetworkGains pins the headline Figure 3 shape: ~50% Isend
// gain and ~4x Put gain on the OFI fabric between Original and the ipo
// build.
func TestRealNetworkGains(t *testing.T) {
	pts, err := MessageRates("ofi", 400)
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	isendGain := last.IsendRate / first.IsendRate
	putGain := last.PutRate / first.PutRate
	if isendGain < 1.3 || isendGain > 1.8 {
		t.Errorf("isend gain %.2fx, want ~1.5x", isendGain)
	}
	if putGain < 3.0 || putGain > 5.5 {
		t.Errorf("put gain %.2fx, want ~4x", putGain)
	}
}

// TestInfiniteNetworkSpread pins the Figure 5 shape: orders of
// magnitude between Original Put and the ipo build.
func TestInfiniteNetworkSpread(t *testing.T) {
	pts, err := MessageRates("inf", 300)
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.PutRate/first.PutRate < 20 {
		t.Errorf("infinite-network put spread only %.1fx", last.PutRate/first.PutRate)
	}
	// ipo Isend on the infinite network: 2.2 GHz / 59 instr ~ 37 M/s.
	if last.IsendRate < 30e6 || last.IsendRate > 45e6 {
		t.Errorf("ipo isend rate %.3g, want ~37M", last.IsendRate)
	}
}

// TestProposalLadderPeak pins the Figure 6 peak: the all-opts path at
// 16 instructions reaches ~137 M msg/s at 2.2 GHz (the paper reports
// 132.8M on their hardware).
func TestProposalLadderPeak(t *testing.T) {
	pts, err := ProposalLadder(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d ladder points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Rate < pts[i-1].Rate {
			t.Errorf("ladder rate fell at %s", pts[i].Label)
		}
	}
	peak := pts[len(pts)-1]
	if peak.Label != "all_opts" || peak.Instr != 16 {
		t.Errorf("peak = %+v, want all_opts at 16 instructions", peak)
	}
	if peak.Rate < 120e6 || peak.Rate > 145e6 {
		t.Errorf("peak rate %.4g msg/s, want ~137M", peak.Rate)
	}
	var sb strings.Builder
	WriteProposals(&sb, pts)
	if !strings.Contains(sb.String(), "all_opts") {
		t.Error("proposal output incomplete")
	}
}

func TestProposalSavingsRows(t *testing.T) {
	rows, base, err := ProposalSavings()
	if err != nil {
		t.Fatal(err)
	}
	if base != 59 {
		t.Errorf("baseline = %d, want 59", base)
	}
	want := map[string]int64{
		"glob_rank (3.1)":    11,
		"predef_comm (3.3)":  7,
		"no_proc_null (3.4)": 3,
		"no_req (3.5)":       10,
		"no_match (3.6)":     4,
		"all_opts (3.7)":     43,
	}
	for _, r := range rows {
		if w, ok := want[r.Name]; ok && r.Savings != w {
			t.Errorf("%s saved %d, want %d", r.Name, r.Savings, w)
		}
	}
	var sb strings.Builder
	WriteProposalSavings(&sb, rows, base)
	if !strings.Contains(sb.String(), "glob_rank") {
		t.Error("savings output incomplete")
	}
}

func TestNekSweepSmall(t *testing.T) {
	pts, err := NekSweep(NekSweepOptions{
		RankGrid: [3]int{2, 2, 1},
		Orders:   []int{3, 5},
		MaxEPerP: 8,
		Iters:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*4 {
		t.Fatalf("%d points", len(pts))
	}
	// At the smallest E/P, ch4 must win; performance must grow with
	// n/P for each order.
	for _, p := range pts {
		if p.EPerRank == 1 && p.Ratio <= 1.0 {
			t.Errorf("N=%d E/P=1: ratio %.3f <= 1", p.N, p.Ratio)
		}
		if p.PerfLite <= 0 || p.PerfStd <= 0 {
			t.Errorf("bad perf: %+v", p)
		}
	}
	var sb strings.Builder
	WriteNek(&sb, pts)
	if !strings.Contains(sb.String(), "Ratio") {
		t.Error("nek output incomplete")
	}
}

func TestLammpsSweepSmall(t *testing.T) {
	pts, err := LammpsSweep(LammpsSweepOptions{
		RankGrid: [3]int{2, 2, 2},
		Steps:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// Rates must rise toward the scaling limit; ch4's advantage must
	// grow; original's efficiency must fall faster. At the most
	// work-dominated points the two devices may tie (the paper: "away
	// from the strong-scale limit... little benefit"), so ch4 must
	// never be meaningfully slower anywhere and must win clearly at
	// the limit.
	for i, p := range pts {
		if p.RateCh4 <= 0 || p.RateOrig <= 0 {
			t.Fatalf("bad rates at %d: %+v", i, p)
		}
		if p.RateCh4 < p.RateOrig*0.995 {
			t.Errorf("nodes=%d: ch4 %.0f below orig %.0f", p.Nodes, p.RateCh4, p.RateOrig)
		}
	}
	if last := pts[len(pts)-1]; last.RateCh4 <= last.RateOrig*1.02 {
		t.Errorf("no clear win at the scaling limit: %+v", last)
	}
	if !(pts[len(pts)-1].SpeedupPct > pts[0].SpeedupPct) {
		t.Errorf("speedup should grow with scale: %+v", pts)
	}
	if !(pts[len(pts)-1].EffOrig < pts[len(pts)-1].EffCh4) {
		t.Errorf("original should lose efficiency faster: %+v", pts[len(pts)-1])
	}
	var sb strings.Builder
	WriteLammps(&sb, pts)
	if !strings.Contains(sb.String(), "Speedup") {
		t.Error("lammps output incomplete")
	}
}

func TestOSUSweepShape(t *testing.T) {
	pts, err := OSUSweep(gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricOFI}, 1<<14, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyUs < pts[i-1].LatencyUs*0.999 {
			t.Errorf("latency fell at %dB: %v -> %v", pts[i].Bytes, pts[i-1].LatencyUs, pts[i].LatencyUs)
		}
		if pts[i].BandwidthMBs <= pts[i-1].BandwidthMBs {
			t.Errorf("bandwidth not rising at %dB", pts[i].Bytes)
		}
	}
	// Small-message latency should be in the ~1 us ballpark (wire
	// latency + software path at 2.2 GHz).
	if pts[0].LatencyUs < 0.5 || pts[0].LatencyUs > 5 {
		t.Errorf("1B latency %v us", pts[0].LatencyUs)
	}
}
