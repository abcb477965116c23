package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gompi"
)

// TestExchangeBalance pins the tentpole's conservation property: on
// both devices, aggregate send bytes equal aggregate receive bytes on
// every transport path of the 4-rank exchange.
func TestExchangeBalance(t *testing.T) {
	for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			st, err := ExchangeStats(gompi.Config{Device: dev}, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckExchangeBalance(st); err != nil {
				t.Fatal(err)
			}
			agg := st.Aggregate()
			// 4 ranks x 2 rounds x 4 destinations = 32 sends total,
			// split across self/shm/net by locality.
			total := agg.Self.Msgs + agg.ShmRecv.Msgs + agg.NetRecv.Msgs
			if total != 32 {
				t.Fatalf("delivered %d messages, want 32", total)
			}
			if dev == gompi.DeviceCH4 {
				// 2 ranks per node: each rank's 2 remote peers ride the
				// netmod, the on-node peer the shmmod, itself the
				// self-loop.
				if agg.Self.Msgs != 8 || agg.ShmRecv.Msgs != 8 || agg.NetRecv.Msgs != 16 {
					t.Fatalf("locality split self=%d shm=%d net=%d, want 8/8/16",
						agg.Self.Msgs, agg.ShmRecv.Msgs, agg.NetRecv.Msgs)
				}
				// The large round crosses every profile's eager limit.
				if agg.Eager.Msgs == 0 || agg.Rndv.Msgs == 0 {
					t.Fatalf("protocol split eager=%d rndv=%d, want both nonzero",
						agg.Eager.Msgs, agg.Rndv.Msgs)
				}
				if agg.Match.BinHits == 0 || agg.Match.WildHits != 0 {
					t.Fatalf("ch4 match hits bin=%d wild=%d, want binned only",
						agg.Match.BinHits, agg.Match.WildHits)
				}
			} else {
				// The baseline has no locality dispatch: everything is a
				// netmod AM packet matched in software (Linear mode, so
				// every hit is a wildcard-walk hit).
				if agg.Self.Msgs != 0 || agg.ShmRecv.Msgs != 0 || agg.NetRecv.Msgs != 32 {
					t.Fatalf("baseline split self=%d shm=%d net=%d, want 0/0/32",
						agg.Self.Msgs, agg.ShmRecv.Msgs, agg.NetRecv.Msgs)
				}
				if agg.Match.WildHits == 0 || agg.Match.BinHits != 0 {
					t.Fatalf("baseline match hits bin=%d wild=%d, want wildcard only",
						agg.Match.BinHits, agg.Match.WildHits)
				}
				if agg.Req.Allocs == 0 {
					t.Fatal("baseline exchanged without locked-pool request allocs")
				}
			}
		})
	}
}

// TestExchangeStatsJSON round-trips the full snapshot through JSON and
// checks the documented key shape.
func TestExchangeStatsJSON(t *testing.T) {
	st, err := ExchangeStats(gompi.Config{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Hz    float64 `json:"hz"`
		Ranks []struct {
			Rank    int `json:"rank"`
			Metrics struct {
				NetSend struct {
					Bytes int64 `json:"bytes"`
				} `json:"net_send"`
			} `json:"metrics"`
			VirtualCycles int64 `json:"virtual_cycles"`
		} `json:"ranks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if doc.Hz <= 0 || len(doc.Ranks) != ExchangeRanks {
		t.Fatalf("hz=%g ranks=%d", doc.Hz, len(doc.Ranks))
	}
	for _, r := range doc.Ranks {
		if r.Metrics.NetSend.Bytes == 0 || r.VirtualCycles == 0 {
			t.Fatalf("rank %d snapshot empty: %+v", r.Rank, r)
		}
	}
}

// checkMetrics fails when any of the five efficiencies leaves [0,1].
func checkMetrics(t *testing.T, where string, m gompi.EfficiencyMetrics) {
	t.Helper()
	for name, v := range map[string]float64{
		"PE": m.ParallelEff, "LB": m.LoadBalance, "CommE": m.CommEff,
		"SerE": m.SerEff, "TE": m.TransferEff,
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s: %s = %g outside [0,1]", where, name, v)
		}
	}
}

// TestExchangeEfficiencyReport is the acceptance criterion: RunStats on
// the reference 4-rank, 2-per-node exchange yields a full POP report —
// every metric in [0,1], all four ranks valid, and per-phase rows for
// the exchange's named regions.
func TestExchangeEfficiencyReport(t *testing.T) {
	for _, dev := range []gompi.DeviceKind{gompi.DeviceCH4, gompi.DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			st, err := ExchangeStats(gompi.Config{Device: dev}, 1024)
			if err != nil {
				t.Fatal(err)
			}
			rep := st.Efficiency()
			if rep.Ranks != ExchangeRanks || rep.Excluded != 0 {
				t.Fatalf("ranks=%d excluded=%d", rep.Ranks, rep.Excluded)
			}
			checkMetrics(t, "run", rep.Metrics)
			if rep.ParallelEff <= 0 {
				t.Fatalf("PE = %g, want > 0 (the workload charges compute)", rep.ParallelEff)
			}
			byName := map[string]bool{}
			for _, ph := range rep.Phases {
				byName[ph.Name] = true
				checkMetrics(t, "phase "+ph.Name, ph.Metrics)
				if ph.Ranks != ExchangeRanks {
					t.Fatalf("phase %s covers %d ranks", ph.Name, ph.Ranks)
				}
			}
			for _, want := range []string{"post", "exchange", "compute"} {
				if !byName[want] {
					t.Fatalf("report missing phase %q (have %v)", want, byName)
				}
			}
			var buf bytes.Buffer
			if err := st.WriteEfficiencyReport(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, want := range []string{"Parallel Efficiency", "exchange", "compute"} {
				if !strings.Contains(out, want) {
					t.Fatalf("rendered report missing %q:\n%s", want, out)
				}
			}
		})
	}
}
