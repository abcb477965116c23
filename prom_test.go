package gompi

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gompi/internal/hist"
)

// TestPromExportsEveryCounter: WriteProm renders the whole snapshot.
// Every counter of one rank's snapshot, and every statistic a latency
// summary shows (p50/p90/p99, sum, count), gets a distinct value, found
// by reflection; each value must come out as exactly one series of that
// rank. The per-VCI and per-algorithm slices stay out of the export.
// The summary, path, one-sided, matching, schedule and park series
// keep their names and labels.
func TestPromExportsEveryCounter(t *testing.T) {
	var m MetricsSnapshot
	want := map[int64]string{}
	next := int64(1000)
	set := func(name string, v reflect.Value) {
		next++
		v.SetInt(next)
		want[next] = name
	}
	var fill func(name string, v reflect.Value)
	fill = func(name string, v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeOf(hist.Snapshot{}):
			for _, f := range []string{"P50", "P90", "P99", "Sum", "Count"} {
				set(name+"."+f, v.FieldByName(f))
			}
		case v.Kind() == reflect.Int64:
			set(name, v)
		case v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
			}
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	fill("", reflect.ValueOf(&m).Elem())
	if len(want) < 90 {
		t.Fatalf("reflection found %d values to export", len(want))
	}
	st := &Stats{Ranks: []RankStats{{Rank: 7, Metrics: m}}}
	var buf bytes.Buffer
	if err := st.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	got := map[int64]int{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); strings.Contains(line, `rank="7"`) && len(f) == 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				got[v]++
			}
		}
	}
	for v, name := range want {
		if got[v] != 1 {
			t.Errorf("snapshot%s = %d appears in %d series of rank 7, want 1", name, v, got[v])
		}
	}
	for _, s := range []string{
		`gompi_post_match_cycles{rank="7",quantile="0.5"}`, `gompi_unexpected_residency_cycles_sum{rank="7"}`,
		`gompi_rendezvous_rtt_cycles_count{rank="7"}`, `gompi_request_lifetime_cycles{rank="7",quantile="0.9"}`,
		`gompi_wait_park_cycles{rank="7",quantile="0.99"}`, `gompi_rma_epoch_flush_cycles_sum{rank="7"}`,
		`gompi_rma_notify_wait_cycles_count{rank="7"}`, `gompi_path_msgs_total{rank="7",path="self"}`,
		`gompi_path_bytes_total{rank="7",path="am_recv"}`, `gompi_rma_ops_total{rank="7",op="get_accumulate"}`,
		`gompi_match_searches_total{rank="7"}`, `gompi_match_bin_ops_total{rank="7"}`,
		`gompi_unexpected_queue_max{rank="7"}`, `gompi_posted_queue_max{rank="7"}`,
		`gompi_sched_cache_hits_total{rank="7"}`, `gompi_sched_cache_misses_total{rank="7"}`,
		`gompi_partitions_ready_total{rank="7"}`, `gompi_parks_total{rank="7"}`,
		"# TYPE gompi_path_msgs_total counter", "# TYPE gompi_wait_park_cycles summary",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("prom output lost %q", s)
		}
	}
}
