package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the tables the
// program reports from, and both to the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRule.MatchString(d.name) || !unitRule.MatchString(d.unit) {
				t.Errorf("%s %q (%q) breaks the naming rule", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%q is used twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better is %q", d.name, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
}

// TestQuickRun runs the whole command at -quick sizes and checks that
// every pass of every workload emits exactly the metrics BENCHMARK.json
// names, with no failed operation.
func TestQuickRun(t *testing.T) {
	m := readManifest(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", dir, "-json", jsonPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []passReport `json:"results"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2*len(m.Workloads) {
		t.Fatalf("%d passes reported, want 2 per workload", len(doc.Results))
	}
	for i, rep := range doc.Results {
		w := m.Workloads[i/2]
		want := m.EndToEnd
		if i%2 == 1 {
			want = m.PerLayer
		}
		if rep.Workload != w.Name || rep.Trace != i%2 {
			t.Fatalf("pass %d is %s trace %d, want %s trace %d", i, rep.Workload, rep.Trace, w.Name, i%2)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", rep.Workload, rep.Trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", rep.Workload, rep.Trace, len(rep.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := rep.Metrics[d.Name]
			if !ok {
				t.Errorf("%s trace %d: %s not emitted", rep.Workload, rep.Trace, d.Name)
			} else if v.Unit != d.Unit {
				t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json %q", rep.Workload, rep.Trace, d.Name, v.Unit, d.Unit)
			}
			if i%2 == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end %s is %v, must never be 0", rep.Workload, d.Name, v.Value)
			}
		}
		if rep.Trace == 1 {
			if _, err := os.Stat(filepath.Join(dir, "trace-"+rep.Workload+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", rep.Workload, err)
			}
		}
	}
}

// TestPreflightCatchesDrift perturbs each expected count in turn: the
// pre-flight must pass on the paper's numbers and fail on any other.
func TestPreflightCatchesDrift(t *testing.T) {
	if err := preflight(paperInvariants, paperAllOpts); err != nil {
		t.Fatalf("paper invariants: %v", err)
	}
	cases := []struct {
		name    string
		perturb func(inv []invariant, allOpts *int64)
	}{
		{"ch4 isend", func(inv []invariant, _ *int64) { inv[0].isend++ }},
		{"ch4 put", func(inv []invariant, _ *int64) { inv[0].put-- }},
		{"original put", func(inv []invariant, _ *int64) { inv[1].put++ }},
		{"ipo isend", func(inv []invariant, _ *int64) { inv[2].isend-- }},
		{"all opts", func(_ []invariant, a *int64) { *a++ }},
	}
	for _, c := range cases {
		inv := append([]invariant(nil), paperInvariants...)
		allOpts := int64(paperAllOpts)
		c.perturb(inv, &allOpts)
		if err := preflight(inv, allOpts); err == nil {
			t.Errorf("%s: a perturbed expectation passed the pre-flight", c.name)
		}
	}
}
