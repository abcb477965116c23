// Command benchmark is gompi's two-clock benchmark of record: seven
// closed-loop workloads measured in host time and in the model's
// virtual time, a ladder of isolated layer probes, and a pass traced
// at the boundaries the benchmark itself crosses. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 untraced pass, 1 traced pass and ladder, -1 both
	quick    bool
	jsonPath string
	outDir   string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a pass: the form the
// driver of BENCHMARK.json reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// passReport is a result with what -json adds to it.
type passReport struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Trials   int    `json:"trials"`
	result
}

type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Commit     string  `json:"git_commit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all seven)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of payload bytes, tags and the md velocity field")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time per workload and pass")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass and layer ladder (per-layer metrics); default both")
	fs.BoolVar(&o.quick, "quick", false, "one trial per pass, sizes / 50, scale_halo at an eighth of the ranks")
	fs.StringVar(&o.jsonPath, "json", "", "also write provenance and every result to this file")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory of the trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	todo := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []*workload{w}
	}

	// Serial host: with 2 Ps on the shared 2-core runner a 2-rank
	// exchange is bimodal (do the rank goroutines share a P?) and the
	// 8-rank collective loop is slower; with 1 P wall numbers mean the
	// CPU cost of the software path, serialised.
	runtime.GOMAXPROCS(1)

	prov := provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Commit: gitCommit(),
	}
	fmt.Fprintf(stdout, "# gompi benchmark: %s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d seconds=%g quick=%v commit=%s\n",
		prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPU, prov.Seed, prov.Seconds, prov.Quick, prov.Commit)

	if err := preflight(paperInvariants, paperAllOpts); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "# pre-flight: 221/217 253/1342 59/44 16 hold")

	in := makeInputs(o.seed)
	var reports []passReport
	ok := true
	for _, w := range todo {
		for _, tr := range []int{0, 1} {
			if o.trace >= 0 && o.trace != tr {
				continue
			}
			var rep passReport
			var err error
			if tr == 0 {
				rep, err = untracedPass(w, o, in, stdout)
			} else {
				rep, err = tracedPass(w, o, in, stdout)
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			ok = ok && rep.Correct
			reports = append(reports, rep)
			line, err := json.Marshal(rep.result)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if o.jsonPath != "" {
		doc := struct {
			Provenance provenance   `json:"provenance"`
			Results    []passReport `json:"results"`
		}{prov, reports}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: failed operations or checks; see the failed counts above")
		return 1
	}
	return 0
}

// untracedPass measures the end-to-end metrics of one workload: set-up
// alone for a tenth of the budget, then whole trials until it is spent.
func untracedPass(w *workload, o options, in *inputs, out io.Writer) (passReport, error) {
	pl := w.plan(o.quick)
	begin := time.Now()
	spent := func() float64 { return time.Since(begin).Seconds() }
	var setups []float64
	for len(setups) == 0 || (!o.quick && spent() < o.seconds/10) {
		t, err := runTrial(w, pl, in, false, true)
		if err != nil {
			return passReport{}, err
		}
		setups = append(setups, t.setupS)
	}
	var trials []*trial
	for len(trials) == 0 || (!o.quick && spent() < o.seconds) {
		t, err := runTrial(w, pl, in, false, false)
		if err != nil {
			return passReport{}, err
		}
		trials = append(trials, t)
		setups = append(setups, t.setupS)
	}
	rep := newReport(w, 0, trials)
	m := map[string]float64{
		"wall_ns_per_op": wallPerOp(trials),
		"virt_us_per_op": median(column(trials, func(t *trial) float64 { return t.virtUs })),
		"instr_per_op":   median(column(trials, func(t *trial) float64 { return float64(t.ctr.TotalInstr) / t.opsRank() })),
		"host_heap_mb":   median(column(trials, func(t *trial) float64 { return t.heapMB })),
		"setup_s":        median(setups),
	}
	rep.fill(endToEnd, m)
	fmt.Fprintf(out, "== %s: end to end, %d trials of %d ops, %d set-ups, %.1f s\n",
		w.name, len(trials), int(trials[0].opsTotal()), len(setups), spent())
	segs := stretches(trials)
	fmt.Fprintf(out, "   reference ns/op over %d stretches: min %.6g  q1 %.6g  median %.6g  q3 %.6g; as the clock read it, median of trials %.6g\n",
		len(segs), quantile(segs, 0), quantile(segs, .25), median(segs), quantile(segs, .75),
		median(column(trials, func(t *trial) float64 { return t.rawNs / t.opsTotal() })))
	rep.print(out, endToEnd)
	return rep, nil
}

// tracedPass measures the per-layer metrics: untraced and traced
// trials alternate for 0.6 of the budget (the ratio of their host times
// is the tracing overhead), scale_halo adds one launch each at scaleLo
// and scaleHi ranks for its exponent, and the ladder takes 0.3.
func tracedPass(w *workload, o options, in *inputs, out io.Writer) (passReport, error) {
	pl := w.plan(o.quick)
	begin := time.Now()
	var plain, traced []*trial
	for len(traced) == 0 || (!o.quick && time.Since(begin).Seconds() < 0.6*o.seconds) {
		for _, tr := range []bool{false, true} {
			t, err := runTrial(w, pl, in, tr, false)
			if err != nil {
				return passReport{}, err
			}
			if tr {
				traced = append(traced, t)
			} else {
				plain = append(plain, t)
			}
		}
	}
	m := make(map[string]float64)
	last := traced[len(traced)-1]
	layerMetrics(last, m)
	path, err := writeTrace(o.outDir, w.name, last.tracers, last.stats)
	if err != nil {
		return passReport{}, err
	}

	segs := stretches(plain)
	m["host.allocs_per_op"] = median(column(plain, func(t *trial) float64 { return t.mallocs / t.opsTotal() }))
	m["bench.trace_overhead_pct"] = 100 * (wallPerOp(traced)/wallPerOp(plain) - 1)
	m["bench.rounds"] = float64(len(segs))
	m["bench.wall_median_ns"] = median(segs)
	m["bench.wall_iqr_pct"] = 100 * (quantile(segs, .75) - quantile(segs, .25)) / median(segs)
	m["bench.wall_raw_ns"] = median(column(plain, func(t *trial) float64 { return t.rawNs / t.opsTotal() }))
	m["bench.host_slowdown"] = median(column(plain, func(t *trial) float64 { return t.rawNs / t.wallNs }))

	all := append(plain, traced...)
	if w.name == "scale_halo" {
		lo, err := runTrial(w, scalePlan(scaleLo, o.quick), in, false, false)
		if err != nil {
			return passReport{}, err
		}
		hi, err := runTrial(w, scalePlan(scaleHi, o.quick), in, false, false)
		if err != nil {
			return passReport{}, err
		}
		all = append(all, lo, hi)
		m["scale.wall_exp"] = math.Log(hi.segNs[0]/lo.segNs[0]) / math.Log(float64(scaleHi)/float64(scaleLo))
	}

	budget := time.Duration(0.3 * o.seconds * float64(time.Second))
	if o.quick {
		budget = 300 * time.Millisecond
	}
	rungs, err := runLadder(budget)
	if err != nil {
		return passReport{}, err
	}
	for k, v := range rungs {
		m[k] = v
	}

	rep := newReport(w, 1, all)
	if w.confirm != nil {
		rep.Attempted++
		if err := w.confirm(m); err != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(out, "   FAILED CHECK: %v\n", err)
		}
	}
	rep.Trials = len(traced)
	rep.fill(perLayer, m)
	fmt.Fprintf(out, "== %s: per layer, %d traced and %d untraced trials, trace in %s, %.1f s\n",
		w.name, len(traced), len(plain), path, time.Since(begin).Seconds())
	rep.print(out, perLayer)
	return rep, nil
}

func newReport(w *workload, trace int, trials []*trial) passReport {
	rep := passReport{Workload: w.name, Trace: trace, Trials: len(trials)}
	for _, t := range trials {
		rep.Attempted += t.attempted
		rep.Failed += t.failed
	}
	rep.Correct = rep.Failed == 0
	return rep
}

func (r *passReport) fill(defs []metricDef, m map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = value{m[d.name], d.unit}
	}
}

func (r *passReport) print(out io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(out, "   %-30s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "   %-30s %16d of %d\n", "failed", r.Failed, r.Attempted)
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without starting a process; the driver's
// checkout is not a repository, so "unknown" is a normal answer.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		buf, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(buf))
	}
	return s
}
