package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gompi"
)

// spanID names one boundary the benchmark wraps. The order is the
// order of the api.* per-layer metrics.
type spanID uint8

const (
	spIter spanID = iota // one step of a workload body: the parent of every call span
	spIsend
	spIrecv
	spWaitall
	spPut
	spFlush
	spAllreduce
	spBcast
	spIallreduce
	spPcollInit
	spPcollReplay
	spMPI // an MPI operation seen through Config.Profiler (app_md)
	numSpanIDs
)

var spanNames = [numSpanIDs]string{
	spIter:        "iteration",
	spIsend:       "isend",
	spIrecv:       "irecv",
	spWaitall:     "waitall",
	spPut:         "put",
	spFlush:       "flush",
	spAllreduce:   "allreduce",
	spBcast:       "bcast",
	spIallreduce:  "iallreduce",
	spPcollInit:   "pcoll_init",
	spPcollReplay: "pcoll_replay",
	spMPI:         "mpi_op",
}

// span is one recorded interval on one rank. Times are host
// nanoseconds since the trial's launch; parent indexes the rank's own
// span slice (-1 for a root) and iter is the step index, which is the
// same on every rank for the same step.
type span struct {
	start, end int64
	parent     int32
	iter       int32
	id         spanID
}

// rankTracer records one rank's spans in memory. A nil tracer is the
// untraced run: begin and end reduce to a nil check, so one workload
// body serves both passes. Owner-goroutine only.
type rankTracer struct {
	t0    time.Time
	spans []span
	cur   int32 // open iteration span, -1 outside one
	iter  int32
}

func newRankTracer(capHint int) *rankTracer {
	return &rankTracer{spans: make([]span, 0, capHint), cur: -1}
}

// begin opens a span and returns its index for end.
func (t *rankTracer) begin(id spanID) int32 {
	if t == nil {
		return -1
	}
	return t.open(id)
}

func (t *rankTracer) open(id spanID) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: t.cur, iter: t.iter, start: int64(time.Since(t.t0))})
	return i
}

// end closes the span begin returned.
func (t *rankTracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// beginIter opens the iteration span of step it; call spans opened
// until endIter are its children.
func (t *rankTracer) beginIter(it int) int32 {
	if t == nil {
		return -1
	}
	t.cur = -1
	t.iter = int32(it)
	t.cur = t.open(spIter)
	return t.cur
}

func (t *rankTracer) endIter(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.cur = -1
}

// profiler adapts Config.Profiler to the tracer for workloads whose
// MPI calls sit inside library code the benchmark cannot wrap
// (internal/md): every MPI operation becomes an spMPI child of the
// open iteration span. Each rank touches only its own slot.
type profiler struct {
	ranks []*rankTracer
	open  []int32
	depth []int32 // public calls nest (Sendrecv waits); only the outermost is a span
}

func (p *profiler) Enter(rank int, _ gompi.TraceKind, _, _ int, _ int64) {
	if p.depth[rank] == 0 {
		p.open[rank] = p.ranks[rank].open(spMPI)
	}
	p.depth[rank]++
}

func (p *profiler) Exit(rank int, _ gompi.TraceKind, _, _ int, _ int64) {
	p.depth[rank]--
	if p.depth[rank] == 0 {
		p.ranks[rank].end(p.open[rank])
	}
}

// spanSummary is what the per-layer metrics are read from: the median
// duration of every call span kind over the timed steps, and the
// median self time of an iteration on rank 0 (its span minus the time
// its children cover).
type spanSummary struct {
	p50    [numSpanIDs]float64
	selfNs float64
}

// summarize reads the spans of the steps in [from, to).
func summarize(tracers []*rankTracer, from, to int) spanSummary {
	var durs [numSpanIDs][]float64
	var self []float64
	for r, t := range tracers {
		if t == nil {
			continue
		}
		var child []int64
		if r == 0 {
			child = make([]int64, len(t.spans))
		}
		for _, s := range t.spans {
			if int(s.iter) < from || int(s.iter) >= to || s.end == 0 {
				continue
			}
			durs[s.id] = append(durs[s.id], float64(s.end-s.start))
			if r == 0 && s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		if r == 0 {
			for i, s := range t.spans {
				if s.id == spIter && int(s.iter) >= from && int(s.iter) < to && s.end != 0 {
					self = append(self, float64(s.end-s.start-child[i]))
				}
			}
		}
	}
	var out spanSummary
	for id := range durs {
		out.p50[id] = median(durs[id])
	}
	out.selfNs = median(self)
	return out
}

// maxTraceEvents bounds a written trace file; the in-memory spans the
// metrics are computed from are never truncated.
const maxTraceEvents = 20000

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceStats is the Config.Stats snapshot stored beside the spans,
// folded to job level so a 2048-rank file stays readable.
type traceStats struct {
	Hz         float64                `json:"hz"`
	Ranks      int                    `json:"ranks"`
	Aggregate  gompi.MetricsSnapshot  `json:"aggregate"`
	Efficiency gompi.EfficiencyReport `json:"efficiency"`
}

// writeTrace writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one thread per rank, one complete event per span, host
// microseconds since launch, with the step index and the parent span's
// name in args. Ranks share the event budget equally.
func writeTrace(dir, workload string, tracers []*rankTracer, st *gompi.Stats) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	quota := maxTraceEvents / len(tracers)
	if quota < 8 {
		quota = 8
	}
	var events []chromeEvent
	for r, t := range tracers {
		if t == nil || len(events) >= maxTraceEvents {
			continue
		}
		n := 0
		for _, s := range t.spans {
			if s.end == 0 {
				continue
			}
			if n == quota {
				break
			}
			n++
			args := map[string]any{"iter": s.iter}
			if s.parent >= 0 {
				args["parent"] = spanNames[t.spans[s.parent].id]
			}
			events = append(events, chromeEvent{
				Name: spanNames[s.id], Ph: "X", Pid: 0, Tid: r,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Stats       traceStats    `json:"stats"`
	}{TraceEvents: events}
	if st != nil {
		doc.Stats = traceStats{Hz: st.Hz, Ranks: len(st.Ranks), Aggregate: st.Aggregate(), Efficiency: st.Efficiency()}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
