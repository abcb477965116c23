package flight

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome-trace (catapult) JSON object
// format: "X" complete events carry a timestamp and duration in
// microseconds; "M" metadata events name the threads.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	// No omitempty: a zero duration is a valid value for an "X"
	// event, and some catapult consumers reject X events without dur.
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level object-format document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders per-rank event logs as one Chrome-trace document
// loadable in chrome://tracing or Perfetto. Ranks map to threads of a
// single process; virtual cycles convert to microseconds at hz. The
// exporter is for post-run analysis, so unlike Record it may allocate
// freely.
func WriteChrome(w io.Writer, hz float64, perRank [][]Event) error {
	if hz <= 0 {
		return fmt.Errorf("trace: WriteChrome needs a positive clock rate, got %g", hz)
	}
	usPerCycle := 1e6 / hz
	n := 0
	for _, events := range perRank {
		n += len(events)
	}
	evs := make([]chromeEvent, 0, n+len(perRank)+1)
	// Name the process once: every rank is a thread of the one simulated
	// job (viewers otherwise show a bare pid 0).
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "gompi"},
	})
	for rank, events := range perRank {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
		// Cumulative phase-cycle split for the rank's counter track.
		var cumUseful, cumComm int64
		for _, e := range events {
			if e.Kind == Phase {
				// A phase region renders twice: an "X" span named after
				// the application's label, and a "C" counter sample so
				// the per-rank useful-vs-communication split shows as a
				// stacked area over virtual time.
				cumUseful += e.Useful
				cumComm += e.Comm
				evs = append(evs,
					chromeEvent{
						Name: "phase:" + e.Name,
						Cat:  "phase",
						Ph:   "X",
						Ts:   float64(e.Start) * usPerCycle,
						Dur:  float64(e.Dur()) * usPerCycle,
						Tid:  rank,
						Args: map[string]any{"useful_cycles": e.Useful, "comm_cycles": e.Comm},
					},
					chromeEvent{
						Name: fmt.Sprintf("phase cycles (rank %d)", rank),
						Cat:  "phase",
						Ph:   "C",
						Ts:   float64(e.End) * usPerCycle,
						Tid:  rank,
						Args: map[string]any{"useful": cumUseful, "comm": cumComm},
					})
				continue
			}
			args := map[string]any{"peer": e.Peer, "bytes": e.Bytes}
			if e.VCI >= 0 {
				args["vci"] = e.VCI
			}
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(),
				Cat:  "mpi",
				Ph:   "X",
				Ts:   float64(e.Start) * usPerCycle,
				Dur:  float64(e.Dur()) * usPerCycle,
				Tid:  rank,
				Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeDoc{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
	})
}
