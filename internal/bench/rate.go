// Package bench holds the experiments cmd/repro, cmd/stats and the root
// Go benchmarks run: the instruction breakdowns (Table 1, Figure 2, the
// Section 3 savings), the message-rate drivers (Figures 3-6), the
// application sweeps (Figures 7-8), the 10K-rank scale table, the
// OSU-style latency/bandwidth view, the SpMV and multi-VCI sweeps, and
// the cmd/stats reference exchange. Every function runs the real
// library on the simulated fabrics and reports virtual-time results.
// Wall-clock and per-layer measurement is benchmark/'s job, not this
// package's.
package bench

import (
	"fmt"

	"gompi"
)

// BuildLadder is the Figure 2/3/4/5 configuration ladder, in
// presentation order.
var BuildLadder = []struct {
	Label  string
	Device gompi.DeviceKind
	Build  gompi.BuildKind
}{
	{"mpich/original", "original", "default"},
	{"mpich/ch4 (default)", "ch4", "default"},
	{"mpich/ch4 (no-err)", "ch4", "no-err"},
	{"mpich/ch4 (no-err-single)", "ch4", "no-err-single"},
	{"mpich/ch4 (no-err-single-ipo)", "ch4", "no-err-single-ipo"},
}

// RatePoint is one bar of a message-rate figure.
type RatePoint struct {
	Label     string
	IsendRate float64 // messages/second
	PutRate   float64
}

// MessageRates measures the Figure 3/4/5 bars on one fabric: the
// single-core issue rate of 1-byte MPI_ISEND and MPI_PUT under each
// build configuration.
func MessageRates(fabricName string, msgs int) ([]RatePoint, error) {
	if msgs <= 0 {
		msgs = 2000
	}
	out := make([]RatePoint, 0, len(BuildLadder))
	for _, bl := range BuildLadder {
		cfg := gompi.Config{Device: bl.Device, Fabric: gompi.FabricKind(fabricName), Build: bl.Build}
		isend, err := isendRate(cfg, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s isend: %w", bl.Label, err)
		}
		put, err := putRate(cfg, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s put: %w", bl.Label, err)
		}
		out = append(out, RatePoint{Label: bl.Label, IsendRate: isend, PutRate: put})
	}
	return out, nil
}

// isendRate measures the 1-byte nonblocking-send issue rate of rank 0.
func isendRate(cfg gompi.Config, msgs int) (float64, error) {
	var rate float64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		if p.Rank() == 0 {
			// Warm up one message so one-time costs stay out of the
			// steady-state measurement.
			if err := w.Send(buf, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			start := p.VirtualCycles()
			for i := 0; i < msgs; i++ {
				req, err := w.Isend(buf, 1, gompi.Byte, 1, 0)
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil { // eager: completes locally
					return err
				}
			}
			cycles := float64(p.VirtualCycles() - start)
			rate = float64(msgs) * p.ClockHz() / cycles
			return nil
		}
		rbuf := make([]byte, 1)
		for i := 0; i < msgs+1; i++ {
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return rate, err
}

// putRate measures the 1-byte MPI_PUT issue rate of rank 0 within one
// fence epoch.
func putRate(cfg gompi.Config, msgs int) (float64, error) {
	var rate float64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(64, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := []byte{1}
			if err := win.Put(buf, 1, gompi.Byte, 1, 0); err != nil { // warm-up
				return err
			}
			start := p.VirtualCycles()
			for i := 0; i < msgs; i++ {
				if err := win.Put(buf, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
			}
			cycles := float64(p.VirtualCycles() - start)
			rate = float64(msgs) * p.ClockHz() / cycles
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	return rate, err
}

// ProposalPoint is one bar of Figure 6.
type ProposalPoint struct {
	Label string
	Rate  float64 // messages/second
	Instr int64   // instructions on the issue path
}

// ProposalLadder measures the Figure 6 bars: the MPI-3.1 floor
// (minimal_pt2pt on the ipo build) and the cumulative standard
// proposals, ending at the fused MPI_ISEND_ALL_OPTS path, on the
// infinitely fast network.
func ProposalLadder(msgs int) ([]ProposalPoint, error) {
	if msgs <= 0 {
		msgs = 2000
	}
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricInf, Build: gompi.BuildNoErrSingleIPO}
	var pts []ProposalPoint
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(gompi.Comm1); err != nil {
			return err
		}
		pc := p.PredefComm(gompi.Comm1)
		buf := []byte{1}

		// The bars stack cumulatively, as the paper's Figure 6 does:
		// each step adds one proposal on top of the previous ones,
		// starting from the MPI-3.1 floor and ending at the fused
		// MPI_ISEND_ALL_OPTS path.
		opt := func(o gompi.SendOptions) func() error {
			return func() error {
				req, err := w.IsendOpt(buf, 1, gompi.Byte, 1, 0, o)
				if err != nil {
					return err
				}
				if req != nil {
					_, err = req.Wait()
				}
				return err
			}
		}
		type step struct {
			label string
			send  func() error
			comm  *gompi.Comm // where the receiver drains
		}
		steps := []step{
			{"minimal_pt2pt", opt(gompi.SendOptions{}), w},
			{"no_req", opt(gompi.SendOptions{NoReq: true}), w},
			{"no_match", opt(gompi.SendOptions{NoReq: true, NoMatch: true}), w},
			{"glob_rank", opt(gompi.SendOptions{NoReq: true, NoMatch: true, GlobalRank: true}), w},
			{"no_proc_null", opt(gompi.SendOptions{NoReq: true, NoMatch: true, GlobalRank: true, NoProcNull: true}), w},
			{"all_opts", func() error {
				return p.IsendAllOpts(gompi.Comm1, buf, 1)
			}, pc},
		}

		if p.Rank() == 0 {
			for _, st := range steps {
				before := p.Counters()
				if err := st.send(); err != nil { // warm-up + instr capture
					return err
				}
				instr := p.Counters().Sub(before).TotalInstr
				start := p.VirtualCycles()
				for i := 0; i < msgs; i++ {
					if err := st.send(); err != nil {
						return err
					}
				}
				cycles := float64(p.VirtualCycles() - start)
				pts = append(pts, ProposalPoint{
					Label: st.label,
					Rate:  float64(msgs) * p.ClockHz() / cycles,
					Instr: instr,
				})
				if err := st.comm.CommWaitall(); err != nil {
					return err
				}
			}
			return nil
		}
		// Receiver: messages arrive with heterogeneous match bits;
		// drain each phase in arrival order on the right communicator.
		for _, st := range steps {
			rbuf := make([]byte, 1)
			for i := 0; i < msgs+1; i++ {
				if _, err := st.comm.RecvNoMatch(rbuf, 1, gompi.Byte); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return pts, err
}
