package bench

import (
	"fmt"
	"io"
	"time"

	"gompi"
)

// VCIPoint is one measurement of the VCI-scaling sweep.
type VCIPoint struct {
	VCIs  int
	Lanes int // goroutines per rank
	// Rate is the serialization-bound message rate: total messages over
	// the virtual time of the busiest interface's traffic. This is the
	// paper-methodology number — host-independent and deterministic.
	Rate float64
	// MaxShare is the busiest interface's fraction of the receive
	// traffic (1.0 = everything serialized on one interface). Measured,
	// not assumed: if the per-communicator mapping failed to spread the
	// lanes, this stays at 1 and the rate shows no scaling.
	MaxShare float64
	// WallRate is the raw wall-clock rate of the same run. On a
	// many-core host it shows the real lock-level scaling; on a
	// single-core CI box it is flat and only sanity-checks the bound.
	WallRate float64
	Speedup  float64 // Rate relative to the 1-VCI row
}

// VCIScaling measures how the multi-threaded message rate scales with
// the number of virtual communication interfaces. Each rank runs
// `lanes` goroutines under MPI_THREAD_MULTIPLE, each ping-ponging on
// its own fully asserted communicator — so each lane's traffic rides
// its own VCI when enough interfaces exist.
//
// The headline rate is a serialization bound in virtual time:
// operations on one interface serialize behind its lock (the CH3
// global-critical-section pathology, scoped down to a channel), while
// operations on different interfaces proceed independently — the
// multi-VCI thesis. The busiest interface therefore bounds throughput:
// modeled elapsed = (its share of the traffic) x (total virtual cost),
// and the rate follows. Both inputs are measured from the run — the
// per-interface traffic split from the metrics registry and the
// per-message cost from the rank's virtual clock — so the sweep
// validates the real channel-selection machinery end to end.
func VCIScaling(vcis []int, lanes, msgs int) ([]VCIPoint, error) {
	if lanes <= 0 {
		lanes = 4
	}
	if msgs <= 0 {
		msgs = 4000
	}
	out := make([]VCIPoint, 0, len(vcis))
	for _, nv := range vcis {
		pt, err := vciRate(nv, lanes, msgs)
		if err != nil {
			return nil, fmt.Errorf("vci=%d: %w", nv, err)
		}
		out = append(out, pt)
	}
	for i := range out {
		if out[0].Rate > 0 {
			out[i].Speedup = out[i].Rate / out[0].Rate
		}
	}
	return out, nil
}

// vciRate runs one 2-rank multi-threaded ping-pong sweep.
func vciRate(nvci, lanes, msgs int) (VCIPoint, error) {
	cfg := gompi.Config{
		Device: gompi.DeviceCH4, Fabric: gompi.FabricInf, Build: gompi.BuildNoErrSingleIPO,
		ThreadMultiple: true, VCIs: nvci,
	}
	pt := VCIPoint{VCIs: nvci, Lanes: lanes}
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		// Each lane gets its own fully asserted communicator; context
		// ids advance per Dup, so with nvci >= lanes every lane lands
		// on a distinct private interface.
		comms := make([]*gompi.Comm, lanes)
		for g := range comms {
			c, err := w.DupOpt(gompi.CommOptions{Hints: gompi.CommHints{
				NoAnySource: true, NoAnyTag: true, ExactLength: true,
			}})
			if err != nil {
				return err
			}
			comms[g] = c
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		peer := 1 - p.Rank()
		beforeVCIs := perVCIMsgs(p)
		startCycles := p.VirtualCycles()
		start := time.Now()
		errs := make(chan error, lanes)
		for g := 0; g < lanes; g++ {
			go func(g int) {
				c := comms[g]
				out := []byte{byte(g)}
				in := make([]byte, 1)
				for i := 0; i < msgs; i++ {
					if p.Rank() == 0 {
						if err := c.Send(out, 1, gompi.Byte, peer, 0); err != nil {
							errs <- err
							return
						}
						if _, err := c.Recv(in, 1, gompi.Byte, peer, 0); err != nil {
							errs <- err
							return
						}
					} else {
						if _, err := c.Recv(in, 1, gompi.Byte, peer, 0); err != nil {
							errs <- err
							return
						}
						if err := c.Send(out, 1, gompi.Byte, peer, 0); err != nil {
							errs <- err
							return
						}
					}
				}
				errs <- nil
			}(g)
		}
		for g := 0; g < lanes; g++ {
			if e := <-errs; e != nil {
				return e
			}
		}
		if p.Rank() == 0 {
			wall := time.Since(start).Seconds()
			total := float64(2 * lanes * msgs) // sends + receives on this rank
			pt.WallRate = total / wall

			// The bottleneck interface's share of the receive traffic.
			after := perVCIMsgs(p)
			var sum, max int64
			for v := range after {
				d := after[v]
				if v < len(beforeVCIs) {
					d -= beforeVCIs[v]
				}
				sum += d
				if d > max {
					max = d
				}
			}
			if sum > 0 {
				pt.MaxShare = float64(max) / float64(sum)
			} else {
				pt.MaxShare = 1
			}
			// Serialization bound: the busiest channel carries MaxShare
			// of the work, and that slice is the critical path.
			cycles := float64(p.VirtualCycles() - startCycles)
			if cycles > 0 {
				pt.Rate = total / (pt.MaxShare * cycles / p.ClockHz())
			}
		}
		return w.Barrier()
	})
	return pt, err
}

// perVCIMsgs reads the rank's per-interface receive counters.
func perVCIMsgs(p *gompi.Proc) []int64 {
	vcis := p.Metrics().VCIs
	out := make([]int64, len(vcis))
	for i, v := range vcis {
		out[i] = v.Msgs
	}
	return out
}

// WriteVCIScaling renders the sweep.
func WriteVCIScaling(w io.Writer, pts []VCIPoint) {
	fmt.Fprintf(w, "Multi-VCI scaling: %d goroutines/rank ping-pong on hinted disjoint comms\n",
		lanesOf(pts))
	fmt.Fprintf(w, "%6s %12s %10s %12s %8s\n", "VCIs", "Rate", "MaxShare", "WallRate", "Speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %12s %10.2f %12s %7.2fx\n",
			p.VCIs, rateUnit(p.Rate), p.MaxShare, rateUnit(p.WallRate), p.Speedup)
	}
}

func lanesOf(pts []VCIPoint) int {
	if len(pts) == 0 {
		return 0
	}
	return pts[0].Lanes
}
