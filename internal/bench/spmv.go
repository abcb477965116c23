package bench

import (
	"fmt"
	"io"

	"gompi"
)

// The SpMV halo-exchange sweep: the declared-shape communication
// benchmark. A banded sparse matrix-vector product on a 1-D periodic
// process ring exchanges boundary halos with both neighbors every
// iteration, then computes. The same exchange is driven three ways:
//
//   percall     — fresh Isend/Irecv requests every iteration, the
//                 textbook MPI-1 pattern. Pays argument validation,
//                 request allocation, and matching setup per call.
//   persistent  — MPI_NEIGHBOR_ALLGATHER_INIT once, Start/Wait per
//                 iteration. The schedule DAG is compiled at Init and
//                 replayed; per-iteration cost is the wire time plus a
//                 Start that validates nothing.
//   partitioned — MPI-4 PsendInit/PrecvInit with Pready per partition,
//                 interleaved with the compute: each slice of the halo
//                 is published the moment the rows feeding it are done,
//                 so communication overlaps the compute phase instead
//                 of waiting behind it.
//
// The sweep reports per-iteration virtual latency (slowest rank) and
// per-iteration charged MPI instructions (job-wide), the two axes on
// which the paper's Section 4 charges per-call software overhead.

// SpmvPoint is one (mode, halo size) measurement.
type SpmvPoint struct {
	Mode      string `json:"mode"`
	HaloBytes int    `json:"halo_bytes"` // per-neighbor halo payload
	// Partitions and Chunks describe the partitioned mode's declared
	// shape: user partitions and the wire chunks they aggregated into.
	Partitions int `json:"partitions,omitempty"`
	Chunks     int `json:"chunks,omitempty"`
	Iters      int `json:"iters"`
	// LatencyUs is the slowest rank's virtual time per iteration,
	// including the (identical) modeled compute phase.
	LatencyUs float64 `json:"latency_us"`
	// MPIInstr is the job-wide charged MPI instruction count per
	// iteration — error-check, thread-check, call, redundant, and
	// mandatory categories; compute and transport cycles excluded.
	MPIInstr int64 `json:"mpi_instr"`
}

// spmvRanks is the ring geometry: 4 ranks, 2 per node, so each rank
// has one shm-reachable neighbor and one network neighbor.
const spmvRanks = 4

// spmvIters is the measured iteration count per point.
const spmvIters = 32

// SpmvSweep measures the halo exchange in all three modes at each halo
// size. Sizes must be multiples of partitions; nil selects defaults.
func SpmvSweep(sizes []int, partitions int) ([]SpmvPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{1024, 4096}
	}
	if partitions <= 0 {
		partitions = 4
	}
	var out []SpmvPoint
	for _, n := range sizes {
		for _, mode := range []string{"percall", "persistent", "partitioned"} {
			pt, err := spmvPoint(mode, n, partitions)
			if err != nil {
				return nil, fmt.Errorf("spmv %s n=%d: %w", mode, n, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// spmvComputeCycles is the modeled SpMV compute per iteration for a
// given halo width — identical across modes, so latency differences
// isolate communication overhead and overlap.
func spmvComputeCycles(halo int) int64 { return int64(4 * halo) }

// spmvPoint runs one mode at one halo size: an untimed warmup
// iteration (connection setup, schedule compilation, pool warming),
// then spmvIters measured iterations.
func spmvPoint(mode string, halo, partitions int) (SpmvPoint, error) {
	if halo%partitions != 0 {
		return SpmvPoint{}, fmt.Errorf("halo %d not divisible by %d partitions", halo, partitions)
	}
	cfg := gompi.Config{
		RanksPerNode: 2, Fabric: gompi.FabricOFI, EagerPeers: true,
	}
	lat := make([]int64, spmvRanks)
	instr := make([]int64, spmvRanks)
	chunks := make([]int, spmvRanks)
	var hz float64
	_, err := gompi.RunStats(spmvRanks, cfg, func(p *gompi.Proc) error {
		if p.Rank() == 0 {
			hz = p.ClockHz()
		}
		cc, err := p.World().CartCreate([]int{spmvRanks}, []bool{true})
		if err != nil {
			return err
		}
		left, right, err := cc.Shift(0, 1) // recv from left, send to right
		if err != nil {
			return err
		}
		send := make([]byte, halo)
		recv := make([]byte, 2*halo) // block 0 from left, block 1 from right
		for i := range send {
			send[i] = byte(p.Rank() + i)
		}
		compute := spmvComputeCycles(halo)

		// iter runs one halo exchange + compute in the chosen mode;
		// built once so the warmup and measured loops share it.
		var iter func() error
		switch mode {
		case "percall":
			iter = func() error {
				p.ChargeCompute(compute)
				reqs := make([]*gompi.Request, 0, 4)
				r, err := cc.Irecv(recv[:halo], halo, gompi.Byte, left, 0)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
				r, err = cc.Irecv(recv[halo:], halo, gompi.Byte, right, 1)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
				r, err = cc.Isend(send, halo, gompi.Byte, right, 0)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
				r, err = cc.Isend(send, halo, gompi.Byte, left, 1)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
				for _, r := range reqs {
					if _, err := r.Wait(); err != nil {
						return err
					}
				}
				return nil
			}
		case "persistent":
			op, err := cc.NeighborAllgatherInit(send, recv, halo, gompi.Byte)
			if err != nil {
				return err
			}
			iter = func() error {
				p.ChargeCompute(compute)
				if err := op.Start(); err != nil {
					return err
				}
				return op.Wait()
			}
		case "partitioned":
			per := halo / partitions
			sr, err := cc.PsendInit(send, partitions, per, gompi.Byte, right, 0)
			if err != nil {
				return err
			}
			sl, err := cc.PsendInit(send, partitions, per, gompi.Byte, left, 1)
			if err != nil {
				return err
			}
			rl, err := cc.PrecvInit(recv[:halo], partitions, per, gompi.Byte, left, 0)
			if err != nil {
				return err
			}
			rr, err := cc.PrecvInit(recv[halo:], partitions, per, gompi.Byte, right, 1)
			if err != nil {
				return err
			}
			chunks[p.Rank()] = sr.Chunks()
			ops := []*gompi.PartitionedOp{sr, sl, rl, rr}
			slice := compute / int64(partitions)
			iter = func() error {
				if err := gompi.StartAll(ops); err != nil {
					return err
				}
				// Publish each halo slice as soon as its rows are
				// computed: communication rides under the compute.
				for k := 0; k < partitions; k++ {
					p.ChargeCompute(slice)
					if err := sr.Pready(k); err != nil {
						return err
					}
					if err := sl.Pready(k); err != nil {
						return err
					}
				}
				for _, o := range ops {
					if err := o.Wait(); err != nil {
						return err
					}
				}
				return nil
			}
		default:
			return fmt.Errorf("bench: unknown spmv mode %q", mode)
		}

		if err := iter(); err != nil { // warmup, untimed
			return err
		}
		before := p.Counters()
		start := p.VirtualCycles()
		for it := 0; it < spmvIters; it++ {
			if err := iter(); err != nil {
				return err
			}
		}
		lat[p.Rank()] = p.VirtualCycles() - start
		instr[p.Rank()] = p.Counters().Sub(before).TotalInstr
		return nil
	})
	if err != nil {
		return SpmvPoint{}, err
	}
	pt := SpmvPoint{Mode: mode, HaloBytes: halo, Iters: spmvIters}
	if mode == "partitioned" {
		pt.Partitions = partitions
		pt.Chunks = chunks[0]
	}
	var max, sum int64
	for i := range lat {
		if lat[i] > max {
			max = lat[i]
		}
		sum += instr[i]
	}
	if hz > 0 {
		pt.LatencyUs = float64(max) / float64(spmvIters) / hz * 1e6
	}
	pt.MPIInstr = sum / spmvIters
	return pt, nil
}

// WriteSpmv renders the sweep as a table.
func WriteSpmv(w io.Writer, pts []SpmvPoint) {
	fmt.Fprintf(w, "SpMV halo exchange: %d ranks, 2 per node, periodic ring, %d iterations\n",
		spmvRanks, spmvIters)
	fmt.Fprintf(w, "%-12s %10s %6s %7s %14s %14s\n",
		"mode", "halo_B", "parts", "chunks", "latency_us/it", "mpi_instr/it")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12s %10d %6d %7d %14.2f %14d\n",
			p.Mode, p.HaloBytes, p.Partitions, p.Chunks, p.LatencyUs, p.MPIInstr)
	}
}
