// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation studies DESIGN.md calls out. Each
// benchmark runs the corresponding experiment and reports the
// paper-comparable quantity as a custom metric (instructions per call,
// virtual messages per second, virtual timesteps per second), so
// `go test -bench=. -benchmem` prints the whole reproduction.
package gompi_test

import (
	"fmt"
	"testing"

	"gompi"
	"gompi/internal/bench"
	"gompi/internal/match"
)

// BenchmarkTable1InstructionBreakdown regenerates Table 1: the
// per-category instruction cost of MPI_ISEND and MPI_PUT in the
// default ch4 build.
func BenchmarkTable1InstructionBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		isend, put, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(isend.Counters.TotalInstr), "isend-instr")
		b.ReportMetric(float64(put.Counters.TotalInstr), "put-instr")
		b.ReportMetric(float64(isend.Counters.Mandatory), "isend-mandatory")
		b.ReportMetric(float64(put.Counters.Mandatory), "put-mandatory")
	}
}

// BenchmarkFigure2InstructionCounts regenerates Figure 2: the build
// ladder for both devices.
func BenchmarkFigure2InstructionCounts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		isends, puts, err := bench.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(isends[0].Counters.TotalInstr), "orig-isend-instr")
		b.ReportMetric(float64(puts[0].Counters.TotalInstr), "orig-put-instr")
		last := len(isends) - 1
		b.ReportMetric(float64(isends[last].Counters.TotalInstr), "ipo-isend-instr")
		b.ReportMetric(float64(puts[last].Counters.TotalInstr), "ipo-put-instr")
	}
}

// rateFigure runs one message-rate figure and reports the endpoints.
func rateFigure(b *testing.B, fabric string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.MessageRates(fabric, 500)
		if err != nil {
			b.Fatal(err)
		}
		first, last := pts[0], pts[len(pts)-1]
		b.ReportMetric(first.IsendRate/1e6, "orig-isend-Mmsgs")
		b.ReportMetric(last.IsendRate/1e6, "ipo-isend-Mmsgs")
		b.ReportMetric(first.PutRate/1e6, "orig-put-Mmsgs")
		b.ReportMetric(last.PutRate/1e6, "ipo-put-Mmsgs")
	}
}

// BenchmarkFigure3MessageRateOFI regenerates Figure 3 (OFI/PSM2).
func BenchmarkFigure3MessageRateOFI(b *testing.B) { rateFigure(b, "ofi") }

// BenchmarkFigure4MessageRateUCX regenerates Figure 4 (UCX/EDR).
func BenchmarkFigure4MessageRateUCX(b *testing.B) { rateFigure(b, "ucx") }

// BenchmarkFigure5MessageRateInfinite regenerates Figure 5 (infinitely
// fast network).
func BenchmarkFigure5MessageRateInfinite(b *testing.B) { rateFigure(b, "inf") }

// BenchmarkFigure6StandardImprovements regenerates Figure 6: the
// proposal ladder on the infinitely fast network, peaking at the
// all-opts path (~137 M msg/s at 2.2 GHz; the paper reports 132.8M).
func BenchmarkFigure6StandardImprovements(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.ProposalLadder(500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Rate/1e6, "floor-Mmsgs")
		b.ReportMetric(pts[len(pts)-1].Rate/1e6, "allopts-Mmsgs")
		b.ReportMetric(float64(pts[len(pts)-1].Instr), "allopts-instr")
	}
}

// BenchmarkProposalSavings regenerates the Section 3 per-proposal
// instruction savings.
func BenchmarkProposalSavings(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, base, err := bench.ProposalSavings()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(base), "baseline-instr")
		for _, r := range rows {
			if r.Name == "all_opts (3.7)" {
				b.ReportMetric(float64(r.Instr), "allopts-instr")
			}
		}
	}
}

// BenchmarkFigure7Nek5000 regenerates Figure 7 (reduced sweep): the
// Nek5000 model problem at the strong-scaling limit under both devices.
func BenchmarkFigure7Nek5000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.NekSweep(bench.NekSweepOptions{
			RankGrid: [3]int{2, 2, 2},
			Orders:   []int{5},
			MaxEPerP: 16,
			Iters:    10,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Ratio, "ratio-at-EP1")
		b.ReportMetric(pts[len(pts)-1].Ratio, "ratio-at-EPmax")
		b.ReportMetric(pts[len(pts)-1].PerfLite, "lite-pips")
	}
}

// BenchmarkFigure8LAMMPS regenerates Figure 8 (reduced sweep): LJ
// strong scaling under both devices.
func BenchmarkFigure8LAMMPS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.LammpsSweep(bench.LammpsSweepOptions{
			RankGrid: [3]int{2, 2, 2},
			Steps:    5,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].SpeedupPct, "speedup%-512")
		b.ReportMetric(pts[len(pts)-1].SpeedupPct, "speedup%-8192")
		b.ReportMetric(pts[len(pts)-1].RateCh4, "ch4-ts/s")
	}
}

// --- ablation benchmarks (DESIGN.md section 5) --------------------------

// measureIsendInstr runs one 1-byte send under cfg and returns the MPI
// instruction count of the issue path.
func measureIsendInstr(b *testing.B, cfg gompi.Config, flagsPath func(w *gompi.Comm, p *gompi.Proc) error) int64 {
	b.Helper()
	var instr int64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		if p.Rank() != 0 {
			buf := make([]byte, 1)
			_, err := w.Recv(buf, 1, gompi.Byte, 0, 0)
			return err
		}
		before := p.Counters()
		if err := flagsPath(w, p); err != nil {
			return err
		}
		instr = p.Counters().Sub(before).TotalInstr
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return instr
}

// BenchmarkAblationFlowThrough compares the semantic-flow-through ch4
// design against the layered packet-lowering baseline on the same
// fabric: instruction counts and achieved message rate.
func BenchmarkAblationFlowThrough(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		send := func(w *gompi.Comm, p *gompi.Proc) error {
			return w.Send([]byte{1}, 1, gompi.Byte, 1, 0)
		}
		ch4 := measureIsendInstr(b, gompi.Config{Device: "ch4", Fabric: "inf", Build: "default"}, send)
		orig := measureIsendInstr(b, gompi.Config{Device: "original", Fabric: "inf", Build: "default"}, send)
		b.ReportMetric(float64(ch4), "ch4-instr")
		b.ReportMetric(float64(orig), "orig-instr")
	}
}

// BenchmarkAblationRankTranslation compares the compressed (strided)
// rank representation against the dense O(P) table on the send path.
func BenchmarkAblationRankTranslation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var strided, dense int64
		err := gompi.Run(3, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
			w := p.World()
			// Strided: every other rank (world 0,2). Dense: an
			// irregular permutation.
			sub1, err := w.Split(map[bool]int{true: 0, false: 1}[p.Rank()%2 == 0], p.Rank())
			if err != nil {
				return err
			}
			sub2, err := w.Split(0, []int{0, 2, 1}[p.Rank()])
			if err != nil {
				return err
			}
			measure := func(c *gompi.Comm, dest int) (int64, error) {
				before := p.Counters()
				if err := c.IsendNoReq([]byte{1}, 1, gompi.Byte, dest, 0); err != nil {
					return 0, err
				}
				return p.Counters().Sub(before).TotalInstr, nil
			}
			switch p.Rank() {
			case 0:
				// sub1 (even ranks {0,2}: strided), sub2 (dense).
				s, err := measure(sub1, 1)
				if err != nil {
					return err
				}
				strided = s
				d, err := measure(sub2, 1)
				if err != nil {
					return err
				}
				dense = d
			case 2:
				// Receive the strided-comm and dense-comm messages.
				buf := make([]byte, 1)
				if _, err := sub1.Recv(buf, 1, gompi.Byte, 0, 0); err != nil {
					return err
				}
				if _, err := sub2.Recv(buf, 1, gompi.Byte, 0, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(strided), "strided-instr")
		b.ReportMetric(float64(dense), "dense-instr")
	}
}

// BenchmarkAblationCompletion compares request-object completion with
// the counter model of Section 3.5.
func BenchmarkAblationCompletion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		withReq := measureIsendInstr(b, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"},
			func(w *gompi.Comm, p *gompi.Proc) error {
				req, err := w.Isend([]byte{1}, 1, gompi.Byte, 1, 0)
				if err != nil {
					return err
				}
				_, err = req.Wait()
				return err
			})
		noReq := measureIsendInstr(b, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"},
			func(w *gompi.Comm, p *gompi.Proc) error {
				if err := w.IsendNoReq([]byte{1}, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
				return w.CommWaitall()
			})
		b.ReportMetric(float64(withReq), "request-instr")
		b.ReportMetric(float64(noReq), "counter-instr")
	}
}

// BenchmarkAblationMatching compares hardware (fabric) tag matching
// against the baseline's software matching: the receive-side MPI
// instruction cost per message.
func BenchmarkAblationMatching(b *testing.B) {
	b.ReportAllocs()
	recvCost := func(device gompi.DeviceKind) int64 {
		var instr int64
		err := gompi.Run(2, gompi.Config{Device: device, Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
			w := p.World()
			if p.Rank() == 0 {
				return w.Send([]byte{1}, 1, gompi.Byte, 1, 0)
			}
			buf := make([]byte, 1)
			before := p.Counters()
			if _, err := w.Recv(buf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
			instr = p.Counters().Sub(before).TotalInstr
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return instr
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(recvCost("ch4")), "hw-match-recv-instr")
		b.ReportMetric(float64(recvCost("original")), "sw-match-recv-instr")
	}
}

// BenchmarkAblationLocality compares on-node shmmod messaging against
// loopback-through-netmod: virtual cycles per 1-byte message.
func BenchmarkAblationLocality(b *testing.B) {
	b.ReportAllocs()
	cyclesPerMsg := func(rpn int) float64 {
		const msgs = 500
		var cycles float64
		err := gompi.Run(2, gompi.Config{Fabric: "ofi", RanksPerNode: rpn, Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
			w := p.World()
			if p.Rank() == 0 {
				start := p.VirtualCycles()
				for i := 0; i < msgs; i++ {
					if err := w.IsendNoReq([]byte{1}, 1, gompi.Byte, 1, 0); err != nil {
						return err
					}
				}
				cycles = float64(p.VirtualCycles()-start) / msgs
				return w.CommWaitall()
			}
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				if _, err := w.Recv(buf, 1, gompi.Byte, 0, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return cycles
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(cyclesPerMsg(1), "netmod-cycles/msg")
		b.ReportMetric(cyclesPerMsg(2), "shmmod-cycles/msg")
	}
}

// BenchmarkAblationAllgatherAlgorithms compares the ring and Bruck
// allgather algorithms' end-to-end virtual latency.
func BenchmarkAblationAllgatherAlgorithms(b *testing.B) {
	b.ReportAllocs()
	// The two algorithms live in internal/coll; at this level the ring
	// is the default. We time the public Allgather (ring) and report
	// its virtual latency as the reference; the Bruck comparison runs
	// in internal/coll's own tests.
	for i := 0; i < b.N; i++ {
		var cycles float64
		err := gompi.Run(8, gompi.Config{Fabric: "ofi"}, func(p *gompi.Proc) error {
			w := p.World()
			mine := []byte{byte(p.Rank())}
			all := make([]byte, 8)
			start := p.VirtualCycles()
			if err := w.Allgather(mine, all, 1, gompi.Byte); err != nil {
				return err
			}
			if p.Rank() == 0 {
				cycles = float64(p.VirtualCycles() - start)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cycles, "ring-allgather-cycles")
	}
}

// BenchmarkWallClockIsend measures the Go-level wall-clock throughput
// of the ch4 fast path (not a paper figure; a sanity check that the
// simulation itself is fast enough to run the big sweeps). The
// exchange is windowed so the matching queues stay bounded at any b.N.
func BenchmarkWallClockIsend(b *testing.B) {
	b.ReportAllocs()
	const window = 64
	err := gompi.Run(2, gompi.Config{Fabric: "inf", Build: "no-err-single-ipo"}, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		ack := make([]byte, 1)
		if p.Rank() == 0 {
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				batch := window
				if b.N-sent < batch {
					batch = b.N - sent
				}
				for i := 0; i < batch; i++ {
					if err := w.IsendNoReq(buf, 1, gompi.Byte, 1, 0); err != nil {
						return err
					}
				}
				if _, err := w.Recv(ack, 1, gompi.Byte, 1, 1); err != nil {
					return err
				}
				sent += batch
			}
			b.StopTimer()
			return w.CommWaitall()
		}
		rbuf := make([]byte, 1)
		recvd := 0
		for recvd < b.N {
			batch := window
			if b.N-recvd < batch {
				batch = b.N - recvd
			}
			for i := 0; i < batch; i++ {
				if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
					return err
				}
			}
			if err := w.Send(ack, 1, gompi.Byte, 0, 1); err != nil {
				return err
			}
			recvd += batch
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationEagerThreshold sweeps the fabric's eager/rendezvous
// threshold and reports the 16 KiB message latency under each: the
// handshake's latency cliff moves with the knob.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	b.ReportAllocs()
	latency := func(limit int) float64 {
		const size, iters = 16384, 40
		var us float64
		err := gompi.Run(2, gompi.Config{Fabric: "ofi", EagerLimit: limit}, func(p *gompi.Proc) error {
			w := p.World()
			buf := make([]byte, size)
			peer := 1 - p.Rank()
			start := p.VirtualCycles()
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					if err := w.Send(buf, size, gompi.Byte, peer, 0); err != nil {
						return err
					}
					if _, err := w.Recv(buf, size, gompi.Byte, peer, 0); err != nil {
						return err
					}
				} else {
					if _, err := w.Recv(buf, size, gompi.Byte, peer, 0); err != nil {
						return err
					}
					if err := w.Send(buf, size, gompi.Byte, peer, 0); err != nil {
						return err
					}
				}
			}
			if p.Rank() == 0 {
				us = float64(p.VirtualCycles()-start) / p.ClockHz() * 1e6 / iters / 2
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return us
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(latency(-1), "alleager-us")
		b.ReportMetric(latency(4096), "eager4k-us")
		b.ReportMetric(latency(65536), "eager64k-us")
	}
}

// BenchmarkMatchDepth sweeps the posted-queue depth for both matching
// organizations: the binned engine (ch4 / fabric "hardware" matching)
// stays near-flat while the Linear mode (the CH3-style baseline) grows
// linearly — the queue-depth dimension of the CH4-vs-Original gap. The
// prefill posts one receive per source, so the bins spread the way they
// do in a real many-peer job; each iteration matches a message for the
// deepest source and re-posts that receive. The searches/op metric is
// the engine's own count of elements inspected.
func BenchmarkMatchDepth(b *testing.B) {
	modes := []struct {
		name string
		mode match.Mode
	}{{"binned", match.Binned}, {"linear", match.Linear}}
	for _, m := range modes {
		for _, depth := range []int{1, 16, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/depth-%d", m.name, depth), func(b *testing.B) {
				e := &match.Engine{Mode: m.mode}
				for s := 0; s < depth; s++ {
					e.PostRecv(match.MakeBits(1, s, 0), match.FullMask, s)
				}
				hot := match.MakeBits(1, depth-1, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := e.Arrive(hot, 0); !ok {
						b.Fatal("arrival missed the posted receive")
					}
					e.PostRecv(hot, match.FullMask, 0)
				}
				b.StopTimer()
				b.ReportMetric(float64(e.Searches)/float64(b.N), "searches/op")
			})
		}
	}
}

// BenchmarkMatchDepthWildcard is the same sweep with one ANY_SOURCE
// receive posted ahead of the exact ones: the binned engine pays the
// seq-arbitration check against the wildcard queue but stays flat.
func BenchmarkMatchDepthWildcard(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprintf("binned/depth-%d", depth), func(b *testing.B) {
			e := &match.Engine{Mode: match.Binned}
			// An old wildcard receive on another communicator sits on
			// the wildcard queue for the whole run.
			e.PostRecv(match.MakeBits(2, 0, 0), match.RecvMask(true, true), -1)
			for s := 0; s < depth; s++ {
				e.PostRecv(match.MakeBits(1, s, 0), match.FullMask, s)
			}
			hot := match.MakeBits(1, depth-1, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Arrive(hot, 0); !ok {
					b.Fatal("arrival missed the posted receive")
				}
				// Small-int cookie: values above 255 would pay an
				// interface-boxing allocation and pollute allocs/op.
				e.PostRecv(hot, match.FullMask, 0)
			}
		})
	}
}
