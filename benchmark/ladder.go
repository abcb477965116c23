package main

import (
	"fmt"
	"runtime"
	"time"

	"gompi"
	"gompi/internal/ch4"
	"gompi/internal/comm"
	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/flight"
	"gompi/internal/hist"
	"gompi/internal/instr"
	"gompi/internal/match"
	"gompi/internal/metrics"
	"gompi/internal/original"
	"gompi/internal/proc"
	"gompi/internal/request"
	"gompi/internal/shm"
	"gompi/internal/vtime"
)

// A probe drives one layer in isolation from a single goroutine, by
// calling its exported functions the way the layer above does. build
// returns the loop body (n operations per call) and, for bandwidth
// probes, the payload bytes one operation moves.
type probe struct {
	name   string // metric: <name> in ns, or MB/s when bytes > 0
	allocs string // metric of allocations per operation; "" when not reported
	build  func() (run func(n int) error, bytes int, err error)
}

const hz = 2.2e9

// meters returns n ranks of a fresh world; *proc.Rank is the Meter both
// transports charge.
func meters(n, rpn int) (*proc.World, []*proc.Rank) {
	w := proc.NewWorld(n, rpn, hz)
	rs := make([]*proc.Rank, n)
	for i := range rs {
		rs[i] = w.Rank(i)
	}
	return w, rs
}

// matchDepth is the match-engine probe of bench_test.go's depth sweep:
// one posted receive per source so bins spread as in a many-peer job,
// each operation matching the deepest source and re-posting it.
func matchDepth(depth int, wildcard bool) func() (func(int) error, int, error) {
	return func() (func(int) error, int, error) {
		e := &match.Engine{Mode: match.Binned}
		if wildcard {
			e.PostRecv(match.MakeBits(2, 0, 0), match.RecvMask(true, true), -1)
		}
		for s := 0; s < depth; s++ {
			e.PostRecv(match.MakeBits(1, s, 0), match.FullMask, 0)
		}
		hot := match.MakeBits(1, depth-1, 0)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, ok := e.Arrive(hot, 0); !ok {
					return fmt.Errorf("arrival missed the posted receive")
				}
				e.PostRecv(hot, match.FullMask, 0)
			}
			return nil
		}, 0, nil
	}
}

// fabricSend is post, tagged send, reap between two endpoints of the
// ofi profile: eager at 8 B, rendezvous at largeBytes.
func fabricSend(size int) func() (func(int) error, int, error) {
	return func() (func(int) error, int, error) {
		f := fabric.New(fabric.OFI, 2)
		_, rs := meters(2, 1)
		for i, r := range rs {
			f.Endpoint(i).Bind(r)
		}
		src, dst := f.Endpoint(0), f.Endpoint(1)
		bits := match.MakeBits(1, 0, 3)
		payload := make([]byte, size)
		buf := make([]byte, size)
		op := &fabric.RecvOp{}
		return func(n int) error {
			for i := 0; i < n; i++ {
				op.Reset()
				op.Buf = buf
				dst.PostRecv(op, bits, match.FullMask)
				src.TaggedSend(1, bits, payload)
				if !dst.RecvDone(op) || op.N != size {
					return fmt.Errorf("fabric receive of %d bytes did not complete", size)
				}
			}
			return nil
		}, 0, nil
	}
}

// shmCell is one staged 8 B message through a ring: Send then the
// receiver's Progress.
func shmCell() (func(int) error, int, error) {
	got := 0
	d := shm.NewDomain(shm.DefaultProfile, 2,
		func(int, match.Bits, int, []byte, vtime.Time, int) { got++ }, nil)
	_, rs := meters(2, 2)
	for i, r := range rs {
		d.Bind(i, r)
	}
	bits := match.MakeBits(1, 0, 5)
	payload := make([]byte, 8)
	return func(n int) error {
		got = 0
		for i := 0; i < n; i++ {
			d.Send(0, 1, bits, payload)
			d.Progress(1)
		}
		if got != n {
			return fmt.Errorf("shm delivered %d of %d messages", got, n)
		}
		return nil
	}, 0, nil
}

// shmHandoff is one zero-copy handoff of largeBytes: publish the
// descriptor, the receiver's Progress takes the view and copies it
// out, the sender finishes the handoff.
func shmHandoff() (func(int) error, int, error) {
	sink := make([]byte, largeBytes)
	d := shm.NewDomainCfg(shm.DefaultProfile, shm.Config{EagerMax: 16384}, 2,
		func(int, match.Bits, int, []byte, vtime.Time, int) {}, nil)
	d.SetDeliverView(func(_ int, _ match.Bits, _ int, view []byte, _ vtime.Time, _ int, rel shm.Releaser) {
		copy(sink, view)
		rel.Release(true)
	})
	_, rs := meters(2, 2)
	for i, r := range rs {
		d.Bind(i, r)
	}
	bits := match.MakeBits(1, 0, 5)
	payload := make([]byte, largeBytes)
	return func(n int) error {
		for i := 0; i < n; i++ {
			h := d.SendVCI(0, 1, bits, payload, 0)
			if h == nil {
				return fmt.Errorf("shm staged a %d-byte payload instead of lending it", largeBytes)
			}
			d.Progress(1)
			if !h.Done() {
				return fmt.Errorf("shm handoff not released by the receiver's progress")
			}
			d.FinishHandoff(h)
		}
		return nil
	}, 0, nil
}

// shmIdle is the poll scale_halo's parked ranks pay: Progress of a
// rank nothing feeds, in a domain of n ranks where every other rank
// feeds its right-hand neighbour.
func shmIdle(n int) func() (func(int) error, int, error) {
	return func() (func(int) error, int, error) {
		d := shm.NewDomain(shm.DefaultProfile, n,
			func(int, match.Bits, int, []byte, vtime.Time, int) {}, nil)
		_, rs := meters(n, n)
		for i, r := range rs {
			d.Bind(i, r)
		}
		for src := 1; src+1 < n; src++ {
			d.Preconnect(src, src+1)
		}
		return func(k int) error {
			for i := 0; i < k; i++ {
				if d.Progress(0) != 0 {
					return fmt.Errorf("idle rank was delivered a message")
				}
			}
			return nil
		}, 0, nil
	}
}

// devicePair is one 1-byte Irecv, Isend and completion of both through
// a device opened on its own world, as gompi.Run opens it.
func devicePair(name string) func() (func(int) error, int, error) {
	return func() (func(int) error, int, error) {
		bc, _ := core.ConfigByName("default")
		w, rs := meters(2, 1)
		var d0, d1 core.Device
		if name == "ch4" {
			g := ch4.NewGlobal(w, fabric.OFI, bc)
			d0, d1 = g.Open(rs[0]), g.Open(rs[1])
		} else {
			g := original.NewGlobal(w, fabric.OFI, bc)
			d0, d1 = g.Open(rs[0]), g.Open(rs[1])
		}
		reg := comm.NewRegistry()
		c0, c1 := comm.NewWorld(reg, 2, 0), comm.NewWorld(reg, 2, 1)
		sb, rb := []byte{7}, make([]byte, 1)
		return func(n int) error {
			for i := 0; i < n; i++ {
				rr, err := d1.Irecv(rb, 1, datatype.Byte, 0, 0, c1, 0)
				if err != nil {
					return err
				}
				sr, err := d0.Isend(sb, 1, datatype.Byte, 1, 0, c0, 0)
				if err != nil {
					return err
				}
				sr.Wait()
				sr.Free()
				rr.Wait()
				if rr.Status.Count != 1 {
					return fmt.Errorf("%s device delivered %d bytes", name, rr.Status.Count)
				}
				rr.Free()
			}
			return nil
		}, 0, nil
	}
}

func requestGetFree() (func(int) error, int, error) {
	var m metrics.Rank
	pool := &request.Pool{Metrics: &m}
	return func(n int) error {
		for i := 0; i < n; i++ {
			pool.Get(request.KindSend).Free()
		}
		return nil
	}, 0, nil
}

// vectorPack moves a strided column (1024 blocks of 8 doubles, stride
// 16) through the public Pack or Unpack.
func vectorPack(unpack bool) func() (func(int) error, int, error) {
	return func() (func(int) error, int, error) {
		const blocks, blocklen, stride = 1024, 8, 16
		dt, err := gompi.TypeVector(blocks, blocklen, stride, gompi.Double)
		if err != nil {
			return nil, 0, err
		}
		if err := dt.Commit(); err != nil {
			return nil, 0, err
		}
		laid := make([]byte, blocks*stride*8)
		packed := make([]byte, gompi.PackedSize(1, dt))
		return func(n int) error {
			for i := 0; i < n; i++ {
				var err error
				if unpack {
					_, err = gompi.Unpack(packed, 1, dt, laid)
				} else {
					_, err = gompi.Pack(laid, 1, dt, packed)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}, len(packed), nil
	}
}

// applySum folds 8 KiB of doubles with OpSum through the public
// ReduceLocal, the kernel under every reduction collective.
func applySum() (func(int) error, int, error) {
	const count = 1024
	in, inout := make([]byte, count*8), make([]byte, count*8)
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := gompi.ReduceLocal(in, inout, count, gompi.Double, gompi.OpSum); err != nil {
				return err
			}
		}
		return nil
	}, count * 8, nil
}

// The four bookkeeping calls every message pays several times.
func chargeProbe() (func(int) error, int, error) {
	_, rs := meters(1, 1)
	return func(n int) error {
		for i := 0; i < n; i++ {
			rs[0].Charge(instr.Mandatory, 3)
		}
		return nil
	}, 0, nil
}

func observeProbe() (func(int) error, int, error) {
	var h hist.H
	return func(n int) error {
		for i := 0; i < n; i++ {
			h.Observe(int64(i & 4095))
		}
		return nil
	}, 0, nil
}

func recordProbe() (func(int) error, int, error) {
	r := &flight.Ring{}
	return func(n int) error {
		for i := 0; i < n; i++ {
			r.Record(flight.SendEager, int64(i), 1, 8, 0)
		}
		return nil
	}, 0, nil
}

func noteProbe() (func(int) error, int, error) {
	var m metrics.Rank
	return func(n int) error {
		for i := 0; i < n; i++ {
			m.NetSend.Note(8)
		}
		return nil
	}, 0, nil
}

var ladder = []probe{
	{"match.post_arrive_ns", "", matchDepth(1, false)},
	{"match.post_arrive_d1024_ns", "", matchDepth(1024, false)},
	{"match.wild_d1024_ns", "", matchDepth(1024, true)},
	{"fabric.eager_ns", "fabric.eager_allocs", fabricSend(8)},
	{"fabric.rndv_256k_ns", "fabric.rndv_256k_allocs", fabricSend(largeBytes)},
	{"shm.cell_ns", "shm.cell_allocs", shmCell},
	{"shm.handoff_256k_ns", "shm.handoff_256k_allocs", shmHandoff},
	{"shm.progress_idle_n16_ns", "", shmIdle(16)},
	{"shm.progress_idle_n1024_ns", "", shmIdle(1024)},
	{"ch4.pair_ns", "ch4.pair_allocs", devicePair("ch4")},
	{"original.pair_ns", "original.pair_allocs", devicePair("original")},
	{"request.get_free_ns", "request.get_free_allocs", requestGetFree},
	{"datatype.pack_vector_mbps", "", vectorPack(false)},
	{"datatype.unpack_vector_mbps", "", vectorPack(true)},
	{"coll.apply_sum_f64_mbps", "", applySum},
	{"instr.charge_ns", "", chargeProbe},
	{"hist.observe_ns", "", observeProbe},
	{"flight.record_ns", "", recordProbe},
	{"metrics.note_ns", "", noteProbe},
}

// ladderRounds is how many timed rounds a probe gets; the reported
// value is the best of them.
const ladderRounds = 10

// runLadder gives every probe an equal share of budget, split into a
// calibration run and ladderRounds timed rounds, and returns best-round
// reference ns/op (or MB/s) and allocations per operation by metric
// name.
func runLadder(budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	round := budget / time.Duration(len(ladder)*(ladderRounds+2))
	for _, pb := range ladder {
		run, bytes, err := pb.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pb.name, err)
		}
		// Warm pools and freelists, then size a round.
		if err := run(16); err != nil {
			return nil, fmt.Errorf("%s: %w", pb.name, err)
		}
		n := 16
		for {
			t := time.Now()
			if err := run(n); err != nil {
				return nil, fmt.Errorf("%s: %w", pb.name, err)
			}
			if el := time.Since(t); el >= round/4 || n >= 1<<28 {
				n = int(float64(n)*float64(round)/float64(el+1)) + 1
				break
			}
			n *= 4
		}
		best := 0.0
		var ms0, ms1 runtime.MemStats
		for r := 0; r < ladderRounds; r++ {
			runtime.ReadMemStats(&ms0)
			slow := burst()
			t := time.Now()
			if err := run(n); err != nil {
				return nil, fmt.Errorf("%s: %w", pb.name, err)
			}
			ns := float64(time.Since(t)) / float64(n)
			ns /= (slow + burst()) / 2
			runtime.ReadMemStats(&ms1)
			if r == 0 || ns < best {
				best = ns
			}
			if pb.allocs != "" && r == ladderRounds-1 {
				out[pb.allocs] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
			}
		}
		if bytes > 0 {
			out[pb.name] = float64(bytes) / best * 1e3 // bytes/ns → MB/s
		} else {
			out[pb.name] = best
		}
	}
	return out, nil
}
