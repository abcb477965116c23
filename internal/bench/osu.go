package bench

import (
	"fmt"
	"io"

	"gompi"
)

// OSUPoint is one row of an OSU-style microbenchmark table.
type OSUPoint struct {
	Bytes        int
	LatencyUs    float64 // half round trip (osu_latency)
	BandwidthMBs float64 // windowed one-way bandwidth (osu_bw)
}

// OSUSweep runs ping-pong latency and windowed-bandwidth measurements
// across message sizes on the given configuration, in the style of the
// OSU microbenchmarks (the fields the paper's message-rate analysis
// complements).
func OSUSweep(cfg gompi.Config, maxBytes, iters, window int) ([]OSUPoint, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 16
	}
	if iters <= 0 {
		iters = 100
	}
	if window <= 0 {
		window = 32
	}
	var points []OSUPoint
	for size := 1; size <= maxBytes; size *= 4 {
		lat, err := pingPongLatency(cfg, size, iters)
		if err != nil {
			return nil, fmt.Errorf("latency %dB: %w", size, err)
		}
		bw, err := windowedBandwidth(cfg, size, iters, window)
		if err != nil {
			return nil, fmt.Errorf("bw %dB: %w", size, err)
		}
		points = append(points, OSUPoint{Bytes: size, LatencyUs: lat, BandwidthMBs: bw})
	}
	return points, nil
}

// pingPongLatency returns the half-round-trip virtual latency in
// microseconds.
func pingPongLatency(cfg gompi.Config, size, iters int) (float64, error) {
	var us float64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		buf := make([]byte, size)
		rbuf := make([]byte, size)
		peer := 1 - p.Rank()
		// Warm-up round.
		if p.Rank() == 0 {
			if err := w.Send(buf, size, gompi.Byte, peer, 0); err != nil {
				return err
			}
			if _, err := w.Recv(rbuf, size, gompi.Byte, peer, 0); err != nil {
				return err
			}
		} else {
			if _, err := w.Recv(rbuf, size, gompi.Byte, peer, 0); err != nil {
				return err
			}
			if err := w.Send(buf, size, gompi.Byte, peer, 0); err != nil {
				return err
			}
		}
		start := p.VirtualCycles()
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := w.Send(buf, size, gompi.Byte, peer, 1); err != nil {
					return err
				}
				if _, err := w.Recv(rbuf, size, gompi.Byte, peer, 1); err != nil {
					return err
				}
			} else {
				if _, err := w.Recv(rbuf, size, gompi.Byte, peer, 1); err != nil {
					return err
				}
				if err := w.Send(buf, size, gompi.Byte, peer, 1); err != nil {
					return err
				}
			}
		}
		if p.Rank() == 0 {
			cycles := float64(p.VirtualCycles() - start)
			us = cycles / p.ClockHz() * 1e6 / float64(iters) / 2
		}
		return nil
	})
	return us, err
}

// windowedBandwidth returns the one-way bandwidth in MB/s with window
// messages in flight per ack.
func windowedBandwidth(cfg gompi.Config, size, iters, window int) (float64, error) {
	var mbs float64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		buf := make([]byte, size)
		ack := make([]byte, 1)
		if p.Rank() == 0 {
			start := p.VirtualCycles()
			for i := 0; i < iters; i++ {
				for k := 0; k < window; k++ {
					if err := w.IsendNoReq(buf, size, gompi.Byte, 1, 2); err != nil {
						return err
					}
				}
				if err := w.CommWaitall(); err != nil {
					return err
				}
				if _, err := w.Recv(ack, 1, gompi.Byte, 1, 3); err != nil {
					return err
				}
			}
			seconds := float64(p.VirtualCycles()-start) / p.ClockHz()
			total := float64(size) * float64(window) * float64(iters)
			mbs = total / seconds / 1e6
			return nil
		}
		rbuf := make([]byte, size)
		for i := 0; i < iters; i++ {
			for k := 0; k < window; k++ {
				if _, err := w.Recv(rbuf, size, gompi.Byte, 0, 2); err != nil {
					return err
				}
			}
			if err := w.Send(ack, 1, gompi.Byte, 0, 3); err != nil {
				return err
			}
		}
		return nil
	})
	return mbs, err
}

// WriteOSU renders an OSU-style table.
func WriteOSU(w io.Writer, title string, pts []OSUPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%10s %14s %16s\n", "Size", "Latency [us]", "Bandwidth [MB/s]")
	for _, p := range pts {
		fmt.Fprintf(w, "%10d %14.2f %16.1f\n", p.Bytes, p.LatencyUs, p.BandwidthMBs)
	}
}
