package gompi

import (
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stackChildEnv marks the child process TestRankStackFootprint runs
// its measurement in.
const stackChildEnv = "GOMPI_STACK_FOOTPRINT_CHILD"

// TestRankStackFootprint bounds what a rank goroutine's stack costs: a
// 1024-rank world parked in a Barrier, with and without Config.Stats,
// must hold at most 16 KiB of goroutine stack per rank. A rank's entry
// frame that keeps a large value in its locals (the whole RankStats
// snapshot) grows every rank's stack to 32 KiB before the rank runs a
// line of MPI. The measurement runs in a child process with
// GODEBUG=adaptivestackstart=0, so the starting stack size is the
// runtime's fixed minimum and not one learned from other tests.
func TestRankStackFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime enlarges every goroutine stack")
	}
	if os.Getenv(stackChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestRankStackFootprint$", "-test.v")
		cmd.Env = append(os.Environ(), stackChildEnv+"=1", "GODEBUG=adaptivestackstart=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		t.Logf("child:\n%s", out)
		return
	}
	const ranks, limit = 1024, 16 << 10
	for _, stats := range []bool{false, true} {
		var cfg Config
		if stats {
			cfg.Stats = new(Stats)
		}
		var arrived atomic.Int32
		var inuse uint64
		run(t, ranks, cfg, func(p *Proc) error {
			if p.Rank() != 0 {
				arrived.Add(1)
				return p.World().Barrier()
			}
			// Rank 0 measures once every peer has entered the Barrier
			// and had time to park in it.
			for arrived.Load() < ranks-1 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
			inuse = stackInuse()
			t.Logf("goroutines %d", runtime.NumGoroutine())
			return p.World().Barrier()
		})
		per := inuse / ranks
		t.Logf("Stats %v: StackInuse %d B, %d B per rank", stats, inuse, per)
		if per > limit {
			t.Errorf("Stats %v: %d B of goroutine stack per rank, want <= %d", stats, per, limit)
		}
	}
}

// stackInuse reads StackInuse in a frame of its own: a MemStats local
// (5 KiB) in the rank body would sit in the frame every rank runs.
//
//go:noinline
func stackInuse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.StackInuse
}
