package proc

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"gompi/internal/instr"
	"gompi/internal/vtime"
)

// clockRank returns the one rank of a fresh single-writer world at hz,
// whose clock the tests below move with ChargeCycles and Sync.
func clockRank(hz float64) *Rank { return NewWorld(1, 1, hz).Rank(0) }

func TestAdvance(t *testing.T) {
	r := clockRank(2.2e9)
	r.ChargeCycles(instr.Compute, 100)
	r.ChargeCycles(instr.Compute, 50)
	if r.Now() != 150 {
		t.Errorf("Now = %d, want 150", r.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChargeCycles(-1) did not panic")
		}
	}()
	clockRank(1e9).ChargeCycles(instr.Compute, -1)
}

func TestChargeCyclesPanicsOnMPICategory(t *testing.T) {
	for _, shared := range []bool{false, true} {
		func() {
			w := NewWorld(1, 1, 1e9)
			w.SetThreadMultiple(shared)
			defer func() {
				if recover() == nil {
					t.Errorf("shared %v: ChargeCycles(Mandatory) did not panic", shared)
				}
			}()
			w.Rank(0).ChargeCycles(instr.Mandatory, 1)
		}()
	}
}

func TestNewClockBadHzPanics(t *testing.T) {
	for _, hz := range []float64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld at %v Hz did not panic", hz)
				}
			}()
			NewWorld(1, 1, hz)
		}()
	}
}

func TestSyncMonotone(t *testing.T) {
	r := clockRank(1e9)
	r.ChargeCycles(instr.Compute, 100)
	r.Sync(50) // in the past: no-op
	if r.Now() != 100 {
		t.Errorf("Sync to past moved clock: Now = %d, want 100", r.Now())
	}
	r.Sync(300)
	if r.Now() != 300 {
		t.Errorf("Sync to future: Now = %d, want 300", r.Now())
	}
}

func TestSecondsAndRate(t *testing.T) {
	r := clockRank(2.0e9)
	from := r.Now()
	r.ChargeCycles(instr.Compute, 2_000_000_000) // one second of cycles
	if got := float64(r.Now()-from) / r.World().Hz(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("seconds = %v, want 1.0", got)
	}
}

// Property: any interleaving of charges and Syncs keeps the clock
// monotonically non-decreasing.
func TestMonotonicity(t *testing.T) {
	f := func(steps []int16) bool {
		r := clockRank(1e9)
		prev := r.Now()
		for _, s := range steps {
			if s >= 0 {
				r.ChargeCycles(instr.Compute, int64(s))
			} else {
				r.Sync(vtime.Time(-int64(s) * 3))
			}
			if r.Now() < prev {
				return false
			}
			prev = r.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: charges are additive — charging a then b moves the clock as
// far as charging a+b.
func TestAdvanceAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		r1 := clockRank(1e9)
		r1.ChargeCycles(instr.Compute, int64(a))
		r1.ChargeCycles(instr.Compute, int64(b))
		r2 := clockRank(1e9)
		r2.ChargeCycles(instr.Compute, int64(a)+int64(b))
		return r1.Now() == r2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A shared rank's clock is advanced and synced from several goroutines
// at once (MPI_THREAD_MULTIPLE application threads on one rank). Each
// worker charges one cycle and then Syncs one past what it reads, so the
// CAS maximum is contended for real: no goroutine ever sees the clock
// run backward, every Sync target is reached, and no charge is lost.
func TestLedgerSharedClock(t *testing.T) {
	const workers, each = 8, 50_000
	w := NewWorld(1, 1, 1e9)
	w.SetThreadMultiple(true)
	r := w.Rank(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := r.Now()
			for i := 0; i < each; i++ {
				r.ChargeCycles(instr.Compute, 1)
				target := r.Now() + 1
				r.Sync(target)
				now := r.Now()
				if now < target || now < prev {
					t.Errorf("clock at %d after Sync(%d), previously %d", now, target, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
	if least := vtime.Time(workers * each); r.Now() < least {
		t.Errorf("Now = %d, want at least the %d cycles charged", r.Now(), least)
	}
}
