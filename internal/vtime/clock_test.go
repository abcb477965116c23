package vtime

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAdvance(t *testing.T) {
	c := NewClock(2.2e9)
	c.Advance(100)
	c.Advance(50)
	if c.Now() != 150 {
		t.Errorf("Now = %d, want 150", c.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock(1e9).Advance(-1)
}

func TestNewClockBadHzPanics(t *testing.T) {
	for _, hz := range []float64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestSyncMonotone(t *testing.T) {
	c := NewClock(1e9)
	c.Advance(100)
	c.Sync(50) // in the past: no-op
	if c.Now() != 100 {
		t.Errorf("Sync to past moved clock: Now = %d, want 100", c.Now())
	}
	c.Sync(300)
	if c.Now() != 300 {
		t.Errorf("Sync to future: Now = %d, want 300", c.Now())
	}
}

func TestSecondsAndRate(t *testing.T) {
	c := NewClock(2.0e9)
	from := c.Now()
	c.Advance(2_000_000_000) // one second of cycles
	if got := c.Seconds(from, c.Now()); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Seconds = %v, want 1.0", got)
	}
}

// Property: any interleaving of Advance and Sync keeps the clock
// monotonically non-decreasing.
func TestMonotonicity(t *testing.T) {
	f := func(steps []int16) bool {
		c := NewClock(1e9)
		prev := c.Now()
		for _, s := range steps {
			if s >= 0 {
				c.Advance(int64(s))
			} else {
				c.Sync(Time(-int64(s) * 3))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Advance is additive — advancing by a then b equals advancing
// by a+b.
func TestAdvanceAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		c1 := NewClock(1e9)
		c1.Advance(int64(a))
		c1.Advance(int64(b))
		c2 := NewClock(1e9)
		c2.Advance(int64(a) + int64(b))
		return c1.Now() == c2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A clock marked shared is advanced and synced from several goroutines
// at once (MPI_THREAD_MULTIPLE application threads on one rank). Each
// worker advances by one and then Syncs one past what it reads, so the
// CAS maximum is contended for real: no goroutine ever sees the clock
// run backward, every Sync target is reached, and no Advance is lost.
func TestLedgerSharedClock(t *testing.T) {
	const workers, each = 8, 50_000
	c := NewClock(1e9)
	c.Share()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := c.Now()
			for i := 0; i < each; i++ {
				c.Advance(1)
				target := c.Now() + 1
				c.Sync(target)
				now := c.Now()
				if now < target || now < prev {
					t.Errorf("clock at %d after Sync(%d), previously %d", now, target, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
	if least := Time(workers * each); c.Now() < least {
		t.Errorf("Now = %d, want at least the %d cycles advanced", c.Now(), least)
	}
}
