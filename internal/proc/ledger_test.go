package proc

import (
	"math/rand"
	"sync"
	"testing"

	"gompi/internal/instr"
	"gompi/internal/vtime"
)

// ledgerPair returns rank 0 of a single-writer world and of a world
// marked for MPI_THREAD_MULTIPLE, at the same CPI.
func ledgerPair(cpi int64) (single, shared *Rank) {
	ws, wm := NewWorld(1, 1, 2.2e9), NewWorld(1, 1, 2.2e9)
	ws.SetInstrCPI(cpi)
	wm.SetInstrCPI(cpi)
	wm.SetThreadMultiple(true)
	return ws.Rank(0), wm.Rank(0)
}

// TestLedgerSingleMatchesShared is the differential test of the fast
// path against the slow one: the same seeded sequence of Charge,
// ChargeCycles and Sync applied to a single-writer rank and to a shared
// rank leaves both ledgers equal: the snapshot (which is the
// per-category Count), the derived totals, and the clock. The
// single-writer rank is read only every k steps (k drawn from 1-50) and
// Syncs only rarely, toward a time read off the shared rank, so its
// pending cycles pile up over many charges before a settle folds them
// into the clock.
func TestLedgerSingleMatchesShared(t *testing.T) {
	for _, cpi := range []int64{1, 6} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a, b := ledgerPair(cpi)
			base := a.Profile().Snap()
			next := 1 + rng.Intn(50)
			for step := 0; step < 2000; step++ {
				switch n := rng.Int63n(400); {
				case rng.Intn(16) == 0:
					// Half of these land in the past and must be no-ops.
					to := b.Now() + vtime.Time(n-200)
					a.Sync(to)
					b.Sync(to)
				case rng.Intn(3) == 0:
					cat := instr.Transport + instr.Category(rng.Intn(2))
					a.ChargeCycles(cat, n)
					b.ChargeCycles(cat, n)
				default:
					cat := instr.Category(rng.Intn(int(instr.Transport)))
					a.Charge(cat, n)
					b.Charge(cat, n)
				}
				if next--; next > 0 {
					continue
				}
				next = 1 + rng.Intn(50)
				pa, pb := a.Profile(), b.Profile()
				if a.Now() != b.Now() || pa.Snap() != pb.Snap() ||
					pa.Total() != pb.Total() || pa.Cycles() != pb.Cycles() || pa.Delta(base) != pb.Delta(base) {
					t.Fatalf("cpi %d seed %d step %d: single-writer ledger (now %d, %+v) != shared ledger (now %d, %+v)",
						cpi, seed, step, a.Now(), pa.Delta(base), b.Now(), pb.Delta(base))
				}
			}
		}
	}
}

// TestChargeSettlesAtRead pins where a single-writer rank's clock
// moves: a charge adds to pending and leaves the clock alone, Now and
// Sync fold pending in, and a negative charge panics at the charge
// rather than at some later settle.
func TestChargeSettlesAtRead(t *testing.T) {
	r, _ := ledgerPair(6)
	r.Charge(instr.Mandatory, 5)
	r.ChargeCycles(instr.Transport, 7)
	if r.now != 0 || r.pending != 5*6+7 {
		t.Fatalf("after two charges: clock %d, pending %d; want clock 0, pending 37", r.now, r.pending)
	}
	if got := r.Now(); got != 37 || r.pending != 0 {
		t.Fatalf("Now = %d with %d pending, want 37 and 0", got, r.pending)
	}
	r.Charge(instr.Call, 1)
	r.Sync(40)
	if r.now != 43 || r.pending != 0 {
		t.Fatalf("Sync(40) at 43: clock %d, pending %d; want 43, 0", r.now, r.pending)
	}
	for name, charge := range map[string]func(){
		"Charge":       func() { r.Charge(instr.Mandatory, -1) },
		"ChargeCycles": func() { r.ChargeCycles(instr.Compute, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) did not panic", name)
				}
			}()
			charge()
		}()
	}
}

// TestLedgerSharedStress charges one shared rank from eight goroutines
// at once, as MPI_THREAD_MULTIPLE application threads do: every charge
// must land, on the profile and on the clock. Under -race it is also
// the proof that the shared mark reaches every access.
func TestLedgerSharedStress(t *testing.T) {
	const workers, each = 8, 100_000
	_, r := ledgerPair(1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Charge(instr.Mandatory, 3)
				r.ChargeCycles(instr.Transport, 2)
				r.Sync(r.Now() - 1) // never ahead of the clock: must not move it
			}
		}()
	}
	wg.Wait()
	p := r.Profile()
	if got, want := p.Count(instr.Mandatory), int64(3*workers*each); got != want {
		t.Errorf("Count(Mandatory) = %d, want %d", got, want)
	}
	if got, want := p.Total(), int64(3*workers*each); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := p.Cycles(), int64(5*workers*each); got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
	if got, want := int64(r.Now()), int64(5*workers*each); got != want {
		t.Errorf("Now = %d, want %d", got, want)
	}
}

// BenchmarkCharge is the bookkeeping rung of the ladder: what one
// charged instruction group costs the simulator, on a rank that is one
// goroutine and on a rank built for MPI_THREAD_MULTIPLE.
func BenchmarkCharge(b *testing.B) {
	single, shared := ledgerPair(1)
	for _, bc := range []struct {
		name string
		r    *Rank
	}{{"single", single}, {"shared", shared}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.r.Charge(instr.Mandatory, 3)
			}
		})
	}
}
