package gompi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// failFast runs body and requires it to finish well under the test
// timeout — the whole point of world teardown, and of the progress rule
// for the legal programs of blocked_test.go.
func failFast(t *testing.T, n int, cfg Config, body func(p *Proc) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, cfg, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("world did not finish within 30 s")
		return nil
	}
}

func TestAbortUnblocksPendingRecv(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		dev := dev
		t.Run(string(dev), func(t *testing.T) {
			boom := errors.New("boom")
			err := failFast(t, 3, Config{Device: dev, Fabric: "ofi"}, func(p *Proc) error {
				if p.Rank() == 0 {
					return boom // never sends what rank 1 waits for
				}
				buf := make([]byte, 1)
				_, err := p.World().Recv(buf, 1, Byte, 0, 0)
				return err
			})
			if !errors.Is(err, boom) {
				t.Fatalf("original failure lost: %v", err)
			}
			if err != nil && strings.Contains(err.Error(), "world aborted") {
				t.Fatalf("fallout not filtered: %v", err)
			}
		})
	}
}

func TestAbortUnblocksCollective(t *testing.T) {
	boom := errors.New("collective boom")
	err := failFast(t, 4, Config{Fabric: "inf"}, func(p *Proc) error {
		if p.Rank() == 2 {
			return boom
		}
		return p.World().Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestAbortUnblocksCommCreation: a creation collective waits in the
// device's progress loop, so the fabric's abort ends it on both devices.
func TestAbortUnblocksCommCreation(t *testing.T) {
	creations := []struct {
		name   string
		create func(w *Comm) error
	}{
		{"Split", func(w *Comm) error { _, err := w.Split(0, w.Rank()); return err }},
		{"Create", func(w *Comm) error { _, err := w.Create(w.Group()); return err }},
		{"WinCreate", func(w *Comm) error { _, err := w.WinCreate(make([]byte, 8), 1); return err }},
	}
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		for _, c := range creations {
			t.Run(string(dev)+"/"+c.name, func(t *testing.T) {
				boom := errors.New("creation boom")
				err := failFast(t, 3, Config{Device: dev}, func(p *Proc) error {
					if p.Rank() == 1 {
						return boom
					}
					// The creation collective needs all ranks; rank 1 never joins.
					return c.create(p.World())
				})
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v", err)
				}
			})
		}
	}
}

// TestAbortUnblocksFullRing: rank 0 sends rank 1 a staged message four
// times its ring, so its producer waits on the full ring, and rank 1
// fails without draining. The wait is the device's event loop, so the
// fabric's abort ends it. Under MPI_THREAD_MULTIPLE a second goroutine
// of rank 0 waits on rank 1's ring to rank 0 meanwhile, and the abort
// ends both.
func TestAbortUnblocksFullRing(t *testing.T) {
	for _, tm := range []bool{false, true} {
		t.Run(fmt.Sprintf("ThreadMultiple=%v", tm), func(t *testing.T) {
			boom := errors.New("ring boom")
			cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, RanksPerNode: 2, ThreadMultiple: tm}
			err := failFast(t, 2, cfg, func(p *Proc) error {
				w := p.World()
				if p.Rank() == 1 {
					return boom // never drains its ring from rank 0
				}
				if tm {
					// The sibling ends on the abort panic; the rank does
					// not finish before it does.
					ended := make(chan any)
					go func() {
						defer func() { ended <- recover() }()
						w.Recv(make([]byte, 1), 1, Byte, 1, 0)
					}()
					defer func() { <-ended }()
				}
				return w.Send(make([]byte, 1<<20), 1<<20, Byte, 1, 0)
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want rank 1's error", err)
			}
		})
	}
}

func TestAbortUnblocksPSCW(t *testing.T) {
	boom := errors.New("pscw boom")
	err := failFast(t, 2, Config{Fabric: "ucx"}, func(p *Proc) error {
		w := p.World()
		win, _, err := w.WinAllocate(8, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			return boom // never posts
		}
		if err := win.Start([]int{1}); err != nil { // blocks on the post token
			return err
		}
		return win.Complete()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortPanicAlsoTearsDown(t *testing.T) {
	// A rank panicking while a peer is blocked on it: the panic must
	// tear the world down and be the reported failure.
	err := failFast(t, 3, Config{Fabric: "ofi"}, func(p *Proc) error {
		if p.Rank() == 0 {
			panic("deliberate panic")
		}
		buf := make([]byte, 1)
		_, err := p.World().Recv(buf, 1, Byte, 0, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic lost: %v", err)
	}
	if strings.Contains(err.Error(), "world aborted") {
		t.Fatalf("fallout not filtered: %v", err)
	}
}

func TestNoSpuriousAbortOnSuccess(t *testing.T) {
	// A clean run must not trip any abort machinery.
	err := failFast(t, 4, Config{Fabric: "ofi", RanksPerNode: 2}, func(p *Proc) error {
		if err := p.World().Barrier(); err != nil {
			return err
		}
		vals, err := p.World().AllreduceFloat64([]float64{1}, OpSum)
		if err != nil {
			return err
		}
		if vals[0] != 4 {
			return fmt.Errorf("allreduce %v", vals[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
