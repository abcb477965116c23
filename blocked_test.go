package gompi

import (
	"bytes"
	"fmt"
	"testing"
)

// TestBlockedCallsProgress is MPI-3.1 §11.7.3's progress rule as a
// property: a rank blocked in any MPI call still serves its
// passive-target peers. The origin runs LockAll, Put, Get, FlushAll and
// UnlockAll while the target sits in a blocking call; then the origin
// joins that call. The flush completes only if the target's call runs
// the device's progress loop (the software active messages of the
// baseline and of ch4's derived-type fallback). Every cell must finish,
// with the Put's bytes in the target's window and the Get's in the
// origin's buffer.
func TestBlockedCallsProgress(t *testing.T) {
	vec, err := TypeVector(2, 1, 2, Byte)
	if err == nil {
		err = vec.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	setups := []struct {
		name    string
		cfg     Config
		derived bool
	}{
		{"ch4-offnode-derived", Config{Device: DeviceCH4, Fabric: FabricOFI}, true},
		{"ch4-onnode", Config{Device: DeviceCH4, Fabric: FabricOFI, RanksPerNode: 2}, false},
		{"original-contiguous", Config{Device: DeviceOriginal, Fabric: FabricOFI}, false},
		{"original-derived", Config{Device: DeviceOriginal, Fabric: FabricOFI}, true},
	}
	// Each call is what both ranks run after the origin's epoch; it
	// returns whether it freed the window.
	calls := []struct {
		name string
		call func(p *Proc, win *Win) (freed bool, err error)
	}{
		{"WinFree", func(p *Proc, win *Win) (bool, error) { return true, win.Free() }},
		{"WinCreate", func(p *Proc, win *Win) (bool, error) {
			w2, err := p.World().WinCreate(make([]byte, 8), 1)
			if err != nil {
				return false, err
			}
			return false, w2.Free()
		}},
		{"Split", func(p *Proc, win *Win) (bool, error) {
			_, err := p.World().Split(0, p.Rank())
			return false, err
		}},
		{"Create", func(p *Proc, win *Win) (bool, error) {
			_, err := p.World().Create(p.World().Group())
			return false, err
		}},
		{"Barrier", func(p *Proc, win *Win) (bool, error) { return false, p.World().Barrier() }},
		{"Recv", func(p *Proc, win *Win) (bool, error) {
			if p.Rank() == 0 {
				return false, p.World().Send([]byte{1}, 1, Byte, 1, 0)
			}
			_, err := p.World().Recv(make([]byte, 1), 1, Byte, 0, 0)
			return false, err
		}},
	}
	for _, s := range setups {
		for _, c := range calls {
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				cfg := s.cfg
				cfg.Watchdog = true
				dt, count, want := Byte, 3, []byte{0xA1, 0xB2, 0xC3}
				if s.derived {
					dt, count, want = vec, 1, []byte{0xA1, 0, 0xC3}
				}
				err := failFast(t, 2, cfg, func(p *Proc) error {
					mem := make([]byte, 8)
					mem[7] = 0x77
					win, err := p.World().WinCreate(mem, 1)
					if err != nil {
						return err
					}
					got := make([]byte, 1)
					if p.Rank() == 0 {
						for _, step := range []func() error{
							win.LockAll,
							func() error { return win.Put([]byte{0xA1, 0xB2, 0xC3}, count, dt, 1, 0) },
							func() error { return win.Get(got, 1, Byte, 1, 7) },
							win.FlushAll,
							win.UnlockAll,
						} {
							if err := step(); err != nil {
								return err
							}
						}
					}
					freed, err := c.call(p, win)
					if err != nil {
						return err
					}
					if !freed {
						if err := win.Free(); err != nil {
							return err
						}
					}
					if p.Rank() == 0 && got[0] != 0x77 {
						return fmt.Errorf("Get read %#x, want 0x77", got[0])
					}
					if p.Rank() == 1 && !bytes.Equal(mem[:3], want) {
						return fmt.Errorf("window holds % x, want % x", mem[:3], want)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFullRingDrainsOwnRings: two ranks on one node each post 1024
// small Isends to the other before any Irecv, so both fill their
// outbound ring. A rank blocked on its full ring must drain its own
// inbound rings before it sleeps, or each waits for the other forever.
func TestFullRingDrainsOwnRings(t *testing.T) {
	const msgs = 1024
	for _, tm := range []bool{false, true} {
		t.Run(fmt.Sprintf("ThreadMultiple=%v", tm), func(t *testing.T) {
			cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, RanksPerNode: 2, ThreadMultiple: tm, Watchdog: true}
			err := failFast(t, 2, cfg, func(p *Proc) error {
				w, peer := p.World(), 1-p.Rank()
				reqs := make([]*Request, 0, 2*msgs)
				for i := 0; i < msgs; i++ {
					r, err := w.Isend(Int64Bytes([]int64{int64(i)}, nil), 8, Byte, peer, i)
					if err != nil {
						return err
					}
					reqs = append(reqs, r)
				}
				bufs := make([][]byte, msgs)
				for i := range bufs {
					bufs[i] = make([]byte, 8)
					r, err := w.Irecv(bufs[i], 8, Byte, peer, i)
					if err != nil {
						return err
					}
					reqs = append(reqs, r)
				}
				if err := Waitall(reqs); err != nil {
					return err
				}
				for i, b := range bufs {
					if got := BytesInt64(b, nil)[0]; got != int64(i) {
						return fmt.Errorf("message %d carried %d", i, got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
