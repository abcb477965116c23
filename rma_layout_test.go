package gompi

import (
	"bytes"
	"fmt"
	"testing"
)

// rmaFuzzType builds the derived target type one FuzzRmaDerivedLayout
// input describes: a vector, hvector or indexed type of 1-3 blocks over
// MPI_BYTE or MPI_LONG. Blocks never overlap, so every target byte is
// written at most once (MPI forbids overlapping target entries).
func rmaFuzzType(kind uint8, long bool, blocks, blocklen, gap uint8) (*Datatype, *Datatype, error) {
	base := Byte
	if long {
		base = Long
	}
	nb, bl, g := 1+int(blocks%3), 1+int(blocklen%3), int(gap)
	var dt *Datatype
	var err error
	switch kind % 3 {
	case 0:
		dt, err = TypeVector(nb, bl, bl+g%3, base)
	case 1:
		dt, err = TypeHvector(nb, bl, bl*base.Size()+g%5, base)
	default:
		lens, displs := make([]int, nb), make([]int, nb)
		at := g % 2
		for i := range lens {
			lens[i] = 1 + (bl>>i)%2
			displs[i] = at
			at += lens[i] + (g>>(i+1))%3
		}
		dt, err = TypeIndexed(lens, displs, base)
	}
	if err != nil {
		return nil, nil, err
	}
	return dt, base, dt.Commit()
}

// rmaRef is what one derived Put, Get and Accumulate(OpSum) must leave
// behind, built with the public Pack, Unpack and ReduceLocal: the
// target window after the put and after the accumulate, and the origin
// buffer after the get. A GetAccumulate(OpSum) leaves the accumulate's
// window and the get's bytes in its result buffer. out is set when the
// target range passes the window's end.
type rmaRef struct {
	put, get, acc []byte
	out           bool
}

func rmaReference(dt, base *Datatype, count, disp int, win, origin []byte) (rmaRef, error) {
	packedO := make([]byte, PackedSize(count, dt))
	if _, err := Pack(origin, count, dt, packedO); err != nil {
		return rmaRef{}, err
	}
	packedW := make([]byte, len(packedO))
	if _, err := Pack(win[disp:], count, dt, packedW); err != nil {
		return rmaRef{out: true}, nil // the layout reaches past the window
	}
	ref := rmaRef{put: bytes.Clone(win), get: bytes.Clone(origin), acc: bytes.Clone(win)}
	if _, err := Unpack(packedO, count, dt, ref.put[disp:]); err != nil {
		return ref, err
	}
	if _, err := Unpack(packedW, count, dt, ref.get); err != nil {
		return ref, err
	}
	if err := ReduceLocal(packedO, packedW, len(packedW)/base.Size(), base, OpSum); err != nil {
		return ref, err
	}
	_, err := Unpack(packedW, count, dt, ref.acc[disp:])
	return ref, err
}

// FuzzRmaDerivedLayout: a derived target layout (vector, hvector or
// indexed over byte or long, 1-3 elements) at a displacement into a
// 64-byte window. Put, Get, Accumulate(OpSum) and GetAccumulate(OpSum)
// on ch4 off-node, ch4 on-node and the baseline must leave the window,
// the get buffer and the result buffer exactly as the
// Pack/Unpack/ReduceLocal reference does, and a layout
// whose reach passes the window's end must fail at the origin with
// ErrWin, with no rank panicking.
func FuzzRmaDerivedLayout(f *testing.F) {
	f.Add(uint8(0), false, uint8(1), uint8(0), uint8(1), uint8(0), uint8(0))  // vector(2,1,2,byte)
	f.Add(uint8(0), false, uint8(1), uint8(0), uint8(1), uint8(0), uint8(62)) // the same, reaching past the end
	f.Add(uint8(0), true, uint8(1), uint8(0), uint8(1), uint8(1), uint8(3))   // vector(2,1,2,long), 2 elements
	f.Add(uint8(1), true, uint8(2), uint8(1), uint8(3), uint8(0), uint8(5))   // hvector over long
	f.Add(uint8(2), false, uint8(2), uint8(5), uint8(7), uint8(2), uint8(9))  // indexed over byte, 3 elements
	f.Add(uint8(2), true, uint8(1), uint8(2), uint8(6), uint8(0), uint8(20))  // indexed over long
	f.Fuzz(func(t *testing.T, kind uint8, long bool, blocks, blocklen, gap, count, disp uint8) {
		const winSize = 64
		dt, base, err := rmaFuzzType(kind, long, blocks, blocklen, gap)
		if err != nil {
			t.Fatal(err)
		}
		n, at := 1+int(count%3), int(disp%winSize)
		win0 := make([]byte, winSize)
		for i := range win0 {
			win0[i] = byte(10 + i)
		}
		origin0 := make([]byte, n*dt.Extent())
		for i := range origin0 {
			origin0[i] = byte(200 - i)
		}
		ref, err := rmaReference(dt, base, n, at, win0, origin0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Fabric: FabricOFI},
			{Fabric: FabricOFI, RanksPerNode: 2},
			{Device: DeviceOriginal, Fabric: FabricOFI},
		} {
			for _, op := range []string{"put", "get", "acc", "getacc"} {
				var gotWin, gotOrigin, gotResult []byte
				var opErr error
				run(t, 2, cfg, func(p *Proc) error {
					mem := bytes.Clone(win0)
					win, err := p.World().WinCreate(mem, 1)
					if err != nil {
						return err
					}
					if err := win.Fence(); err != nil {
						return err
					}
					if p.Rank() == 0 {
						gotOrigin, gotResult = bytes.Clone(origin0), bytes.Clone(origin0)
						switch op {
						case "put":
							opErr = win.Put(gotOrigin, n, dt, 1, at)
						case "get":
							opErr = win.Get(gotOrigin, n, dt, 1, at)
						case "acc":
							opErr = win.Accumulate(gotOrigin, n, dt, 1, at, OpSum)
						default:
							opErr = win.GetAccumulate(gotOrigin, gotResult, n, dt, 1, at, OpSum)
						}
					}
					if err := win.Fence(); err != nil {
						return err
					}
					if p.Rank() == 1 {
						gotWin = bytes.Clone(mem)
					}
					return win.Free()
				})
				what := fmt.Sprintf("%s %s of %s x%d at %d on %s", op, dt.Name(), base.Name(), n, at, cfgName(cfg))
				if ref.out {
					if ClassOf(opErr) != ErrWin {
						t.Fatalf("%s: out-of-window error %v, want class %v", what, opErr, ErrWin)
					}
					if !bytes.Equal(gotWin, win0) || !bytes.Equal(gotOrigin, origin0) || !bytes.Equal(gotResult, origin0) {
						t.Fatalf("%s: a refused operation moved bytes", what)
					}
					continue
				}
				if opErr != nil {
					t.Fatalf("%s: %v", what, opErr)
				}
				wantWin, wantOrigin, wantResult := win0, origin0, origin0
				switch op {
				case "put":
					wantWin = ref.put
				case "get":
					wantOrigin = ref.get
				case "acc":
					wantWin = ref.acc
				default:
					wantWin, wantResult = ref.acc, ref.get
				}
				if !bytes.Equal(gotWin, wantWin) {
					t.Fatalf("%s: window %v, want %v", what, gotWin, wantWin)
				}
				if !bytes.Equal(gotOrigin, wantOrigin) {
					t.Fatalf("%s: origin %v, want %v", what, gotOrigin, wantOrigin)
				}
				if !bytes.Equal(gotResult, wantResult) {
					t.Fatalf("%s: result %v, want %v", what, gotResult, wantResult)
				}
			}
		}
	})
}
