package fabric

import (
	"sync"
	"testing"

	"gompi/internal/match"
	"gompi/internal/proc"
)

// TestLazyEndpointSingleMaterialization hammers Endpoint() for one rank
// from many goroutines at once: the CAS race must converge on a single
// Endpoint object, never two (a split would lose queued messages).
func TestLazyEndpointSingleMaterialization(t *testing.T) {
	f := New(INF, 32)
	const g = 16
	eps := make([]*Endpoint, g)
	var wg sync.WaitGroup
	wg.Add(g)
	for i := 0; i < g; i++ {
		go func(i int) {
			defer wg.Done()
			eps[i] = f.Endpoint(7)
		}(i)
	}
	wg.Wait()
	for i := 1; i < g; i++ {
		if eps[i] != eps[0] {
			t.Fatalf("goroutine %d materialized a different endpoint", i)
		}
	}
	// Only the touched endpoint exists; the other 31 stay nil.
	if got := f.peek(7); got != eps[0] {
		t.Fatalf("peek(7) = %p, want %p", got, eps[0])
	}
	for r := 0; r < 32; r++ {
		if r != 7 && f.peek(r) != nil {
			t.Fatalf("rank %d materialized without being touched", r)
		}
	}
}

// TestLazyConnChaosFirstTouch drives concurrent first-touch of the same
// peer from multiple lanes per sender — the MPI_THREAD_MULTIPLE shape
// where several VCI lanes open the connection at once. Each (src,dst)
// pair must be accounted exactly once no matter how many lanes race,
// and every message must still be delivered. Run under -race this also
// checks the connection-bit and endpoint CAS interleavings.
func TestLazyConnChaosFirstTouch(t *testing.T) {
	const senders, lanes, msgs = 4, 4, 8
	f := NewVCI(INF, senders+1, 2)
	ms := make([]*proc.Rank, senders+1)
	for i := range ms {
		ms[i] = sharedRank(1e9)
		f.Endpoint(i).Bind(ms[i])
	}

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(s, l int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					bits := match.MakeBits(1, s, l*msgs+i)
					f.Endpoint(s).TaggedSendVCI(0, bits, []byte{byte(s)}, f.VCIForCtx(bits.Context()), nil)
				}
			}(s, l)
		}
	}

	for s := 1; s <= senders; s++ {
		for i := 0; i < lanes*msgs; i++ {
			op := &RecvOp{Buf: make([]byte, 1)}
			f.Endpoint(0).PostRecv(op, match.MakeBits(1, s, i), match.FullMask)
			waitRecv(f.Endpoint(0), op)
			if op.Buf[0] != byte(s) {
				t.Fatalf("message from %d carried %d", s, op.Buf[0])
			}
		}
	}
	wg.Wait()

	for s := 1; s <= senders; s++ {
		if c := f.Endpoint(s).Conns(); c != 1 {
			t.Errorf("sender %d: %d conns, want 1 (one peer touched)", s, c)
		}
		peers := ms[s].Metrics().Snapshot().Peers
		if peers.Touched != 1 || peers.StateBytes != ConnStateBytes {
			t.Errorf("sender %d: peers=%d state=%dB, want 1 peer / %dB — lanes double-counted the first touch",
				s, peers.Touched, peers.StateBytes, ConnStateBytes)
		}
	}
}

// TestEagerConnectRacesFirstTouch overlaps EagerConnect (the all-pairs
// ablation baseline) with on-demand first touches from send lanes: the
// two paths share noteConn, so the union must still count each peer
// exactly once.
func TestEagerConnectRacesFirstTouch(t *testing.T) {
	const n = 16
	f := New(INF, n)
	ms := make([]*proc.Rank, n)
	for i := range ms {
		ms[i] = sharedRank(1e9) // endpoint 0 is driven by two lanes
		f.Endpoint(i).Bind(ms[i])
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.Endpoint(0).EagerConnect()
	}()
	go func() {
		defer wg.Done()
		for dst := 1; dst < n; dst++ {
			f.Endpoint(0).TaggedSend(dst, match.MakeBits(0, 0, dst), []byte{1})
		}
	}()
	wg.Wait()

	if c := f.Endpoint(0).Conns(); c != n-1 {
		t.Fatalf("conns = %d, want %d", c, n-1)
	}
	peers := ms[0].Metrics().Snapshot().Peers
	if peers.Touched != n-1 || peers.StateBytes != (n-1)*ConnStateBytes {
		t.Fatalf("peers=%d state=%dB, want %d peers / %dB",
			peers.Touched, peers.StateBytes, n-1, (n-1)*ConnStateBytes)
	}
}
