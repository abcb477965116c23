package fabric

import (
	"sync"
	"sync/atomic"
	"testing"

	"gompi/internal/match"
	"gompi/internal/proc"
	"gompi/internal/vtime"
)

// TestSnapshotDuringDeposits races mid-run snapshots against peers
// depositing tagged messages and active messages. Receive-side
// counters are written under the VCI lock by the senders' goroutines
// (into the VCI's Arrivals, never the receiver's registry), so the
// snapshot must fold them under the same lock — an unlocked copy here
// trips the race detector and can read torn values.
func TestSnapshotDuringDeposits(t *testing.T) {
	const senders, msgs = 3, 500
	f := New(INF, senders+1)
	ms := make([]*proc.Rank, senders+1)
	for i := range ms {
		ms[i] = testRank(1e9)
		f.Endpoint(i).Bind(ms[i])
	}
	f.Endpoint(0).RegisterAM(9, func(int, []byte, []byte, vtime.Time) {})

	var wg sync.WaitGroup
	start := make(chan struct{})
	sending := int32(senders)
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer atomic.AddInt32(&sending, -1)
			<-start
			for i := 0; i < msgs; i++ {
				f.Endpoint(s).TaggedSend(0, match.MakeBits(1, s, i), []byte{byte(s)})
				f.Endpoint(s).AMSend(0, 9, []byte{1}, nil)
			}
		}(s)
	}

	// The receiver snapshots as long as deposits are landing (the
	// Proc.Metrics mid-run path): receive-side counters mutate under
	// the endpoint lock on the senders' goroutines the whole time.
	close(start)
	for atomic.LoadInt32(&sending) > 0 {
		_ = f.Endpoint(0).SnapshotStats()
	}
	wg.Wait()
	f.Endpoint(0).Progress()

	snap := f.Endpoint(0).SnapshotStats()
	if snap.NetRecv.Msgs != senders*msgs {
		t.Fatalf("NetRecv.Msgs = %d, want %d", snap.NetRecv.Msgs, senders*msgs)
	}
	if snap.AmRecv.Msgs != senders*msgs {
		t.Fatalf("AmRecv.Msgs = %d, want %d", snap.AmRecv.Msgs, senders*msgs)
	}
}

// TestAmRecvCountsAtDelivery pins the attribution point of AmRecv: a
// queued-but-undrained active message is not yet "received", so a
// snapshot taken before Progress must not count it.
func TestAmRecvCountsAtDelivery(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 2)
	f.Endpoint(1).RegisterAM(7, func(int, []byte, []byte, vtime.Time) {})
	f.Endpoint(0).AMSend(1, 7, []byte{0xAB}, []byte("data"))

	before := f.Endpoint(1).SnapshotStats()
	if before.AmRecv.Msgs != 0 {
		t.Fatalf("AmRecv counted at enqueue: %+v", before.AmRecv)
	}
	if n := f.Endpoint(1).Progress(); n != 1 {
		t.Fatalf("Progress handled %d messages, want 1", n)
	}
	after := f.Endpoint(1).SnapshotStats()
	if after.AmRecv.Msgs != 1 || after.AmRecv.Bytes != 5 {
		t.Fatalf("AmRecv after delivery = %+v, want {1 5}", after.AmRecv)
	}
}

// TestUnregisteredAMPanics pins the handler table's one failure: an
// active message whose id has no handler panics with the same message
// whether the id falls inside the table (a gap below a registered id)
// or past its end.
func TestUnregisteredAMPanics(t *testing.T) {
	for _, id := range []uint8{2, 8, 255} {
		f, _ := newTestFabric(t, OFI, 2)
		f.Endpoint(1).RegisterAM(7, func(int, []byte, []byte, vtime.Time) {})
		f.Endpoint(0).AMSend(1, id, nil, nil)
		func() {
			defer func() {
				if p := recover(); p != "fabric: active message with unregistered handler" {
					t.Errorf("id %d: recovered %v, want the unregistered-handler panic", id, p)
				}
			}()
			f.Endpoint(1).Progress()
		}()
	}
}
