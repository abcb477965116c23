package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gompi/internal/abort"
	"gompi/internal/stall"
)

// Options are the fabric's scale knobs — the on-demand connection
// model of Liu et al. (MPICH2 over InfiniBand) and its measurable
// ablation.
type Options struct {
	// EagerPeers restores all-pairs peer-state materialization at
	// endpoint open (today's eager model, kept as the measurable
	// baseline). Default false: connection state materializes on first
	// send toward a peer.
	EagerPeers bool
	// MaxPeerBytes is the hard per-rank ceiling on modeled per-peer
	// state bytes (connection slots, shm rings). Exceeding it panics
	// the rank — the assertion the lazy model is tested against.
	// 0 means unlimited.
	MaxPeerBytes int64
}

// Fabric is one simulated network connecting n endpoints (one per
// rank), each split into nvci virtual communication interfaces. It owns
// the RDMA memory-region registry.
//
// Endpoints materialize lazily: the constructor allocates only the
// pointer table, and an endpoint's VCI/buffer-pool structures come into
// existence on first use — the owner's Open, a peer's first deposit, or
// a matched receive — via a CAS race any number of first-touchers may
// enter safely.
type Fabric struct {
	prof    Profile
	nvci    int
	opts    Options
	eps     []atomic.Pointer[Endpoint]
	aborted abort.Flag

	// stall is the optional stall watchdog (nil when disabled; all its
	// methods are nil-safe). Park sites register blocked goroutines
	// with it and every event broadcast bumps its activity counter.
	stall *stall.Monitor

	// regions is the RDMA region table, indexed by key: keys are dense
	// integers, so a lookup is one load of the chunk table and one of
	// the slot, with nothing shared written. regMu serializes
	// registration and revocation; a registration that needs a new chunk
	// publishes a longer copy of the table, never mutating a published
	// one.
	regMu   sync.Mutex
	regions atomic.Pointer[[]*regionChunk]
	nextKey int
}

// New creates a fabric with n single-VCI endpoints using the given cost
// profile — behaviorally identical to the pre-VCI fabric.
func New(prof Profile, n int) *Fabric { return NewVCI(prof, n, 1) }

// NewVCI creates a fabric whose endpoints each expose nvci virtual
// communication interfaces. nvci below 1 is treated as 1.
func NewVCI(prof Profile, n, nvci int) *Fabric {
	return NewVCIOpt(prof, n, nvci, Options{})
}

// NewVCIOpt is NewVCI with the scale knobs. Construction is O(1) in
// per-endpoint work: no endpoint structure exists until first touch.
func NewVCIOpt(prof Profile, n, nvci int, opts Options) *Fabric {
	if nvci < 1 {
		nvci = 1
	}
	f := &Fabric{
		prof: prof,
		nvci: nvci,
		opts: opts,
		eps:  make([]atomic.Pointer[Endpoint], n),
	}
	f.regions.Store(new([]*regionChunk))
	return f
}

// Profile returns the fabric's cost profile.
func (f *Fabric) Profile() Profile { return f.prof }

// Rendezvous reports whether an n-byte tagged send crosses the eager
// limit: it pays the RTS/CTS handshake, and TaggedSendVCI lends it when
// given a releaser.
func (f *Fabric) Rendezvous(n int) bool { return f.prof.EagerLimit > 0 && n > f.prof.EagerLimit }

// Size returns the number of endpoints.
func (f *Fabric) Size() int { return len(f.eps) }

// VCIForCtx is the one traffic-to-VCI rule: every message of a
// communicator — sends, receives, probes and matched probes, wildcard
// or not — rides the interface its context names, so a receive never
// searches more than one lane and MPI's non-overtaking order is that
// lane's queue order. Contexts are allocated in pt2pt/collective pairs
// (even/odd), so the pair index picks the interface: a communicator's
// collective traffic shares its lane, and consecutive communicators
// land on consecutive lanes.
func (f *Fabric) VCIForCtx(ctx uint16) int {
	if f.nvci == 1 {
		return 0
	}
	return int(ctx>>1) % f.nvci
}

// SetStall attaches the stall watchdog. Must be called before
// communication starts; nil detaches.
func (f *Fabric) SetStall(m *stall.Monitor) { f.stall = m }

// Abort marks the fabric dead and wakes every endpoint: blocked waits
// panic with abort.ErrWorldAborted, which the rank runtime converts to
// errors. Called when any rank fails, so the original error surfaces
// instead of a hang.
func (f *Fabric) Abort() {
	f.aborted.Raise()
	for i := range f.eps {
		// Never-materialized endpoints have no waiters to wake.
		if ep := f.eps[i].Load(); ep != nil {
			ep.wake()
		}
	}
}

// Endpoint returns rank's endpoint, materializing it on first touch.
// Any goroutine may be the first toucher (the owner at Open, a peer
// depositing the first message); losers of the CAS race discard their
// candidate and adopt the winner's.
func (f *Fabric) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= len(f.eps) {
		panic(fmt.Sprintf("fabric: endpoint %d out of range [0,%d)", rank, len(f.eps)))
	}
	if ep := f.eps[rank].Load(); ep != nil {
		return ep
	}
	ep := newEndpoint(f, rank, f.nvci)
	if f.eps[rank].CompareAndSwap(nil, ep) {
		return ep
	}
	return f.eps[rank].Load()
}

// peek returns rank's endpoint if it has materialized, nil otherwise —
// for observers (dumps, abort) that must not trigger materialization.
func (f *Fabric) peek(rank int) *Endpoint { return f.eps[rank].Load() }

// checkPeerCeiling enforces the MaxPeerBytes assertion: total is the
// rank's modeled per-peer state after the latest materialization.
func (f *Fabric) checkPeerCeiling(rank int, total int64) {
	if f.opts.MaxPeerBytes > 0 && total > f.opts.MaxPeerBytes {
		panic(fmt.Sprintf("fabric: rank %d per-peer state %d bytes exceeds MaxPeerBytes %d",
			rank, total, f.opts.MaxPeerBytes))
	}
}
