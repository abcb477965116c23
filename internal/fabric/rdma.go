package fabric

import (
	"sync"
	"sync/atomic"

	"gompi/internal/instr"
	"gompi/internal/vtime"
)

// region is a registered RDMA-accessible memory region. Puts and gets
// access mem directly (all ranks share the address space); maxArrival
// tracks the latest virtual arrival of any remote write, which epoch
// synchronization (fence, unlock) folds into the target's clock.
type region struct {
	rank       int
	mem        []byte
	maxArrival atomic.Int64
	rmwMu      sync.Mutex // serializes read-modify-write (accumulate) ops
}

// regionChunkSlots is the number of keys one chunk of the region table
// covers: small, because a two-rank world pays for the first chunk.
const regionChunkSlots = 32

// regionChunk holds the regions of regionChunkSlots consecutive keys.
type regionChunk [regionChunkSlots]atomic.Pointer[region]

// RegisterRegion exposes mem for RDMA from any endpoint and returns the
// region key remote ranks use to address it (the rkey of a real NIC).
// Window creation exchanges these keys.
func (f *Fabric) RegisterRegion(rank int, mem []byte) int {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	f.nextKey++
	if table := *f.regions.Load(); f.nextKey/regionChunkSlots == len(table) {
		// Growing into spare capacity is safe: a reader of the old
		// header never indexes past its length, and one that sees the
		// new element got the header from the Store below.
		table = append(table, new(regionChunk))
		f.regions.Store(&table)
	}
	f.slot(f.nextKey).Store(&region{rank: rank, mem: mem})
	return f.nextKey
}

// UnregisterRegion revokes a region. The region itself is dropped; its
// 8-byte slot stays, because keys are never reissued (a stale key must
// keep panicking): a program that creates and frees windows in a loop
// grows the table by 8 bytes, plus 8 per regionChunkSlots for the chunk
// pointer, per window ever created.
func (f *Fabric) UnregisterRegion(rank, key int) {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	if f.lookup(rank, key) != nil {
		f.slot(key).Store(nil)
	}
}

// slot returns key's entry in the published table, nil when the table
// does not reach that far (negative keys included).
func (f *Fabric) slot(key int) *atomic.Pointer[region] {
	t := *f.regions.Load()
	if uint(key)/regionChunkSlots >= uint(len(t)) {
		return nil
	}
	return &t[key/regionChunkSlots][key%regionChunkSlots]
}

// lookup resolves (rank, key) to its region, or nil when the key is not
// registered (never issued, or revoked) or names another rank's region.
func (f *Fabric) lookup(rank, key int) *region {
	if s := f.slot(key); s != nil {
		if r := s.Load(); r != nil && r.rank == rank {
			return r
		}
	}
	return nil
}

// RegionLen returns the length of rank's region key; ok is false when
// the key is not registered (never issued, or revoked) or names another
// rank's region. An origin checks a dynamic window's target with it, so
// a stale or short address is an error rather than an RDMA panic.
func (f *Fabric) RegionLen(rank, key int) (n int, ok bool) {
	if r := f.lookup(rank, key); r != nil {
		return len(r.mem), true
	}
	return 0, false
}

func (f *Fabric) region(rank, key int) *region {
	r := f.lookup(rank, key)
	if r == nil {
		panic("fabric: RDMA to unregistered region")
	}
	return r
}

// noteArrival folds a write's virtual arrival time into the region's
// high-water mark.
func (r *region) noteArrival(t vtime.Time) {
	for {
		cur := r.maxArrival.Load()
		if int64(t) <= cur || r.maxArrival.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Put writes data into (dst, key) at byte offset off: a one-sided RDMA
// write with no software on the target. Local completion is at
// injection (the data is placed immediately; its virtual arrival is
// recorded on the region).
func (ep *Endpoint) Put(dst, key, off int, data []byte) {
	p := &ep.f.prof
	ep.meter.ChargeCycles(instr.Transport, p.injectCost(p.PutInject, len(data)))
	arrival := p.arrival(ep.meter.Now(), len(data))

	r := ep.f.region(dst, key)
	copy(r.mem[off:], data)
	r.noteArrival(arrival)
}

// Get reads len(buf) bytes from (dst, key) at offset off into buf: a
// one-sided RDMA read. The origin's clock advances by the round trip.
func (ep *Endpoint) Get(dst, key, off int, buf []byte) {
	p := &ep.f.prof
	ep.meter.ChargeCycles(instr.Transport, p.injectCost(p.GetInject, 0))

	r := ep.f.region(dst, key)
	copy(buf, r.mem[off:off+len(buf)])
	// Round trip: request out, data back.
	ep.meter.Sync(p.arrival(p.arrival(ep.meter.Now(), 0), len(buf)))
}

// RMW applies fn to the target bytes under the region's atomicity lock:
// the substrate for MPI_ACCUMULATE, MPI_FETCH_AND_OP and
// MPI_COMPARE_AND_SWAP, which real NICs execute atomically per element.
// fn receives the target slice; any prior contents it reads are
// current. The origin pays a round trip (fetching semantics) plus the
// payload injection.
func (ep *Endpoint) RMW(dst, key, off, n int, fn func(target []byte)) {
	p := &ep.f.prof
	ep.meter.ChargeCycles(instr.Transport, p.injectCost(p.PutInject, n))
	arrival := p.arrival(ep.meter.Now(), n)

	r := ep.f.region(dst, key)
	r.rmwMu.Lock()
	fn(r.mem[off : off+n])
	r.rmwMu.Unlock()
	r.noteArrival(arrival)
	ep.meter.Sync(p.arrival(arrival, 0)) // completion ack round trip
}

// PutLocal deposits data into (dst, key) by direct store — the
// zero-copy path for shm-backed windows: ranks on one node share the
// address space, so an intra-node Put is a memcpy into the window, not
// an injection. The caller has already charged the copy's cycles;
// arrival is the store's virtual completion time, recorded on the
// region so epoch-closing synchronization folds it in like any RDMA
// write.
func (f *Fabric) PutLocal(dst, key, off int, data []byte, arrival vtime.Time) {
	r := f.region(dst, key)
	copy(r.mem[off:], data)
	r.noteArrival(arrival)
}

// GetLocal reads len(buf) bytes from (dst, key) at offset off by
// direct load — the zero-copy intra-node Get. No round trip: the
// caller charges the copy and the data is immediately current.
func (f *Fabric) GetLocal(dst, key, off int, buf []byte) {
	r := f.region(dst, key)
	copy(buf, r.mem[off:off+len(buf)])
}

// RMWLocal applies fn to the target bytes under the region's atomicity
// lock without any wire charges — the intra-node lent-view fold: the
// origin mutates the target's bytes where they lie (zero staged, zero
// direct copies). fn sees current contents; arrival records the fold's
// virtual completion on the region.
func (f *Fabric) RMWLocal(dst, key, off, n int, fn func(target []byte), arrival vtime.Time) {
	r := f.region(dst, key)
	r.rmwMu.Lock()
	fn(r.mem[off : off+n])
	r.rmwMu.Unlock()
	r.noteArrival(arrival)
}

// RegionMem exposes the raw memory of a locally registered region to
// the one-sided active-message handlers (core.AM): the target of a put
// or get packet works on its own window memory.
func (f *Fabric) RegionMem(rank, key int) []byte {
	return f.region(rank, key).mem
}

// RegionAtomic runs fn on the memory of a locally registered region
// under the region's atomicity lock, recording no arrival: the target
// side of an active-message accumulate, which must exclude a NIC atomic
// (RMW, RMWLocal) folding the same bytes.
func (f *Fabric) RegionAtomic(rank, key int, fn func(mem []byte)) {
	r := f.region(rank, key)
	r.rmwMu.Lock()
	defer r.rmwMu.Unlock()
	fn(r.mem)
}

// RegionArrival returns the latest virtual arrival of any remote write
// to (rank, key). Epoch-closing synchronization calls this on the
// target side so the target's clock reflects the data it is about to
// read.
func (f *Fabric) RegionArrival(rank, key int) vtime.Time {
	return vtime.Time(f.region(rank, key).maxArrival.Load())
}
