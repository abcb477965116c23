// Package fabric simulates the low-level network communication API that
// the paper's netmods (OFI over Omni-Path/PSM2, UCX over Mellanox EDR)
// talk to, plus the "infinitely fast network" build used for Figures 5
// and 6. All ranks live in one address space; the fabric moves real
// bytes between endpoint queues and memory regions, while a cost profile
// charges virtual cycles for descriptor injection, per-byte copies, and
// wire latency. Tag matching is performed "in hardware" at the target
// endpoint, the way PSM2 and UCX expose it, so an MPI device built on
// this fabric does not need a software matching path (and the baseline
// CH3-style device deliberately does not use it).
package fabric

import "gompi/internal/vtime"

// Profile is the cost model of one fabric. Cycle figures are calibrated
// against the paper's measured message rates: on the real networks a
// 1-byte MPI_ISEND costs (MPI software path + SendInject) cycles, and
// the paper's ~50% Isend and ~4x Put rate gains between MPICH/Original
// and MPICH/CH4 pin the injection overheads to a few hundred cycles
// (see DESIGN.md, substitution table).
type Profile struct {
	// Name identifies the profile ("ofi", "ucx", "inf").
	Name string
	// Hz is the model core frequency of the host driving this fabric
	// (IT cluster: 2.2 GHz Broadwell; Gomez: 2.5 GHz Haswell-EX).
	Hz float64
	// SendInject is the CPU cost of injecting a tagged-send descriptor.
	SendInject vtime.Cycles
	// RecvPost is the CPU cost of handing a receive to the NIC's
	// matching unit.
	RecvPost vtime.Cycles
	// RecvComplete is the receiver-side CPU cost of reaping a
	// completion.
	RecvComplete vtime.Cycles
	// PutInject and GetInject are the CPU costs of injecting RDMA
	// descriptors.
	PutInject vtime.Cycles
	GetInject vtime.Cycles
	// AMInject is the CPU cost of injecting an active message (the
	// fallback path and the CH3-style two-sided substrate).
	AMInject vtime.Cycles
	// InjectPerByte is the CPU cost per payload byte on the eager path
	// (PIO/bounce-buffer copy).
	InjectPerByte float64
	// WireLatency is the one-way wire-plus-switch latency in cycles.
	WireLatency vtime.Cycles
	// WirePerByte is the serialization cost per byte added to arrival
	// time (inverse bandwidth).
	WirePerByte float64
	// EagerLimit is the largest payload sent eagerly; larger messages
	// pay a rendezvous handshake (RTS/CTS round trip) before the data
	// moves — the latency cliff every MPI exhibits at its eager
	// threshold. Zero means no limit (the infinitely fast network).
	EagerLimit int
	// RndvInject is the extra CPU cost of the rendezvous control
	// messages on each side.
	RndvInject vtime.Cycles
	// MatchBin is the cycle cost of one matching-unit bin operation
	// (hashing the match word and indexing the bin), and MatchSearch the
	// cost of each queue element the unit inspects. They model the
	// NIC's offloaded match engine honestly: binning is cheap but not
	// free, and deep searches still cost cycles. Zero on the infinitely
	// fast network.
	MatchBin    vtime.Cycles
	MatchSearch vtime.Cycles
	// ConnSetup is the one-time CPU cost of materializing connection
	// state toward a new peer (address-vector insert, QP-like setup) —
	// the per-peer price the on-demand connection model (Liu et al.)
	// defers off the startup path. Charged on first send toward each
	// peer; the EagerPeers ablation pays it for every peer at open.
	// Zero on the infinitely fast network.
	ConnSetup vtime.Cycles
	// InstrCPI is the cycles-per-instruction of MPI software on this
	// platform's cores (1 when unset). The x86 testbeds run the
	// branchy MPI critical path near one instruction per cycle; the
	// BG/Q A2 is a slow in-order core where the same code costs
	// several cycles per instruction — which is exactly why the
	// paper's application results (measured on BG/Q) are so sensitive
	// to instruction counts. It is an integer, so a rank that sums
	// n*InstrCPI over many charges and settles its clock once lands
	// on exactly the per-charge sum.
	InstrCPI int64
}

// OFI models the Intel Omni-Path fabric with the PSM2 provider on the
// 2.2 GHz "IT" cluster (Figure 3).
var OFI = Profile{
	Name:          "ofi",
	Hz:            2.2e9,
	SendInject:    370,
	RecvPost:      40,
	RecvComplete:  60,
	PutInject:     389,
	GetInject:     420,
	AMInject:      410,
	InjectPerByte: 0.3,
	WireLatency:   2200, // ~1 us one-way
	WirePerByte:   0.18, // ~100 Gb/s
	EagerLimit:    8192,
	RndvInject:    250,
	MatchBin:      4, // hash the match word, load the bin head
	MatchSearch:   2,
	ConnSetup:     300,
}

// UCX models the Mellanox EDR fabric with UCX on the 2.5 GHz "Gomez"
// cluster (Figure 4). RDMA writes are comparatively cheaper than tagged
// sends on this stack.
var UCX = Profile{
	Name:          "ucx",
	Hz:            2.5e9,
	SendInject:    430,
	RecvPost:      45,
	RecvComplete:  65,
	PutInject:     360,
	GetInject:     400,
	AMInject:      470,
	InjectPerByte: 0.3,
	WireLatency:   2500, // ~1 us one-way
	WirePerByte:   0.2,  // ~100 Gb/s
	EagerLimit:    8192,
	RndvInject:    220,
	MatchBin:      4, // hash the match word, load the bin head
	MatchSearch:   2,
	ConnSetup:     320,
}

// INF is the paper's "infinitely fast network": every operation
// completes instantly and costs nothing, isolating the MPI software
// path (Figures 5 and 6).
var INF = Profile{
	Name: "inf",
	Hz:   2.2e9,
}

// BGQ models the IBM Blue Gene/Q platform of the application
// experiments (Cetus/Mira, Section 4.3-4.4): a 1.6 GHz in-order A2
// core where MPI software runs at several cycles per instruction, a
// ~1.8 us torus hop, and a large gap between the lightweight native
// messaging path (used by the ch4 netmod) and the generic
// active-message channel the CH3-style baseline lowers everything to.
var BGQ = Profile{
	Name:          "bgq",
	Hz:            1.6e9,
	SendInject:    500,
	RecvPost:      90,
	RecvComplete:  140,
	PutInject:     550,
	GetInject:     650,
	AMInject:      1500,
	InjectPerByte: 0.5,
	WireLatency:   2880, // ~1.8 us
	WirePerByte:   0.45, // ~3.5 GB/s torus link
	EagerLimit:    4096,
	RndvInject:    400,
	MatchBin:      8, // twice the x86 profiles': slow in-order core
	MatchSearch:   4,
	ConnSetup:     900,
	InstrCPI:      6,
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	switch name {
	case "ofi":
		return OFI, true
	case "ucx":
		return UCX, true
	case "bgq":
		return BGQ, true
	case "inf", "":
		return INF, true
	}
	return Profile{}, false
}

// injectCost is the CPU cycles to inject n payload bytes with base
// descriptor cost c.
func (p *Profile) injectCost(c vtime.Cycles, n int) vtime.Cycles {
	return c + vtime.Cycles(p.InjectPerByte*float64(n))
}

// matchCost prices the matching-unit work recorded by (binOps,
// searches) engine-counter deltas.
func (p *Profile) matchCost(binOps, searches int64) vtime.Cycles {
	return vtime.Cycles(binOps)*p.MatchBin + vtime.Cycles(searches)*p.MatchSearch
}

// arrival computes when n bytes injected at time now land at the target.
func (p *Profile) arrival(now vtime.Time, n int) vtime.Time {
	return p.arrivalAt(now, n)
}

// arrivalAt is arrival with an explicit start time (rendezvous delays
// the start by the handshake).
func (p *Profile) arrivalAt(now vtime.Time, n int) vtime.Time {
	return now + vtime.Time(p.WireLatency) + vtime.Time(p.WirePerByte*float64(n))
}
