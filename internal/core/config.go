// Package core defines the abstract device interface (ADI) between the
// machine-independent MPI layer and the devices (ch4, original), the
// build configurations of Figure 2, and the operation flags that encode
// the paper's proposed MPI standard extensions. Parameters flow through
// the ADI at MPI-level fidelity — the devices see which MPI call
// triggered an operation, with all its arguments — which is the CH4
// design takeaway the paper highlights.
package core

import (
	"gompi/internal/datatype"
	"gompi/internal/instr"
	"gompi/internal/proc"
)

// Config is the library build configuration. Each knob corresponds to
// one step of the Figure 2 ladder: the default build has everything on;
// "no-err" clears ErrorChecking; "no-err-single" additionally clears
// ThreadCheck; "no-err-single-ipo" additionally sets Inline, modeling
// link-time inlining (which removes function-call overhead and lets the
// compiler fold the redundant runtime checks of Section 2.2 into
// compile-time constants).
type Config struct {
	// ErrorChecking validates arguments and objects on every call.
	ErrorChecking bool
	// ThreadCheck branches on the runtime threading level on every
	// call, even when the application is single-threaded — the
	// software-distribution compromise described in Section 2.1.
	ThreadCheck bool
	// ThreadMultiple serializes communication with per-object critical
	// sections (implies the runtime check is taken, not just present).
	ThreadMultiple bool
	// Inline models link-time inlining of the performance-critical MPI
	// functions: function-call overhead and redundant runtime checks
	// are no longer charged.
	Inline bool
	// VCIs is the number of virtual communication interfaces each
	// rank's endpoint exposes (0 or 1 = the classic single-interface
	// endpoint). Only the ch4 device honors it; the baseline device
	// keeps the CH3-era single critical section regardless.
	VCIs int
	// ShmEagerMax is the shared-memory staged/handoff threshold in
	// bytes: on-node payloads strictly larger than it are lent to the
	// receiver as zero-copy handoff descriptors instead of being
	// fragmented through ring cells. 0 disables the handoff path.
	// Only the ch4 device honors it.
	ShmEagerMax int
	// ShmCellSize and ShmRingCells override the shared-memory ring
	// geometry (0 = the shm package defaults), so the eager/handoff
	// crossover can be swept against the cell cost model.
	ShmCellSize  int
	ShmRingCells int
	// EagerPeers restores all-pairs per-peer state materialization at
	// endpoint open (fabric connections and on-node shm rings toward
	// every peer) — the pre-on-demand model, kept as the measurable
	// baseline of the lazy-peer-state ablation. Default false: peer
	// state materializes on first send toward each peer.
	EagerPeers bool
	// MaxPeerBytes is the hard per-rank ceiling on modeled per-peer
	// state bytes (fabric connection slots + shm rings). A rank whose
	// materializations exceed it panics — the assertion that bounds
	// memory at 10K-rank scale. 0 means unlimited.
	MaxPeerBytes int64
}

// The named builds of Figure 2.
var (
	// Default is the user- and administrator-friendly build.
	Default = Config{ErrorChecking: true, ThreadCheck: true}
	// NoErr disables error checking ("mpich/ch4 (no-err)").
	NoErr = Config{ThreadCheck: true}
	// NoErrSingle also removes the thread-safety check
	// ("mpich/ch4 (no-err-single)").
	NoErrSingle = Config{}
	// NoErrSingleIPO adds link-time inlining
	// ("mpich/ch4 (no-err-single-ipo)").
	NoErrSingleIPO = Config{Inline: true}
)

// Pays reports whether the build charges an instruction of category
// cat: Table 1's removal rules. Link-time inlining drops the Call and
// Redundant categories — except the re-derivation of a class-3 datatype
// (opaqueType), a predefined type reached through a runtime variable,
// which the compiler cannot fold unless the whole application is
// inlined (Section 2.2) — and a build without thread support drops
// ThreadCheck.
func (c Config) Pays(cat instr.Category, opaqueType bool) bool {
	inlined := cat == instr.Call || cat == instr.Redundant && !opaqueType
	return !(c.Inline && inlined || !c.ThreadCheck && cat == instr.ThreadCheck)
}

// Meter charges one rank's instructions under its build's removal
// rules: Pays, evaluated per category when the meter is made, so a
// charge is one load and a branch in front of the rank's add.
type Meter struct {
	rank   *proc.Rank
	pays   [instr.NumCategories]bool
	opaque bool // Pays(Redundant, true): a class-3 type's re-derivation
}

// NewMeter binds r's charges to the build c.
func NewMeter(r *proc.Rank, c Config) Meter {
	m := Meter{rank: r, opaque: c.Pays(instr.Redundant, true)}
	for cat := range m.pays {
		m.pays[cat] = c.Pays(instr.Category(cat), false)
	}
	return m
}

// Charge records n instructions in cat, unless the build removes cat.
// No build removes Mandatory, the category most charges land in, so at
// a call site naming it the test folds away and the charge is the bare
// add.
func (m *Meter) Charge(cat instr.Category, n int64) {
	if cat == instr.Mandatory || m.pays[cat] {
		m.rank.Charge(cat, n)
	}
}

// ChargeType records n Redundant instructions re-deriving dt, which a
// build keeps for a class-3 type even where it removes Redundant.
func (m *Meter) ChargeType(dt *datatype.Type, n int64) {
	if m.pays[instr.Redundant] || m.opaque && dt.RuntimeMapped() {
		m.rank.Charge(instr.Redundant, n)
	}
}

// ConfigByName resolves the Figure 2 legend names.
func ConfigByName(name string) (Config, bool) {
	switch name {
	case "default", "":
		return Default, true
	case "no-err":
		return NoErr, true
	case "no-err-single":
		return NoErrSingle, true
	case "no-err-single-ipo", "ipo":
		return NoErrSingleIPO, true
	}
	return Config{}, false
}

// OpFlags selects the proposed standard extensions on a per-call basis
// (Section 3). Zero means plain MPI-3.1 semantics.
type OpFlags uint8

// Extension flags.
const (
	// FlagGlobalRank: the destination is an MPI_COMM_WORLD rank and
	// communicator rank translation is skipped (MPI_ISEND_GLOBAL,
	// Section 3.1).
	FlagGlobalRank OpFlags = 1 << iota
	// FlagPredefComm: the communicator came from the predefined handle
	// table, so referencing it is a constant-indexed global load
	// instead of a dereference into a dynamically allocated object
	// (MPI_COMM_DUP_PREDEFINED, Section 3.3).
	FlagPredefComm
	// FlagNoProcNull: the caller guarantees the target is not
	// MPI_PROC_NULL (MPI_ISEND_NPN, Section 3.4).
	FlagNoProcNull
	// FlagNoReq: no request object; completion is counted on the
	// communicator and collected by MPI_COMM_WAITALL
	// (MPI_ISEND_NOREQ, Section 3.5).
	FlagNoReq
	// FlagNoMatch: source and tag match bits are disabled; messages
	// match receives in arrival order within the communicator
	// (MPI_ISEND_NOMATCH, Section 3.6).
	FlagNoMatch
	// FlagVirtAddr: the RMA target location is a virtual address, not
	// a window offset (MPI_PUT_VIRTUAL_ADDR, Section 3.2).
	FlagVirtAddr

	// FlagAllOpts combines every point-to-point proposal; the device
	// takes a dedicated hand-minimized path (MPI_ISEND_ALL_OPTS,
	// Section 3.7).
	FlagAllOpts = FlagGlobalRank | FlagPredefComm | FlagNoProcNull | FlagNoReq | FlagNoMatch
)

// Has reports whether all bits of q are set.
func (f OpFlags) Has(q OpFlags) bool { return f&q == q }

// ProcNull is the MPI_PROC_NULL sentinel rank: communication addressed
// to it is discarded.
const ProcNull = -2

// AnySource is the MPI_ANY_SOURCE wildcard for receives.
const AnySource = -1

// AnyTag is the MPI_ANY_TAG wildcard for receives.
const AnyTag = -1
