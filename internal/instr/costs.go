// Package instr provides abstract-instruction accounting for the MPI
// critical path. It stands in for the Intel SDE traces used in the paper:
// every check, dereference, branch, call-frame setup, and arithmetic step
// that the implementation executes charges a documented cost into a
// per-category counter. Because charging happens only on paths the code
// actually takes, the per-build-configuration counts (Table 1, Figure 2)
// are produced by executing the real critical path, not hard-coded.
//
// The same charges drive the virtual clock (see package vtime) with a
// CPI of 1.0, so instruction counts and message rates come from a single
// cost model.
package instr

// Category labels where on the critical path instructions are spent.
// The first five mirror the rows of Table 1 in the paper; Transport and
// Compute cover costs outside the MPI software stack proper (network
// injection cycles and application arithmetic) and never count toward
// the MPI instruction totals.
type Category uint8

const (
	// ErrorCheck is argument and object validation (Table 1 "Error
	// checking"). Not mandated by the standard; removed by the no-err
	// build.
	ErrorCheck Category = iota
	// ThreadCheck is the runtime thread-safety check (Table 1
	// "Thread-safety check"). Removed by the single-threaded build.
	ThreadCheck
	// Call is MPI function call overhead (Table 1 "MPI function
	// call"). Removed by link-time inlining (ipo).
	Call
	// Redundant is runtime checks that would be compile-time constant
	// if the call were inlined, e.g. re-deriving the size of
	// MPI_DOUBLE on every call (Table 1 "Redundant runtime checks").
	// Removed by link-time inlining (ipo).
	Redundant
	// Mandatory is overhead forced by MPI-3.1 semantics: rank
	// translation, object dereference, MPI_PROC_NULL handling, request
	// management, match bits (Table 1 "MPI mandatory overheads").
	// Only the proposed standard extensions (Section 3) remove these.
	Mandatory
	// Transport is network/shared-memory injection and delivery cost,
	// charged by the fabric, not the MPI library.
	Transport
	// Compute is application arithmetic (SpMV flops, LJ force loops),
	// charged by the applications.
	Compute

	// NumCategories is the number of charge categories.
	NumCategories
)

// String returns the Table-1-style row label for the category.
func (c Category) String() string {
	switch c {
	case ErrorCheck:
		return "Error checking"
	case ThreadCheck:
		return "Thread-safety check"
	case Call:
		return "MPI function call"
	case Redundant:
		return "Redundant runtime checks"
	case Mandatory:
		return "MPI mandatory overheads"
	case Transport:
		return "Transport"
	case Compute:
		return "Compute"
	default:
		return "Unknown"
	}
}

// MPICategories lists the categories that count as MPI-library
// instructions (the rows of Table 1), in presentation order.
var MPICategories = [...]Category{ErrorCheck, ThreadCheck, Call, Redundant, Mandatory}

// Cost names one row of the cost table.
type Cost uint8

// The rows of Table, grouped by who charges them: the public layer
// above the ADI, then the devices' call, redundant and mandatory
// charges. Each device charges its own column.
const (
	CallEntry Cost = iota
	ThreadLevel
	ThreadLevelWin
	ThreadLock
	CommCreateStep

	Dispatch
	DispatchRMA

	RedundantMarshal
	RedundantReload
	RedundantDatatype
	RedundantBufAddr
	RedundantComplete
	RedundantRMA
	PacketGeneric
	PacketGenericRMA

	ProcNull
	CommDeref
	CommPredef
	RankTranslate
	RankTranslateDense
	MatchBits
	MatchBitsNoMatch
	MatchBitsHint
	MatchBitsHintPredef
	Request
	Counter
	Locality
	NetmodPrep
	ShmPrep
	SelfLoop
	RecvPost
	AllOptsInject
	Pack
	HeaderBuild
	ProtoBranch
	MatchSearch
	MatchComplete

	WinDeref
	EpochTrack
	OffsetXlate
	VirtAddr
	RDMADesc
	AMFallback
	AMHandler
	LockProto
	FlushProto
	FlushLocal
	PutAllOpts
	RMAOpAlloc
	RMAOpQueue
	RMASegment
	RMAHeaders
	RMASendPath
	RMARequest
	RMAAck
	RMATargetSide

	// NumCosts is the number of rows.
	NumCosts
)

// NA marks a column whose device never pays the row's cost.
const NA = -1

// Row is one line of the cost table: what one code structure costs on
// each device, and where the number comes from.
type Row struct {
	Name     string
	Cat      Category // the Table 1 row the charge lands in
	CH3, CH4 int64    // the original and the ch4 device's values, or NA
	// Source is a paper section or figure, or "calibrated to 221/217"
	// (Table 1's default-build totals) or "calibrated to 253/1342" (the
	// baseline's Figure 2 totals) where the paper states only the sum,
	// or "model" for a cost no paper number constrains.
	Source string
}

// Table is the cost model: every instruction count the two devices and
// the public layer charge, defined once. The public layer's rows sit
// above the ADI, so both columns hold the same value (Value). Fused
// charges add rows at the charge site; per-byte work is priced by the
// formulas below. Which rows a build pays is core.Config.Pays.
var Table = [NumCosts]Row{
	CallEntry:      {"CallEntry", Call, 17, 17, "§2: each MPI call takes around 16-18 instructions to load the stack and registers"},
	ThreadLevel:    {"ThreadLevel", ThreadCheck, 6, 6, "§2.1, Table 1: the MPI_ISEND thread-safety check, 6"},
	ThreadLevelWin: {"ThreadLevelWin", ThreadCheck, 14, 14, "§2.1, Table 1: the MPI_PUT thread-safety check, 14 (also checks the window's mode)"},
	ThreadLock:     {"ThreadLock", ThreadCheck, 16, 16, "model: an uncontended mutex acquire and release, two locked read-modify-writes of 8"},
	CommCreateStep: {"CommCreateStep", Transport, 40, 40, "model: one context-id agreement round; creation pays ceil(log2 n)"},

	Dispatch:    {"Dispatch", Call, 18, 6, "calibrated to 221/217 (Table 1 call row 23 = 17 + 6) and 253/1342 (ADI3, CH3, channel, netmod)"},
	DispatchRMA: {"DispatchRMA", Call, 45, 8, "calibrated to 221/217 (Table 1 call row 25 = 17 + 8) and 253/1342 (RMA frontend, op queue, channel)"},

	RedundantMarshal:  {"RedundantMarshal", Redundant, 16, 16, "§2.2, calibrated to 221/217: the generic ADI parameter struct fill"},
	RedundantReload:   {"RedundantReload", Redundant, 8, 8, "§2.2, calibrated to 221/217: the device-side reload of those parameters"},
	RedundantDatatype: {"RedundantDatatype", Redundant, 14, 14, "§2.2, calibrated to 221/217: datatype size and contiguity re-derivation; survives ipo for class-3 types"},
	RedundantBufAddr:  {"RedundantBufAddr", Redundant, 9, 9, "§2.2, calibrated to 221/217: buffer address and alignment"},
	RedundantComplete: {"RedundantComplete", Redundant, 12, 12, "§2.2, calibrated to 221/217: completion-mode genericity"},
	RedundantRMA:      {"RedundantRMA", Redundant, 15, 15, "§2.2, calibrated to 221/217 and 253/1342: ch4's static/dynamic window kind, CH3's op union"},
	PacketGeneric:     {"PacketGeneric", Redundant, 12, NA, "calibrated to 253/1342: CH3's generic packet-type switch (mandatory at the target)"},
	PacketGenericRMA:  {"PacketGenericRMA", Redundant, 15, NA, "calibrated to 253/1342: the packet switch's RMA variant"},

	ProcNull:            {"ProcNull", Mandatory, 3, 3, "§3.4: the MPI_PROC_NULL compare and branch, ~3"},
	CommDeref:           {"CommDeref", Mandatory, 8, 8, "§3.3: the dereference into the communicator object, 8"},
	CommPredef:          {"CommPredef", Mandatory, NA, 1, "§3.3: the predefined handle's constant-indexed global load"},
	RankTranslate:       {"RankTranslate", Mandatory, 11, 11, "§3.1: the compressed rank-to-address lookup of [22], ~11"},
	RankTranslateDense:  {"RankTranslateDense", Mandatory, NA, 4, "§3.1 ablation: an O(P) table lookup, 2 plus a dereference (2)"},
	MatchBits:           {"MatchBits", Mandatory, 5, 5, "§3.6: the (context, source, tag) match word, 5"},
	MatchBitsNoMatch:    {"MatchBitsNoMatch", Mandatory, NA, 1, "§3.6: the context load MPI_ISEND_NOMATCH leaves"},
	MatchBitsHint:       {"MatchBitsHint", Mandatory, NA, 5, "§3.6 alternative: the info hint, 1 plus a branch (2) plus a communicator dereference (2)"},
	MatchBitsHintPredef: {"MatchBitsHintPredef", Mandatory, NA, 3, "§3.6 alternative with §3.3: the hint's branch (2) on a predefined communicator, plus 1"},
	Request:             {"Request", Mandatory, 21, 13, "§3.5: a request from the rank's pool; CH3's globally locked pool calibrated to 253/1342"},
	Counter:             {"Counter", Mandatory, 3, 3, "§3.5: the counter increment that replaces the request, ~3"},
	Locality:            {"Locality", Mandatory, NA, 4, "calibrated to 221/217: the ch4 core's self/shm/netmod dispatch"},
	NetmodPrep:          {"NetmodPrep", Mandatory, NA, 15, "calibrated to 221/217: the netmod descriptor (endpoint, remote address, completion slot)"},
	ShmPrep:             {"ShmPrep", Mandatory, NA, 10, "model: the shmmod descriptor, cheaper than the netmod's"},
	SelfLoop:            {"SelfLoop", Mandatory, NA, 6, "model: the ch4 core's self-send shortcut"},
	RecvPost:            {"RecvPost", Mandatory, NA, 12, "model: readying the matching unit's receive descriptor"},
	AllOptsInject:       {"AllOptsInject", Mandatory, NA, 11, "§3.7: buffer address and length (2) plus the fused descriptor write and doorbell (9)"},
	Pack:                {"Pack", Mandatory, 10, 10, "model: pack or unpack setup; PackCost adds half an instruction per byte"},
	HeaderBuild:         {"HeaderBuild", Mandatory, 12, NA, "calibrated to 253/1342: the eager envelope marshal"},
	ProtoBranch:         {"ProtoBranch", Mandatory, 7, NA, "calibrated to 253/1342: eager/rendezvous protocol selection"},
	MatchSearch:         {"MatchSearch", Mandatory, 6, NA, "model: CH3 software matching, per queue element inspected"},
	MatchComplete:       {"MatchComplete", Mandatory, 15, NA, "model: CH3 software matching, per completed match"},

	WinDeref:      {"WinDeref", Mandatory, 20, 8, "calibrated to 221/217 and 253/1342: the window dereference (CH3's adds the epoch-list touch)"},
	EpochTrack:    {"EpochTrack", Mandatory, 95, 6, "calibrated to 221/217 and 253/1342: ch4's outstanding-op count for flush, CH3's epoch/lock state machine"},
	OffsetXlate:   {"OffsetXlate", Mandatory, 4, 4, "§3.2: the base lookup and displacement-unit scaling"},
	VirtAddr:      {"VirtAddr", Mandatory, NA, 1, "§3.2: the virtual-address path's single load"},
	RDMADesc:      {"RDMADesc", Mandatory, NA, 8, "calibrated to 221/217: RDMA descriptor preparation"},
	AMFallback:    {"AMFallback", Mandatory, NA, 30, "model: the ch4 core's active-message fallback"},
	AMHandler:     {"AMHandler", Mandatory, NA, 20, "model: the AM fallback's target-side handler; AMScatterCost and AMFoldCost add per-byte work"},
	LockProto:     {"LockProto", Mandatory, 40, 24, "model: the passive-target lock protocol"},
	FlushProto:    {"FlushProto", Mandatory, 25, 12, "model: the flush protocol"},
	FlushLocal:    {"FlushLocal", Mandatory, NA, 4, "model: local completion is a bookkeeping check"},
	PutAllOpts:    {"PutAllOpts", Mandatory, NA, 16, "§3.7 applied to MPI_PUT: handle 2, epoch 2, displacement 2, locality 2, fused descriptor and doorbell 8"},
	RMAOpAlloc:    {"RMAOpAlloc", Mandatory, 60, NA, "calibrated to 253/1342: an RMA op object from the locked pool"},
	RMAOpQueue:    {"RMAOpQueue", Mandatory, 45, NA, "calibrated to 253/1342: enqueue and dequeue on the window op list"},
	RMASegment:    {"RMASegment", Mandatory, 280, NA, "calibrated to 253/1342: CH3's generic segment machinery"},
	RMAHeaders:    {"RMAHeaders", Mandatory, 130, NA, "calibrated to 253/1342: the RMA packet header and eager envelope"},
	RMASendPath:   {"RMASendPath", Mandatory, 220, NA, "calibrated to 253/1342: the layered internal send machinery"},
	RMARequest:    {"RMARequest", Mandatory, 150, NA, "calibrated to 253/1342: origin-side request and completion tracking"},
	RMAAck:        {"RMAAck", Mandatory, 99, NA, "calibrated to 253/1342: acknowledgement bookkeeping"},
	RMATargetSide: {"RMATargetSide", Mandatory, 160, NA, "model: CH3's target-side packet handler, charged to the target"},
}

// Value is the cost of a row both devices pay alike, such as the public
// layer's rows: its two columns hold the same value.
func (c Cost) Value() int64 { return Table[c].CH4 }

// PackCost prices packing or unpacking n bytes of a derived layout.
func PackCost(n int) int64 { return Pack.Value() + int64(n/2) }

// AMScatterCost prices the ch4 target scattering an n-byte derived put.
func AMScatterCost(n int) int64 { return Table[AMHandler].CH4 + int64(n/2) }

// AMFoldCost prices the ch4 target folding an n-byte derived accumulate.
func AMFoldCost(n int) int64 { return Table[AMHandler].CH4 + int64(n) }
