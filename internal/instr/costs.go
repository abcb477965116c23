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

// Abstract per-operation instruction costs. The constants model a modern
// out-of-order x86 core at the granularity the paper reasons about: a
// plain ALU op or register load is one instruction, a pointer chase into
// a dynamically allocated object is a load plus address arithmetic, a
// conditional is a compare plus a branch, and a function call is the
// 16-18 instruction frame setup the paper measures (plus return).
const (
	// CostDeref is a dereference into a dynamically allocated object:
	// address computation plus the (potentially cache-missing) load.
	CostDeref = 2
	// CostCall is the stack/register setup of a function call boundary.
	// The paper: "Each MPI function call can take around 16-18
	// instructions just to load the stack and registers".
	CostCall = 17
	// CostHash is computing a hash-bin index and loading the bin head —
	// the per-operation price of binned (MPICH CH4-style) message
	// matching: a shift/mask over the match word plus the bucket
	// lookup. Charged so binned matching is not modeled as free.
	CostHash = 4
	// CostAtomic is a locked read-modify-write (pool locks, refcounts
	// under MPI_THREAD_MULTIPLE).
	CostAtomic = 8
	// CostLockUnlock is acquiring and releasing an uncontended mutex.
	CostLockUnlock = 2 * CostAtomic
)

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
