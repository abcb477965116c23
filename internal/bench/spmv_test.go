package bench

import "testing"

// spmvInstr pins the job-wide charged MPI instructions per iteration of
// each mode — a pure function of the program, identical at both default
// halo sizes. Per rank, in the default build:
//
//	percall      2 Irecv + 2 Isend, each paying 74 error-check (the
//	             Table 1 row) + ThreadCheckCost 6 + CallEntryCost 17 +
//	             the ch4 dispatch 6 = 103 above the device, whose
//	             own work is 88 + 88 + 113 (shm) + 118 (net) = 407:
//	             4*103 + 407 = 819.
//	persistent   one Start: one call entry, one thread check, four
//	             dispatches, no error checks, and 397 on the device
//	             side (four 3-instruction PROC_NULL branches dropped,
//	             schedule bookkeeping added): 17 + 6 + 24 + 397 = 444,
//	             saving 4*74 + 3*6 + 3*17 + 10 = 375.
//	partitioned  16 calls (4 Start, 8 Pready, 4 Wait) of one call entry
//	             each, four dispatches, no error or thread checks, no
//	             PROC_NULL branches: 16*17 + 24 + 395 = 691, saving
//	             4*74 + 4*6 + 4*3 - 12*17 = 128.
//
// Times spmvRanks = 4: the declared shapes save 1500 and 512.
var spmvInstr = map[string]int64{
	"percall":     4 * 819,
	"persistent":  4 * 444,
	"partitioned": 4 * 691,
}

// TestSpmvDeclaredShapeWins guards the SpMV halo exchange on what is a
// pure function of the program today: each mode charges exactly its
// pinned instruction count, the declared-shape paths (persistent
// neighborhood collective, partitioned pt2pt) charge strictly fewer
// than per-call Isend/Irecv, and the persistent latency is
// bit-identical across two sweeps. The per-call and partitioned
// latencies still move with which goroutine reaches the fabric's match
// lock first (about 2 % between sweeps of one process), so no latency
// is compared against another here; ROADMAP item 2 makes virtual time
// schedule-independent and restores that comparison.
func TestSpmvDeclaredShapeWins(t *testing.T) {
	first, err := SpmvSweep(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SpmvSweep(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := map[int]int64{}
	for _, p := range first {
		if p.Mode == "percall" {
			base[p.HaloBytes] = p.MPIInstr
		}
	}
	for i, p := range first {
		if p.MPIInstr != spmvInstr[p.Mode] {
			t.Errorf("%s halo=%d: %d MPI instr per iteration, want %d",
				p.Mode, p.HaloBytes, p.MPIInstr, spmvInstr[p.Mode])
		}
		if p.Mode != "percall" && p.MPIInstr >= base[p.HaloBytes] {
			t.Errorf("%s halo=%d: %d MPI instr not below percall %d",
				p.Mode, p.HaloBytes, p.MPIInstr, base[p.HaloBytes])
		}
		if p.Mode == "persistent" && p.LatencyUs != again[i].LatencyUs {
			t.Errorf("persistent halo=%d: latency %v then %v us across two sweeps",
				p.HaloBytes, p.LatencyUs, again[i].LatencyUs)
		}
	}
}
