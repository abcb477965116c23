package bench

import (
	"fmt"
	"io"
)

// rateUnit renders a message rate the way the paper's axes do (M msg/s).
func rateUnit(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%7.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%7.2fK", r/1e3)
	default:
		return fmt.Sprintf("%8.1f", r)
	}
}

// WriteTable1 renders the Table 1 breakdown.
func WriteTable1(w io.Writer, isend, put Breakdown) {
	fmt.Fprintf(w, "Table 1: Instruction analysis for MPI calls (device=ch4, build=default)\n")
	fmt.Fprintf(w, "%-28s %12s %12s\n", "Reason", "MPI_ISEND", "MPI_PUT")
	rows := []struct {
		name string
		a, b int64
	}{
		{"Error checking", isend.Counters.ErrorCheck, put.Counters.ErrorCheck},
		{"Thread-safety check", isend.Counters.ThreadCheck, put.Counters.ThreadCheck},
		{"MPI function call", isend.Counters.Call, put.Counters.Call},
		{"Redundant runtime checks", isend.Counters.Redundant, put.Counters.Redundant},
		{"MPI mandatory overheads", isend.Counters.Mandatory, put.Counters.Mandatory},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12d %12d\n", r.name, r.a, r.b)
	}
	fmt.Fprintf(w, "%-28s %12d %12d\n", "Total", isend.Counters.TotalInstr, put.Counters.TotalInstr)
}

// WriteFigure2 renders the build-ladder instruction totals.
func WriteFigure2(w io.Writer, isends, puts []Breakdown) {
	fmt.Fprintf(w, "Figure 2: MPI instruction counts\n")
	fmt.Fprintf(w, "%-32s %10s %10s\n", "Build", "MPI_ISEND", "MPI_PUT")
	for i := range isends {
		fmt.Fprintf(w, "%-32s %10d %10d\n", isends[i].Device,
			isends[i].Counters.TotalInstr, puts[i].Counters.TotalInstr)
	}
}

// WriteRates renders a Figure 3/4/5 rate table.
func WriteRates(w io.Writer, title string, pts []RatePoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-32s %12s %12s\n", "Build", "MPI_ISEND", "MPI_PUT")
	for _, p := range pts {
		fmt.Fprintf(w, "%-32s %12s %12s\n", p.Label, rateUnit(p.IsendRate), rateUnit(p.PutRate))
	}
}

// WriteProposals renders the Figure 6 ladder.
func WriteProposals(w io.Writer, pts []ProposalPoint) {
	fmt.Fprintf(w, "Figure 6: MPI standard improvements for MPI_ISEND (infinitely fast network)\n")
	fmt.Fprintf(w, "%-16s %12s %8s\n", "Proposal", "Rate", "Instr")
	for _, p := range pts {
		fmt.Fprintf(w, "%-16s %12s %8d\n", p.Label, rateUnit(p.Rate), p.Instr)
	}
}

// WriteProposalSavings renders the Section 3 savings rows.
func WriteProposalSavings(w io.Writer, rows []ProposalSaving, base int64) {
	fmt.Fprintf(w, "Section 3 per-proposal instruction savings (baseline MPI-3.1 ipo Isend = %d)\n", base)
	fmt.Fprintf(w, "%-22s %8s %8s\n", "Proposal", "Instr", "Saved")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %8d\n", r.Name, r.Instr, r.Savings)
	}
}

// WriteNek renders the Figure 7 table.
func WriteNek(w io.Writer, pts []NekPoint) {
	fmt.Fprintf(w, "Figure 7: Nek5000 mass-matrix inversion (Std = MPICH/Original, Lite = MPICH/CH4)\n")
	fmt.Fprintf(w, "%3s %6s %8s %14s %14s %8s %8s %8s\n",
		"N", "E/P", "n/P", "Std [pi/ps]", "Lite [pi/ps]", "Ratio", "EffStd", "EffLite")
	for _, p := range pts {
		fmt.Fprintf(w, "%3d %6d %8d %14.3e %14.3e %8.3f %8.3f %8.3f\n",
			p.N, p.EPerRank, p.NOverP, p.PerfStd, p.PerfLite, p.Ratio, p.EffStd, p.EffLite)
	}
}

// WriteLammps renders the Figure 8 table.
func WriteLammps(w io.Writer, pts []LammpsPoint) {
	fmt.Fprintf(w, "Figure 8: LAMMPS strong scaling (LJ melt)\n")
	fmt.Fprintf(w, "%6s %12s %10s %14s %14s %10s %8s %8s\n",
		"Nodes", "atoms/core", "actual", "CH4 [ts/s]", "Orig [ts/s]", "Speedup%", "EffCH4", "EffOrig")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %12d %10.1f %14.1f %14.1f %10.1f %8.3f %8.3f\n",
			p.Nodes, p.AtomsPerCore, p.ActualAPC, p.RateCh4, p.RateOrig, p.SpeedupPct, p.EffCh4, p.EffOrig)
	}
}
