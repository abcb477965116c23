package main

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// wallColumns are the columns that read the host's wall clock, masked
// before two runs are compared: scale's setup-ms and wall-ms, and vci's
// WallRate.
var wallColumns = []string{"setup-ms", "wall-ms", "WallRate"}

// driftResidue is every row whose output, wall-clock columns masked,
// was seen to differ between runs of the same build (ROADMAP item 2):
// goroutine interleaving still reaches their virtual-time figures. An
// entry may be removed once its row is deterministic; none may be added
// — a row that starts to drift is a regression to fix, not to list.
var driftResidue = map[string]bool{
	"lammps": true,
	"spmv":   true,
	"vci":    true,
}

// TestRowsAreDeterministic runs every row twice at GOMAXPROCS 1 and
// twice at 2 and fails when a row outside driftResidue prints anything
// but the same bytes each time, wall-clock columns masked. A listed row
// that came out identical is logged, as a candidate for removal from
// the list. Rows run at their default sizes, except scale (several
// seconds at its defaults), which runs at its rowFlags sizes.
func TestRowsAreDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, r := range rows {
		args := []string{r.name}
		if r.name == "scale" {
			args = append(args, rowFlags[r.name]...)
		}
		var outs []string
		for _, procs := range []int{1, 1, 2, 2} {
			runtime.GOMAXPROCS(procs)
			var out, stderr bytes.Buffer
			if status := run(args, &out, &stderr); status != 0 {
				t.Fatalf("repro %v at GOMAXPROCS %d: exit %d\n%s", args, procs, status, &stderr)
			}
			outs = append(outs, maskWallColumns(out.String()))
		}
		other := slices.IndexFunc(outs, func(o string) bool { return o != outs[0] })
		switch drifts := other > 0; {
		case drifts && !driftResidue[r.name]:
			t.Errorf("repro %v drifts between runs:\n%s\nthen:\n%s", args, outs[0], outs[other])
		case !drifts && driftResidue[r.name]:
			t.Logf("repro %s (listed as drifting) was identical in all %d runs", r.name, len(outs))
		}
	}
}

// maskWallColumns replaces the wallColumns fields of every table row
// with "*". A table is a header line naming a masked column followed by
// rows of as many fields, up to the next blank or section line.
func maskWallColumns(s string) string {
	lines := strings.Split(s, "\n")
	var masked []int
	width := 0
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(line, "====") {
			masked = nil
			continue
		}
		if cols := columnsOf(fields); cols != nil {
			masked, width = cols, len(fields)
			continue
		}
		if masked != nil && len(fields) == width {
			for _, c := range masked {
				fields[c] = "*"
			}
			lines[i] = strings.Join(fields, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// columnsOf returns the indices of the wallColumns in a header line, or
// nil if it names none.
func columnsOf(header []string) []int {
	var cols []int
	for i, f := range header {
		if slices.Contains(wallColumns, f) {
			cols = append(cols, i)
		}
	}
	return cols
}
