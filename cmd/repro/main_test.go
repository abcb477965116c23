package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestModelGolden holds the cost model's outputs byte for byte: the
// instruction tables (Table 1, Figure 2, the Section 3 savings) and the
// virtual-time message rates (Figures 3-6) must match testdata/*.golden.
// A refactor of the model leaves them alone; a change that moves a
// charge on purpose regenerates them with -update and says so.
func TestModelGolden(t *testing.T) {
	for _, row := range []string{"table1", "fig2", "savings", "proposals", "rates"} {
		var out, stderr bytes.Buffer
		if status := run([]string{row}, &out, &stderr); status != 0 {
			t.Fatalf("repro %s: exit %d\n%s", row, status, &stderr)
		}
		path := filepath.Join("testdata", row+".golden")
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("repro %s differs from %s:\ngot:\n%s\nwant:\n%s", row, path, &out, want)
		}
	}
}

// rowFlags is every flag each row accepts, with small values: the flag
// set its old single-purpose binary had.
var rowFlags = map[string][]string{
	"table1":    nil,
	"fig2":      nil,
	"rates":     {"-net", "ucx", "-msgs", "10"},
	"proposals": {"-msgs", "10"},
	"savings":   nil,
	"nek":       {"-px", "2", "-py", "1", "-pz", "1", "-maxep", "2", "-iters", "2", "-net", "ofi"},
	"lammps":    {"-px", "2", "-py", "2", "-pz", "2", "-steps", "2", "-net", "bgq"},
	"scale":     {"-sizes", "8, 16", "-iters", "1"},
	"osu": {"-device", "original", "-net", "inf", "-build", "default", "-max", "64", "-iters", "2",
		"-window", "2", "-ranks-per-node", "2", "-shm-eager", "1024"},
	"spmv": {"-partitions", "2"},
	"vci":  {"-lanes", "2", "-msgs", "10"},
}

// TestEveryRowParsesItsFlags registers each row's flags at both sizes
// (a duplicate definition panics) and parses the full set, then runs
// the row at its flags, which must exit 0.
func TestEveryRowParsesItsFlags(t *testing.T) {
	if len(rowFlags) != len(rows) {
		t.Fatalf("rowFlags covers %d rows, the table has %d", len(rowFlags), len(rows))
	}
	for _, r := range rows {
		args, ok := rowFlags[r.name]
		if !ok {
			t.Fatalf("row %q has no entry in rowFlags", r.name)
		}
		for _, full := range []bool{false, true} {
			var stderr bytes.Buffer
			if _, err := prepare(r, args, full, &stderr); err != nil {
				t.Errorf("repro %s %v (full=%v): %v\n%s", r.name, args, full, err, &stderr)
			}
		}
		var out, stderr bytes.Buffer
		if status := run(append([]string{r.name}, args...), &out, &stderr); status != 0 {
			t.Errorf("repro %s %v: exit %d\n%s", r.name, args, status, &stderr)
		}
	}
}

// TestRowsMatchTheFullRun pins the paper's instruction counts at the
// CLI surface and checks that a row run alone prints exactly its
// section of the plain run.
func TestRowsMatchTheFullRun(t *testing.T) {
	var plain, stderr bytes.Buffer
	if status := run(nil, &plain, &stderr); status != 0 {
		t.Fatalf("repro: exit %d\n%s", status, &stderr)
	}
	var headers []string
	for _, line := range strings.Split(plain.String(), "\n") {
		if strings.HasPrefix(line, "====") {
			headers = append(headers, strings.Trim(line, "= "))
		}
	}
	want := []string{"Table 1", "Figure 2", "Figure 3 (OFI/PSM2)", "Figure 4 (UCX/EDR)",
		"Figure 5 (infinite network)", "Figure 6", "Section 3 savings",
		"Figure 7 (Nek5000 model problem)", "Figure 8 (LAMMPS strong scaling)"}
	if strings.Join(headers, "|") != strings.Join(want, "|") {
		t.Errorf("sections %q, want %q", headers, want)
	}
	for name, numbers := range map[string][]string{
		"table1":  {"221          217"},
		"fig2":    {"253       1342", "59         44"},
		"savings": {"= 59)", "all_opts (3.7)               16       43"},
	} {
		var out bytes.Buffer
		if status := run([]string{name}, &out, &stderr); status != 0 {
			t.Fatalf("repro %s: exit %d\n%s", name, status, &stderr)
		}
		for _, n := range numbers {
			if !strings.Contains(out.String(), n) {
				t.Errorf("repro %s: output lacks %q:\n%s", name, n, &out)
			}
		}
		if !strings.Contains(plain.String(), out.String()) {
			t.Errorf("repro %s is not a section of the plain run:\n%s", name, &out)
		}
	}
}

// TestBadCommandLineExits2 checks that a command line repro cannot
// accept lists the rows on stderr and runs nothing.
func TestBadCommandLineExits2(t *testing.T) {
	for _, args := range [][]string{
		{"mpirate"},
		{"rates", "-net", "bgq"},
		{"nek", "-net", "psm3"},
		{"scale", "-sizes", "10,x"},
		{"fig2", "-metrics"},
		{"table1", "fig2"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(args, &stdout, &stderr); status != 2 || stdout.Len() != 0 {
			t.Errorf("repro %v: exit %d with %d bytes of output, want 2 and none", args, status, stdout.Len())
		}
		if !strings.Contains(stderr.String(), "  lammps ") {
			t.Errorf("repro %v: stderr lacks the row list:\n%s", args, &stderr)
		}
	}
}
