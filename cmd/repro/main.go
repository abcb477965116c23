// Command repro is the single reproduction entry point: every table
// and figure of the paper's evaluation, plus the companion sweeps, as
// rows of one table. See EXPERIMENTS.md for the paper-vs-measured
// record this generates.
//
// Usage:
//
//	repro                    # every paper row in order, quick sizes
//	repro -full              # the same with larger rank counts and samples
//	repro <row> [flags]      # one row: table1 fig2 rates proposals savings
//	                         # nek lammps scale osu spmv vci
//	repro -full <row>        # one row at its -full defaults
//	repro <row> -h           # the row's flags and defaults
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"gompi"
	"gompi/internal/bench"
)

// A row is one experiment. setup registers the row's flags on fs —
// their defaults are the quick or the -full sizes — and returns the
// function that runs it with whatever was parsed.
type row struct {
	name    string
	section string // header above the output; "" when the row prints one per figure
	paper   bool   // part of the plain `repro` walk
	setup   func(fs *flag.FlagSet, full bool) func(w io.Writer) error
}

var rows = []row{
	{"table1", "Table 1", true, func(*flag.FlagSet, bool) func(io.Writer) error {
		return func(w io.Writer) error {
			isend, put, err := bench.Table1()
			if err == nil {
				bench.WriteTable1(w, isend, put)
			}
			return err
		}
	}},
	{"fig2", "Figure 2", true, func(*flag.FlagSet, bool) func(io.Writer) error {
		return func(w io.Writer) error {
			isends, puts, err := bench.Figure2()
			if err == nil {
				bench.WriteFigure2(w, isends, puts)
			}
			return err
		}
	}},
	{"rates", "", true, func(fs *flag.FlagSet, full bool) func(io.Writer) error {
		net := ""
		netFlag(fs, &net, "all", "ofi", "ucx", "inf")
		msgs := msgsFlag(fs, full)
		return func(w io.Writer) error {
			for _, f := range rateFigures {
				if net != "" && net != f.fabric {
					continue
				}
				section(w, f.section)
				pts, err := bench.MessageRates(f.fabric, *msgs)
				if err != nil {
					return err
				}
				bench.WriteRates(w, f.title, pts)
			}
			return nil
		}
	}},
	{"proposals", "Figure 6", true, func(fs *flag.FlagSet, full bool) func(io.Writer) error {
		msgs := msgsFlag(fs, full)
		return func(w io.Writer) error {
			pts, err := bench.ProposalLadder(*msgs)
			if err == nil {
				bench.WriteProposals(w, pts)
			}
			return err
		}
	}},
	{"savings", "Section 3 savings", true, func(*flag.FlagSet, bool) func(io.Writer) error {
		return func(w io.Writer) error {
			saved, base, err := bench.ProposalSavings()
			if err == nil {
				bench.WriteProposalSavings(w, saved, base)
			}
			return err
		}
	}},
	{"nek", "Figure 7 (Nek5000 model problem)", true, func(fs *flag.FlagSet, full bool) func(io.Writer) error {
		o := bench.NekSweepOptions{RankGrid: [3]int{2, 2, 2}, MaxEPerP: 32, Iters: 15, Fabric: "bgq"}
		if full {
			o.RankGrid, o.MaxEPerP, o.Iters = [3]int{4, 2, 2}, 128, 25
		}
		gridFlags(fs, &o.RankGrid)
		fs.IntVar(&o.MaxEPerP, "maxep", o.MaxEPerP, "largest E/P (swept in powers of two)")
		fs.IntVar(&o.Iters, "iters", o.Iters, "CG iterations per measurement")
		netFlag(fs, &o.Fabric, o.Fabric, fabrics...)
		return func(w io.Writer) error {
			pts, err := bench.NekSweep(o)
			if err == nil {
				bench.WriteNek(w, pts)
			}
			return err
		}
	}},
	{"lammps", "Figure 8 (LAMMPS strong scaling)", true, func(fs *flag.FlagSet, full bool) func(io.Writer) error {
		o := bench.LammpsSweepOptions{RankGrid: [3]int{3, 3, 3}, Steps: 6, Fabric: "bgq"}
		if full {
			o.Steps = 15
		}
		gridFlags(fs, &o.RankGrid)
		fs.IntVar(&o.Steps, "steps", o.Steps, "timesteps per measurement")
		netFlag(fs, &o.Fabric, o.Fabric, fabrics...)
		return func(w io.Writer) error {
			pts, err := bench.LammpsSweep(o)
			if err == nil {
				bench.WriteLammps(w, pts)
			}
			return err
		}
	}},
	{"scale", "Scale: lazy vs eager peer state", false, func(fs *flag.FlagSet, _ bool) func(io.Writer) error {
		sizes := []int{1000, 4000, 10000}
		fs.Func("sizes", "comma-separated world sizes (default 1000,4000,10000)", func(s string) error {
			sizes = sizes[:0]
			for _, f := range strings.Split(s, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n <= 0 {
					return fmt.Errorf("bad size %q", f)
				}
				sizes = append(sizes, n)
			}
			return nil
		})
		iters := fs.Int("iters", 2, "halo+allreduce iterations per run")
		return func(w io.Writer) error {
			pts, err := bench.ScaleSweep(sizes, *iters)
			if err == nil {
				bench.WriteScaleTable(w, pts)
			}
			return err
		}
	}},
	{"osu", "OSU-style latency and bandwidth", false, func(fs *flag.FlagSet, _ bool) func(io.Writer) error {
		device := fs.String("device", "ch4", "device: ch4 | original")
		net := "ofi"
		netFlag(fs, &net, net, fabrics...)
		build := fs.String("build", "no-err-single-ipo", "build configuration")
		max := fs.Int("max", 1<<16, "largest message size in bytes")
		iters := fs.Int("iters", 100, "iterations per size")
		window := fs.Int("window", 32, "messages in flight for the bandwidth test")
		rpn := fs.Int("ranks-per-node", 1, "ranks per node (>1 puts the pair on one node, over shm)")
		shmEager := fs.Int("shm-eager", 0, "shm staged/handoff threshold in bytes (0 disables zero-copy handoff)")
		return func(w io.Writer) error {
			pts, err := bench.OSUSweep(gompi.Config{
				Device: gompi.DeviceKind(*device), Fabric: gompi.FabricKind(net), Build: gompi.BuildKind(*build),
				RanksPerNode: *rpn, ShmEagerMax: *shmEager,
			}, *max, *iters, *window)
			if err == nil {
				bench.WriteOSU(w, fmt.Sprintf("OSU-style pt2pt sweep: device=%s fabric=%s build=%s rpn=%d shm-eager=%d",
					*device, net, *build, *rpn, *shmEager), pts)
			}
			return err
		}
	}},
	{"spmv", "SpMV halo exchange", false, func(fs *flag.FlagSet, _ bool) func(io.Writer) error {
		partitions := fs.Int("partitions", 0, "partitions per halo for the partitioned mode (0 = default)")
		return func(w io.Writer) error {
			pts, err := bench.SpmvSweep(nil, *partitions)
			if err == nil {
				bench.WriteSpmv(w, pts)
			}
			return err
		}
	}},
	{"vci", "Multi-VCI scaling", false, func(fs *flag.FlagSet, full bool) func(io.Writer) error {
		lanes := fs.Int("lanes", 4, "goroutines per rank")
		msgs := msgsFlag(fs, full)
		return func(w io.Writer) error {
			pts, err := bench.VCIScaling([]int{1, 2, 4, 8}, *lanes, *msgs)
			if err == nil {
				bench.WriteVCIScaling(w, pts)
			}
			return err
		}
	}},
}

// rateFigures maps the fabrics with a message-rate figure to it.
var rateFigures = []struct{ fabric, section, title string }{
	{"ofi", "Figure 3 (OFI/PSM2)", "Figure 3: Message rates with OFI/PSM2 (IT cluster profile)"},
	{"ucx", "Figure 4 (UCX/EDR)", "Figure 4: Message rates with UCX (Gomez cluster profile)"},
	{"inf", "Figure 5 (infinite network)", "Figure 5: Message rates with infinitely fast network"},
}

var fabrics = []string{"ofi", "ucx", "inf", "bgq"}

func msgsFlag(fs *flag.FlagSet, full bool) *int {
	msgs := 2000
	if full {
		msgs = 10000
	}
	return fs.Int("msgs", msgs, "messages per measurement")
}

func gridFlags(fs *flag.FlagSet, g *[3]int) {
	for i, name := range []string{"px", "py", "pz"} {
		fs.IntVar(&g[i], name, g[i], "process grid "+name[1:])
	}
}

// netFlag registers -net, rejecting at parse time any fabric but the
// allowed ones: a typo is a usage error before anything runs.
func netFlag(fs *flag.FlagSet, dst *string, def string, allowed ...string) {
	fs.Func("net", "fabric: "+strings.Join(allowed, " | ")+" (default "+def+")", func(s string) error {
		if !slices.Contains(allowed, s) {
			return errors.New("unknown fabric")
		}
		*dst = s
		return nil
	})
}

func section(w io.Writer, name string) {
	fmt.Fprintf(w, "\n==== %s ====\n", name)
}

// prepare builds the named row's flag set and parses args into it.
func prepare(r row, args []string, full bool, stderr io.Writer) (func(io.Writer) error, error) {
	fs := flag.NewFlagSet("repro "+r.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		usage(stderr)
		fmt.Fprintf(stderr, "flags of %s:\n", r.name)
		fs.PrintDefaults()
	}
	run := r.setup(fs, full)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "repro %s: unexpected argument %q\n", r.name, fs.Arg(0))
		fs.Usage()
		return nil, errors.New("unexpected argument")
	}
	return func(w io.Writer) error {
		if r.section != "" {
			section(w, r.section)
		}
		return run(w)
	}, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: repro [-full] [row [flags]]   (no row: every paper row in order)")
	for _, r := range rows {
		title := r.section
		if title == "" {
			title = "Figures 3-5 (message rates)"
		}
		fmt.Fprintf(w, "  %-10s %s\n", r.name, title)
	}
}

// run is main without the process: it returns the exit status, 2 for a
// command line it could not accept.
func run(args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("repro", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Usage = func() { usage(stderr) }
	full := top.Bool("full", false, "larger rank counts and sample sizes")
	if err := top.Parse(args); err != nil {
		return usageStatus(err)
	}
	runRow := func(r row, rest []string) int {
		do, err := prepare(r, rest, *full, stderr)
		if err != nil {
			return usageStatus(err)
		}
		if err := do(stdout); err != nil {
			fmt.Fprintf(stderr, "repro %s: %v\n", r.name, err)
			return 1
		}
		return 0
	}
	if top.NArg() == 0 {
		for _, r := range rows {
			if !r.paper {
				continue
			}
			if status := runRow(r, nil); status != 0 {
				return status
			}
		}
		return 0
	}
	i := slices.IndexFunc(rows, func(r row) bool { return r.name == top.Arg(0) })
	if i < 0 {
		fmt.Fprintf(stderr, "repro: unknown row %q\n", top.Arg(0))
		usage(stderr)
		return 2
	}
	return runRow(rows[i], top.Args()[1:])
}

func usageStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
