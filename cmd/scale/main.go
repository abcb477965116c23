// Command scale runs the large-world stress harness: a halo exchange
// and a flat (recursive-doubling, or reduce + bcast off powers of two)
// allreduce across up to 10,000 goroutine ranks, once
// with lazy (on-demand) peer state and once with the EagerPeers
// all-pairs baseline, and prints setup time, peers touched, and modeled
// bytes/rank for each point. The lazy runs execute under the per-rank
// memory ceiling, so a regression to O(n) per-rank state aborts the run
// instead of quietly inflating the numbers.
//
// Usage:
//
//	scale [-sizes 1000,4000,10000] [-iters 2]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gompi/internal/bench"
)

func main() {
	sizesFlag := flag.String("sizes", "1000,4000,10000", "comma-separated world sizes")
	iters := flag.Int("iters", 2, "halo+allreduce iterations per run")
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "scale: bad size %q\n", s)
			os.Exit(1)
		}
		sizes = append(sizes, n)
	}

	pts, err := bench.ScaleSweep(sizes, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale:", err)
		os.Exit(1)
	}
	bench.WriteScaleTable(os.Stdout, pts)
}
