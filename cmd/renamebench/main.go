// Command renamebench regenerates the experiment tables (E1–E17, see
// BENCHMARKS.md): each table reproduces a claim of "Optimal-Time Adaptive
// Strong Renaming, with Applications to Counting" (PODC 2011) on the
// deterministic simulator.
//
// Usage:
//
//	renamebench [-quick] [-seeds N] [-table E8] [-markdown | -csv | -json]
//
// Wall-clock serving throughput is measured by the *Throughput benchmarks
// (go test -bench Throughput -cpu 1,2,4), workload scenarios by
// cmd/renameload.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink parameter sweeps for a fast smoke run")
	seeds := flag.Int("seeds", 10, "independent runs per parameter point")
	table := flag.String("table", "", "run only the experiment with this ID (e.g. E8)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	csv := flag.Bool("csv", false, "emit CSV series for external plotting")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document per run (see scripts/bench.sh)")
	flag.Parse()

	if *jsonOut && (*markdown || *csv) {
		fmt.Fprintln(os.Stderr, "renamebench: -json cannot be combined with -markdown or -csv")
		os.Exit(2)
	}
	tables := bench.All(bench.Config{Seeds: *seeds, Quick: *quick})

	matched := false
	var selected []*bench.Table
	for _, t := range tables {
		if *table != "" && !strings.EqualFold(t.ID, *table) {
			continue
		}
		matched = true
		selected = append(selected, t)
		if *jsonOut {
			continue // emitted as one document after the loop
		}
		switch {
		case *csv:
			t.CSV(os.Stdout)
		case *markdown:
			t.Markdown(os.Stdout)
		default:
			t.Fprint(os.Stdout)
		}
	}
	if matched && *jsonOut {
		if err := bench.JSONTables(os.Stdout, selected); err != nil {
			fmt.Fprintln(os.Stderr, "renamebench:", err)
			os.Exit(1)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "renamebench: no experiment with ID %q; available:", *table)
		for _, t := range tables {
			fmt.Fprintf(os.Stderr, " %s", t.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
