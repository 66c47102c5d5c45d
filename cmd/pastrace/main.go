// Command pastrace runs one instance of the paper's Section 5.3 execution
// profile (two web VMs, V20 and V70, with overlapping active phases on a
// Dom0-equipped Optiplex-755 host) and writes the recorded time series as
// CSV, ready for gnuplot or a spreadsheet.
//
// Usage:
//
//	pastrace -sched pas -load thrashing > fig9.csv
//	pastrace -sched credit -gov paper -load exact -series V20_absolute_pct,freq_mhz
//
// Schedulers: the machine builder's registry — pas, credit (alias
// fix-credit), credit2, sedf, pas-credit2; the PAS family manages DVFS
// itself and runs with -gov none only. Governors: performance, ondemand
// (stock), paper (the paper's smoothed governor), none. Loads: exact,
// thrashing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pasched/internal/experiments"
	"pasched/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pastrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schedName = fs.String("sched", "pas", "scheduler: "+experiments.TraceSchedulers)
		govName   = fs.String("gov", "none", "governor: performance, ondemand, paper, none")
		loadName  = fs.String("load", "thrashing", "load intensity: exact, thrashing")
		seed      = fs.Uint64("seed", 42, "workload arrival seed")
		series    = fs.String("series", "", "comma-separated series names (default: all)")
		out       = fs.String("o", "", "output file (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rec, err := experiments.Trace(*schedName, *govName, *loadName, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var selected []*metrics.Series
	if *series == "" {
		selected = rec.All()
	} else {
		for _, name := range strings.Split(*series, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, s := range rec.All() {
				if s.Name == name {
					selected = append(selected, s)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(stderr, "unknown series %q; available: %s\n",
					name, strings.Join(rec.Names(), ", "))
				return 1
			}
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
		w = f
	}
	if err := metrics.WriteCSV(w, selected...); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
