// Command bench is the repository's benchmark. It runs four workloads
// through the public API — the paper experiments, and three fleet
// shapes that stress placement, shard stepping and the flight recorder —
// each run in a fresh child process, and checks every run's output
// against a reference run and the committed goldens.
//
// Build and run it with bench/run.sh from the repository root:
//
//	bash bench/run.sh [-runs 5] [-seed 42] [-workloads a,b] [-label L] [-traced] [-out FILE]
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh compare A.json[@label] B.json[@label]
//	bash bench/run.sh goldens -o bench/goldens.json
//
// The first form runs every workload round-robin, -runs times each, and
// prints every end-to-end and per-layer metric by name with its unit.
// The second runs one workload for a measurement window and prints one
// JSON result line. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			if err := childMain(args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "bench child:", err)
				return 1
			}
			return 0
		case "compare":
			bad, err := compareMain(args[1:], os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench compare:", err)
				return 2
			}
			if bad {
				return 1
			}
			return 0
		case "goldens":
			if err := goldensMain(args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "bench goldens:", err)
				return 1
			}
			return 0
		}
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "input seed (7 is the held-out seed)")
	runs := fs.Int("runs", 5, "runs per workload")
	list := fs.String("workloads", "", "comma-separated workloads (default all: "+workloadNames()+")")
	label := fs.String("label", "local", "label of the result set")
	traced := fs.Bool("traced", false, "add a traced run after every untraced one, for the per-layer breakdown")
	outPath := fs.String("out", "", "add the result set to this results file")
	one := fs.String("workload", "", "run one workload for a measurement window and print a JSON line")
	seconds := fs.Int("seconds", 25, "measurement window in seconds, with -workload")
	trace := fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *one != "" {
		w, err := workloadByName(*one)
		if err == nil {
			err = checkWorkers([]*workload{w})
		}
		if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
			err = fmt.Errorf("-trace must be 0 or 1 and -seconds positive")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ok, err := drive(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	ws, err := parseWorkloads(*list)
	if err == nil {
		err = checkWorkers(ws)
	}
	if err == nil && *runs < 1 {
		err = fmt.Errorf("-runs must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	set, err := runSet(ws, *seed, *runs, *traced, *label)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printSet(os.Stdout, set, ws)
	if *outPath != "" {
		if err := saveSet(*outPath, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	for _, r := range set.Workloads {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// goldensMain recomputes the golden digests: the reference run of every
// workload on every golden seed.
func goldensMain(args []string) error {
	fs := flag.NewFlagSet("goldens", flag.ContinueOnError)
	out := fs.String("o", "", "write the goldens to this file (default standard output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := map[string]map[string]string{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			r, err := spawn(w, seed, true, false)
			if err != nil {
				return err
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, r.Problems)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = r.Digest
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}
