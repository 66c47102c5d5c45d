// Command benchgate compares two Go benchmark outputs and fails when the
// current run is more than a configured percentage slower than the
// committed baseline, by geometric mean across the benchmarks present in
// both files, or when any one benchmark's ratio exceeds rowCeiling times
// the larger of 1 and that geomean. It is the enforcement half of the CI
// benchmark gate (benchstat renders the human-readable comparison;
// benchgate decides).
//
// Usage:
//
//	benchgate -baseline bench_baseline.txt -current bench_new.txt \
//	    -max-slowdown-pct 10 -json BENCH_ci.json
//
// Benchmark names are compared with their GOMAXPROCS suffix stripped
// (BenchmarkHostStep/batched-8 and -16 are the same benchmark), and
// repeated runs of the same benchmark (-count=N) are folded to their
// median, which is robust against one noisy CI sample. Secondary metrics
// (batched_quanta/op and friends) are carried into the JSON report so the
// artifact preserves them, but only the primary metric gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sampleSet collects every recorded value for one (benchmark, unit) pair.
type sampleSet map[string][]float64

// parseBench reads `go test -bench` output and returns, per stripped
// benchmark name, the samples of every reported unit.
func parseBench(r io.Reader) (map[string]sampleSet, error) {
	out := make(map[string]sampleSet)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a result line
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			if out[name] == nil {
				out[name] = make(sampleSet)
			}
			out[name][unit] = append(out[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// stripProcs drops the trailing -N GOMAXPROCS suffix from a benchmark
// name, so runs on machines with different core counts still compare.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// median returns the middle sample (mean of the middle two for even
// counts); zero for an empty set.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rowCeiling bounds each benchmark's median ratio at rowCeiling ×
// max(1, geomean ratio). One benchmark regressing 2× moves a 22-row
// geomean by only 2^(1/22) ≈ +3%, well inside the geomean gate; this
// catches it. Scaling by the geomean lets a uniformly slower host pass
// row by row, and the floor of 1 keeps a uniformly faster host from
// failing the rows that merely held parity.
const rowCeiling = 1.5

// benchReport is one benchmark's row in the JSON artifact.
type benchReport struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline_median"`
	Current  float64 `json:"current_median"`
	Ratio    float64 `json:"ratio"`
	Samples  int     `json:"current_samples"`
	// Extra holds the medians of the current run's secondary metrics
	// (e.g. batched_quanta/op), preserved for the artifact.
	Extra map[string]float64 `json:"extra_metrics,omitempty"`
}

// gateReport is the JSON artifact written with -json.
type gateReport struct {
	Metric         string   `json:"metric"`
	MaxSlowdownPct float64  `json:"max_slowdown_pct"`
	GeomeanRatio   float64  `json:"geomean_ratio"`
	RowCeiling     float64  `json:"row_ceiling_ratio"`
	Pass           bool     `json:"pass"`
	Compared       int      `json:"compared_benchmarks"`
	BaselineOnly   []string `json:"baseline_only,omitempty"`
	CurrentOnly    []string `json:"current_only,omitempty"`
	// OverCeiling lists the benchmarks whose ratio exceeds RowCeiling.
	OverCeiling []string `json:"over_ceiling,omitempty"`
	// Skipped lists benchmarks present in both files whose primary
	// metric has no positive median on one side (truncated or corrupted
	// output); they fail the gate like BaselineOnly entries do.
	Skipped         []string      `json:"skipped,omitempty"`
	Benchmarks      []benchReport `json:"benchmarks"`
	GateDescription string        `json:"gate"`
}

// gate compares the two parsed outputs on the primary metric and returns
// the report; it is pure so the tests can drive it directly.
func gate(baseline, current map[string]sampleSet, metric string, maxSlowdownPct float64) gateReport {
	rep := gateReport{
		Metric:         metric,
		MaxSlowdownPct: maxSlowdownPct,
		GateDescription: fmt.Sprintf(
			"fail when geomean(current/baseline %s) exceeds %+.0f%%, or one benchmark's ratio exceeds %.1f × max(1, geomean)",
			metric, maxSlowdownPct, rowCeiling),
	}
	logSum, n := 0.0, 0
	for name, cur := range current {
		base, ok := baseline[name]
		if !ok {
			rep.CurrentOnly = append(rep.CurrentOnly, name)
			continue
		}
		bm, cm := median(base[metric]), median(cur[metric])
		if bm <= 0 || cm <= 0 {
			rep.Skipped = append(rep.Skipped, name)
			continue
		}
		row := benchReport{
			Name:     name,
			Baseline: bm,
			Current:  cm,
			Ratio:    cm / bm,
			Samples:  len(cur[metric]),
		}
		for unit, samples := range cur {
			if unit == metric {
				continue
			}
			if row.Extra == nil {
				row.Extra = make(map[string]float64)
			}
			row.Extra[unit] = median(samples)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		logSum += math.Log(row.Ratio)
		n++
	}
	for name := range baseline {
		if _, ok := current[name]; !ok {
			rep.BaselineOnly = append(rep.BaselineOnly, name)
		}
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	sort.Strings(rep.BaselineOnly)
	sort.Strings(rep.CurrentOnly)
	sort.Strings(rep.Skipped)
	rep.Compared = n
	rep.GeomeanRatio = 1
	if n > 0 {
		rep.GeomeanRatio = math.Exp(logSum / float64(n))
	}
	rep.RowCeiling = rowCeiling * math.Max(1, rep.GeomeanRatio)
	for _, row := range rep.Benchmarks {
		if row.Ratio > rep.RowCeiling {
			rep.OverCeiling = append(rep.OverCeiling, row.Name)
		}
	}
	// A baseline benchmark missing from the current run — or present but
	// without a usable primary metric — is a gate failure, not a free
	// pass: nothing may silently shrink the comparison set.
	rep.Pass = n > 0 && len(rep.BaselineOnly) == 0 && len(rep.Skipped) == 0 &&
		rep.GeomeanRatio <= 1+maxSlowdownPct/100 && len(rep.OverCeiling) == 0
	return rep
}

func parseFile(path string) (map[string]sampleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		baselinePath = fs.String("baseline", "bench_baseline.txt", "committed baseline benchmark output")
		currentPath  = fs.String("current", "", "freshly measured benchmark output")
		metric       = fs.String("metric", "ns/op", "primary metric to gate on")
		maxSlowdown  = fs.Float64("max-slowdown-pct", 10, "failing geomean slowdown threshold, percent")
		jsonPath     = fs.String("json", "", "also write the comparison report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(errOut, "benchgate: -current is required")
		return 2
	}
	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(errOut, "benchgate: baseline: %v\n", err)
		return 2
	}
	current, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintf(errOut, "benchgate: current: %v\n", err)
		return 2
	}
	rep := gate(baseline, current, *metric, *maxSlowdown)
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(out, "%-50s %14.0f -> %14.0f %s  (%+.1f%%)\n",
			b.Name, b.Baseline, b.Current, rep.Metric, (b.Ratio-1)*100)
	}
	for _, name := range rep.BaselineOnly {
		fmt.Fprintf(out, "%-50s only in baseline\n", name)
	}
	for _, name := range rep.CurrentOnly {
		fmt.Fprintf(out, "%-50s only in current run\n", name)
	}
	for _, name := range rep.Skipped {
		fmt.Fprintf(out, "%-50s no usable %s median\n", name, rep.Metric)
	}
	fmt.Fprintf(out, "geomean ratio %.4f over %d benchmarks (gate: <= %.4f; per benchmark: <= %.4f)\n",
		rep.GeomeanRatio, rep.Compared, 1+rep.MaxSlowdownPct/100, rep.RowCeiling)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(errOut, "benchgate: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(errOut, "benchgate: %v\n", err)
			return 2
		}
	}
	if !rep.Pass {
		switch {
		case rep.Compared == 0:
			fmt.Fprintln(errOut, "benchgate: FAIL — no comparable benchmarks between the two files")
		case len(rep.BaselineOnly) > 0:
			fmt.Fprintf(errOut, "benchgate: FAIL — baseline benchmarks missing from the current run: %s\n",
				strings.Join(rep.BaselineOnly, ", "))
		case len(rep.Skipped) > 0:
			fmt.Fprintf(errOut, "benchgate: FAIL — benchmarks without a usable %s median: %s\n",
				rep.Metric, strings.Join(rep.Skipped, ", "))
		case rep.GeomeanRatio > 1+rep.MaxSlowdownPct/100:
			fmt.Fprintf(errOut, "benchgate: FAIL — %.1f%% geomean slowdown exceeds the %.0f%% gate\n",
				(rep.GeomeanRatio-1)*100, rep.MaxSlowdownPct)
		}
		if len(rep.OverCeiling) > 0 {
			fmt.Fprintf(errOut, "benchgate: FAIL — benchmarks over the %.4f per-benchmark ceiling: %s\n",
				rep.RowCeiling, strings.Join(rep.OverCeiling, ", "))
		}
		return 1
	}
	fmt.Fprintln(out, "benchgate: PASS")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
