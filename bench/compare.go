package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares set B against set A, metric by metric and
// workload by workload, with the bounds of BENCHMARK.json in the working
// directory. It reports whether anything regressed or failed.
func compareMain(args []string, out io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: compare A.json[@label] B.json[@label]")
	}
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := loadSet(args[0])
	if err != nil {
		return false, err
	}
	bset, err := loadSet(args[1])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A = %s (seed %d, %d runs), B = %s (seed %d, %d runs)\n", a.Label, a.Seed, a.Runs, bset.Label, bset.Seed, bset.Runs)
	fmt.Fprintf(out, "%-12s %-12s %24s %24s %8s %6s %7s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "bound", "spread", "verdict")
	bad := false
	for _, w := range workloads {
		ra, okA := a.Workloads[w.name]
		rb, okB := bset.Workloads[w.name]
		if !okA || !okB {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.E2E[m.Name], rb.E2E[m.Name]
			v := verdict(sa, sb, m.Bound, m.Better == "higher")
			bad = bad || v == "REGRESSION"
			fmt.Fprintf(out, "%-12s %-12s %24s %24s %+7.1f%% %5.0f%% %6.1f%%  %s\n", w.name, m.Name,
				fmtStat(sa), fmtStat(sb), 100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound,
				100*max(sa.spread(), sb.spread()), v)
		}
		if rb.Failed > 0 {
			bad = true
			fmt.Fprintf(out, "%-12s %-12s %d of %d operations FAILED in B\n", w.name, "failed", rb.Failed, rb.Attempted)
		}
	}
	return bad, nil
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3)
}

// verdict applies the no-regression rule: B's median may be worse than
// A's by at most bound. Where the run-to-run spread of either side is
// wider than the bound the comparison cannot tell, so the metric is
// unresolved — unless every run of B is better than every run of A.
func verdict(a, b stat, bound float64, higherBetter bool) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if higherBetter {
		worse = -worse
	}
	if max(a.spread(), b.spread()) > bound {
		if everyRunBetter(a, b, higherBetter) {
			return "better"
		}
		return "unresolved"
	}
	if worse > bound {
		return "REGRESSION"
	}
	return "ok"
}

func everyRunBetter(a, b stat, higherBetter bool) bool {
	for _, x := range a.Values {
		for _, y := range b.Values {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}

// loadSet reads one set from a results file: path, or path@label when
// the file holds several.
func loadSet(arg string) (*resultSet, error) {
	path, label, labelled := strings.Cut(arg, "@")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var labels []string
	for _, s := range t.Sets {
		if (!labelled && len(t.Sets) == 1) || s.Label == label {
			return s, nil
		}
		labels = append(labels, s.Label)
	}
	return nil, fmt.Errorf("%s: name one set as %s@<label>; labels: %s", path, path, strings.Join(labels, ", "))
}
