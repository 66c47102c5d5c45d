package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pasched/internal/host
cpu: Some CPU @ 2.40GHz
BenchmarkHostStep/batched-8         	    1000	    100000 ns/op	      1000 batched_quanta/op
BenchmarkHostStep/batched-8         	    1000	    120000 ns/op	      1000 batched_quanta/op
BenchmarkHostStep/batched-8         	    1000	    110000 ns/op	      1000 batched_quanta/op
BenchmarkHostStep/reference-8       	     100	   1000000 ns/op	         0 batched_quanta/op
BenchmarkRecorderDrain-8            	      50	   2000000 ns/op
PASS
ok  	pasched/internal/host	1.234s
`

func parseSample(t *testing.T, s string) map[string]sampleSet {
	t.Helper()
	got, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBench(t *testing.T) {
	got := parseSample(t, sampleOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	b := got["BenchmarkHostStep/batched"]
	if b == nil {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if n := len(b["ns/op"]); n != 3 {
		t.Fatalf("want 3 ns/op samples, got %d", n)
	}
	if m := median(b["ns/op"]); m != 110000 {
		t.Fatalf("median = %v, want 110000", m)
	}
	if m := median(b["batched_quanta/op"]); m != 1000 {
		t.Fatalf("batched_quanta median = %v", m)
	}
	if got["BenchmarkRecorderDrain"] == nil {
		t.Fatalf("single-metric benchmark missing: %v", got)
	}
}

// shifted rewrites every ns/op value of the sample by the factor.
func shifted(t *testing.T, factor float64) map[string]sampleSet {
	t.Helper()
	out := parseSample(t, sampleOutput)
	for _, units := range out {
		for i, v := range units["ns/op"] {
			units["ns/op"][i] = v * factor
		}
	}
	return out
}

func TestGateDecision(t *testing.T) {
	base := parseSample(t, sampleOutput)
	for _, tt := range []struct {
		name   string
		factor float64
		pass   bool
	}{
		{"equal", 1.0, true},
		{"faster", 0.7, true},
		{"slower-within-gate", 1.08, true},
		{"slower-beyond-gate", 1.25, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rep := gate(base, shifted(t, tt.factor), "ns/op", 10)
			if rep.Pass != tt.pass {
				t.Fatalf("factor %v: pass=%v want %v (geomean %v)",
					tt.factor, rep.Pass, tt.pass, rep.GeomeanRatio)
			}
			if rep.Compared != 3 {
				t.Fatalf("compared %d benchmarks, want 3", rep.Compared)
			}
			if math.Abs(rep.GeomeanRatio-tt.factor) > 1e-9 {
				t.Fatalf("geomean %v, want %v", rep.GeomeanRatio, tt.factor)
			}
		})
	}
}

// rows builds a parsed benchmark set with one ns/op sample per
// benchmark, named BenchmarkRow0..N-1.
func rows(nsPerOp ...float64) map[string]sampleSet {
	out := make(map[string]sampleSet)
	for i, v := range nsPerOp {
		out["BenchmarkRow"+strconv.Itoa(i)] = sampleSet{"ns/op": {v}}
	}
	return out
}

func TestGatePerBenchmarkCeiling(t *testing.T) {
	base := rows(100, 100, 100, 100, 100, 100, 100, 100)

	// One of eight benchmarks 2x slower: the geomean moves only
	// 2^(1/8) ≈ 1.09, inside the 10% gate, but the row ceiling catches it.
	rep := gate(base, rows(100, 100, 100, 200, 100, 100, 100, 100), "ns/op", 10)
	if rep.GeomeanRatio >= 1.10 {
		t.Fatalf("geomean %v: the case must stay inside the geomean gate", rep.GeomeanRatio)
	}
	if rep.Pass || len(rep.OverCeiling) != 1 || rep.OverCeiling[0] != "BenchmarkRow3" {
		t.Fatalf("2x regression on one row must fail the gate and be named: %+v", rep)
	}

	// A uniformly faster host with one row at parity: the parity row sits
	// ~1.6x above the geomean but at the baseline, so it must pass.
	rep = gate(base, rows(60, 60, 60, 60, 60, 60, 60, 100), "ns/op", 10)
	if !rep.Pass || len(rep.OverCeiling) != 0 {
		t.Fatalf("a row at parity on a faster host must pass: %+v", rep)
	}
}

func TestGateDisjointSetsFail(t *testing.T) {
	base := parseSample(t, sampleOutput)
	other := parseSample(t, "BenchmarkSomethingElse-4 100 5 ns/op\n")
	rep := gate(base, other, "ns/op", 10)
	if rep.Pass || rep.Compared != 0 {
		t.Fatalf("disjoint benchmark sets must fail the gate: %+v", rep)
	}
	if len(rep.BaselineOnly) != 3 || len(rep.CurrentOnly) != 1 {
		t.Fatalf("missing-set reporting: %+v", rep)
	}
}

func TestGateMissingBaselineBenchmarkFails(t *testing.T) {
	base := parseSample(t, sampleOutput)
	// The current run lost BenchmarkRecorderDrain (renamed or silently
	// dropped): even with the remaining benchmarks at parity the gate
	// must fail rather than judge a shrunken set.
	cur := parseSample(t, sampleOutput)
	delete(cur, "BenchmarkRecorderDrain")
	rep := gate(base, cur, "ns/op", 10)
	if rep.Pass {
		t.Fatalf("gate passed with a missing baseline benchmark: %+v", rep)
	}
	if rep.Compared != 2 || len(rep.BaselineOnly) != 1 {
		t.Fatalf("missing-set reporting: %+v", rep)
	}
	// A benchmark appearing only in the current run is fine.
	cur2 := parseSample(t, sampleOutput+"BenchmarkNew-8 100 5 ns/op\n")
	if rep := gate(base, cur2, "ns/op", 10); !rep.Pass || len(rep.CurrentOnly) != 1 {
		t.Fatalf("new benchmarks must not fail the gate: %+v", rep)
	}
}

func TestGateUnusableMetricFails(t *testing.T) {
	base := parseSample(t, sampleOutput)
	// A corrupted current run reports 0 ns/op for one benchmark: it must
	// be surfaced as skipped and fail the gate, not silently shrink the
	// comparison set.
	cur := parseSample(t, sampleOutput)
	for i := range cur["BenchmarkRecorderDrain"]["ns/op"] {
		cur["BenchmarkRecorderDrain"]["ns/op"][i] = 0
	}
	rep := gate(base, cur, "ns/op", 10)
	if rep.Pass {
		t.Fatalf("gate passed with an unusable metric: %+v", rep)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "BenchmarkRecorderDrain" {
		t.Fatalf("skipped reporting: %+v", rep)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	curPath := filepath.Join(dir, "cur.txt")
	jsonPath := filepath.Join(dir, "BENCH_ci.json")
	if err := os.WriteFile(basePath, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	// Identical current run: passes and writes the artifact.
	if err := os.WriteFile(curPath, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if rc := run([]string{
		"-baseline", basePath, "-current", curPath, "-json", jsonPath,
	}, &out, &errOut); rc != 0 {
		t.Fatalf("rc=%d, stderr=%s", rc, errOut.String())
	}
	if !strings.Contains(out.String(), "benchgate: PASS") {
		t.Fatalf("stdout: %s", out.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep gateReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Compared != 3 {
		t.Fatalf("artifact: %+v", rep)
	}
	if rep.Benchmarks[0].Extra == nil && rep.Benchmarks[1].Extra == nil {
		t.Fatalf("secondary metrics not preserved: %+v", rep.Benchmarks)
	}
	// A 25% slowdown fails with exit code 1.
	slow := strings.ReplaceAll(sampleOutput, "    100000 ns/op", "    125000 ns/op")
	slow = strings.ReplaceAll(slow, "    120000 ns/op", "    150000 ns/op")
	slow = strings.ReplaceAll(slow, "    110000 ns/op", "    137500 ns/op")
	slow = strings.ReplaceAll(slow, "   1000000 ns/op", "   1250000 ns/op")
	slow = strings.ReplaceAll(slow, "   2000000 ns/op", "   2500000 ns/op")
	if err := os.WriteFile(curPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if rc := run([]string{"-baseline", basePath, "-current", curPath}, &out, &errOut); rc != 1 {
		t.Fatalf("rc=%d for 25%% slowdown, stderr=%s", rc, errOut.String())
	}
	if !strings.Contains(errOut.String(), "FAIL") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	// One benchmark 2x slower is named in the FAIL line.
	slow = strings.ReplaceAll(sampleOutput, "   2000000 ns/op", "   4000000 ns/op")
	if err := os.WriteFile(curPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if rc := run([]string{"-baseline", basePath, "-current", curPath}, &out, &errOut); rc != 1 ||
		!strings.Contains(errOut.String(), "per-benchmark ceiling: BenchmarkRecorderDrain") {
		t.Fatalf("rc=%d for a 2x row, stderr=%s", rc, errOut.String())
	}
}
