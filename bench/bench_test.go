package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"pasched/internal/sim"
)

// small returns a workload's fleet shape at a scale that runs in well
// under a second, keeping its configuration otherwise.
func small(t *testing.T, name string) *fleetShape {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *w.shape
	switch name {
	case "fleet-place":
		s.machines = 2000
		s.gen.Arrivals, s.gen.Horizon = 3000, 150*sim.Millisecond
	case "fleet-host":
		s.machines = 200
		s.gen.Arrivals, s.gen.Horizon = 400, 40*sim.Second
	case "fleet-serve":
		s.machines = 12
		s.gen.Arrivals, s.gen.Horizon = 180, 20*sim.Second
	}
	return &s
}

func runShape(t *testing.T, s *fleetShape, seed uint64, ref bool, seams *seamStats) *opOutput {
	t.Helper()
	op, err := s.prepare(seed, ref, seams)
	if err != nil {
		t.Fatal(err)
	}
	out, err := op()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed > 0 {
		t.Fatalf("run failed its checks: %v", out.problems)
	}
	return out
}

// The seam wrappers must not change a run's output, and the reference
// sharding must reproduce the measured one — including fleet-host's
// Shards=8/Workers=2 against Shards=1/Workers=1.
func TestWrappedAndReferenceRunsMatch(t *testing.T) {
	for _, name := range []string{"fleet-place", "fleet-host", "fleet-serve"} {
		t.Run(name, func(t *testing.T) {
			s := small(t, name)
			if max(s.workers, s.refWorkers) > runtime.NumCPU() {
				t.Skipf("needs %d CPUs", max(s.workers, s.refWorkers))
			}
			plain := runShape(t, s, 3, false, nil)
			seams := &seamStats{}
			wrapped := runShape(t, s, 3, false, seams)
			ref := runShape(t, s, 3, true, nil)
			if wrapped.digest != plain.digest {
				t.Errorf("wrapped run digest %.16s, unwrapped %.16s", wrapped.digest, plain.digest)
			}
			if ref.digest != plain.digest {
				t.Errorf("reference sharding digest %.16s, measured %.16s", ref.digest, plain.digest)
			}
			if seams.SourceCalls != int64(s.gen.Arrivals)+1 || seams.SinkCalls == 0 || seams.SinkBytes == 0 || len(seams.IntervalsMs) == 0 {
				t.Errorf("seams not all recorded: %+v", seams)
			}
			if s.serve && (seams.ObsWindows == 0 || float64(seams.ObsEvents) != plain.counts["obs.events"]) {
				t.Errorf("obs seam saw %d events in %d windows, summary %v", seams.ObsEvents, seams.ObsWindows, plain.counts["obs.events"])
			}
		})
	}
}

// The committed goldens hold for the default and the held-out seed.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs")
	}
	for _, seed := range goldenSeeds {
		for _, w := range workloads {
			t.Run(w.name+"/"+strconv.FormatUint(seed, 10), func(t *testing.T) {
				t.Parallel()
				if w.workers() > runtime.NumCPU() {
					t.Skipf("needs %d CPUs", w.workers())
				}
				want, ok, err := golden(w.name, seed)
				if err != nil || !ok {
					t.Fatalf("no golden: %v", err)
				}
				op, err := prepare(w, seed, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				out, err := op()
				if err != nil {
					t.Fatal(err)
				}
				if out.failed > 0 || out.digest != want {
					t.Errorf("digest %.16s, golden %.16s; problems %v", out.digest, want, out.problems)
				}
			})
		}
	}
}

// Every internal package and every source file of the by-file packages
// has a layer, so new code cannot silently land in "other".
func TestLayerMapCoversInternal(t *testing.T) {
	known := map[string]bool{"": true}
	for _, l := range layers {
		known[l] = true
	}
	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		layer, ok := packageLayers[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer", d.Name())
			continue
		}
		if layer != splitByFile {
			if !known[layer] {
				t.Errorf("internal/%s maps to unlisted layer %q", d.Name(), layer)
			}
			continue
		}
		files, err := filepath.Glob(filepath.Join("../internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			base := filepath.Base(f)
			if strings.HasSuffix(base, "_test.go") {
				continue
			}
			if l, ok := fileLayers[d.Name()][base]; !ok || !known[l] {
				t.Errorf("internal/%s/%s has no listed layer (%q)", d.Name(), base, l)
			}
		}
	}
}

// A real profile decodes, every sample lands in exactly one listed
// layer, and the layers sum to the total.
func TestProfileAttribution(t *testing.T) {
	s := small(t, "fleet-serve")
	s.gen.Arrivals, s.gen.Horizon = 300, 30*sim.Second
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot profile: %v", err)
	}
	runShape(t, s, 5, false, nil)
	pprof.StopCPUProfile()
	ls, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Total == 0 || ls.PeriodNs <= 0 {
		t.Fatalf("empty profile: %+v", ls)
	}
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
	}
	var sum int64
	for l, n := range ls.Samples {
		if !listed[l] {
			t.Errorf("samples in unlisted layer %q", l)
		}
		sum += n
	}
	if sum != ls.Total {
		t.Errorf("layers sum to %d samples, total %d", sum, ls.Total)
	}
	if ls.Samples["obs"]+ls.Samples["obs.perfetto"] == 0 {
		t.Errorf("a recorder-heavy run attributed nothing to the recorder: %v", ls.Samples)
	}
}

func TestFrameLayer(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"pasched/internal/fleet.(*dvfsIndex).place", "/src/internal/fleet/placeindex.go", "fleet.place"},
		{"pasched/internal/fleet.(*Fleet).Run.func1", "/src/internal/fleet/fleet.go", "fleet.coordinator"},
		{"pasched/internal/obs.(*PerfettoWriter).Events", "/src/internal/obs/perfetto.go", "obs.perfetto"},
		{"pasched/internal/host.(*Host).Step", "/src/internal/host/host.go", "host"},
		{"pasched/internal/sim.(*RNG).Float64", "/src/internal/sim/rng.go", ""},
		{"pasched.RunExperiment", "/src/pasched.go", ""},
		{"sort.Slice", "/go/src/sort/slice.go", ""},
		{"pasched/internal/fleet.newThing", "/src/internal/fleet/newfile.go", "other"},
	} {
		if got := frameLayer(c.fn, c.file); got != c.want {
			t.Errorf("frameLayer(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// BENCHMARK.json lists exactly the workloads and driver metrics the
// code reports, with the same units and directions.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, workloadNames())
	}
	check := func(kind string, listed []metric, defs []metricDef) {
		var want []string
		for _, d := range defs {
			if d.driver {
				want = append(want, d.name+" "+d.unit+" "+d.better)
			}
		}
		var got []string
		for _, m := range listed {
			got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("%s metrics:\n BENCHMARK.json %v\n code           %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, to exercise the sort
		}
		return v
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{{5, 0, 0}, {25, 13, 50}, {100, 90, 90}, {1000, 990, 99}} {
		v, p := tail(seq(c.n))
		if v != c.value || p != c.pct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pct)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) stat { return newStat("s", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) stat { return newStat("s", []float64{m * 0.5, m, m * 1.5}) }
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"same", tight(1), tight(1), "ok"},
		{"slower within bound", tight(1), tight(1.05), "ok"},
		{"slower beyond bound", tight(1), tight(1.3), "REGRESSION"},
		{"noisy", wide(1), wide(1.3), "unresolved"},
		{"noisy but every run faster", wide(10), wide(1), "better"},
	} {
		if got := verdict(c.a, c.b, 0.1, false); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(tight(1), tight(0.7), 0.1, true); got != "REGRESSION" {
		t.Errorf("higher-is-better drop: verdict %q", got)
	}
}

// A window checks every run against the first run on the same input
// seed, and counts a mismatch as a failed operation.
func TestCollectorChecksRepeatsPerSeed(t *testing.T) {
	w, err := workloadByName("fleet-host")
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{w: w, seed: 1, digests: map[uint64]string{1: "a"}}
	run := func(seed uint64, digest string) *opResult {
		return &opResult{Seed: seed, Digest: digest, Attempted: 1}
	}
	c.add(run(1, "a"))
	c.add(run(windowSeed(1, 1), "b")) // first run on a new seed
	c.add(run(windowSeed(1, 1), "b"))
	if c.fail != 0 || c.attempted != 3 {
		t.Fatalf("consistent runs: %d of %d failed (%v)", c.fail, c.attempted, c.problems)
	}
	c.add(run(1, "x"))
	if c.fail != 1 || c.attempted != 4 {
		t.Fatalf("a changed digest: %d of %d failed", c.fail, c.attempted)
	}
	if windowSeed(1, 0) != 1 || windowSeed(1, 1) == windowSeed(1, 2) {
		t.Errorf("window seeds must start at the window's seed and differ")
	}
}
