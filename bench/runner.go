package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

//go:embed goldens.json
var goldensJSON []byte

// goldenSeeds are the seeds with committed golden digests: 42 is the
// default, 7 the held-out seed.
var goldenSeeds = []uint64{42, 7}

// golden returns the committed digest of a workload's run on seed.
func golden(workload string, seed uint64) (string, bool, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return "", false, fmt.Errorf("goldens.json: %w", err)
	}
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

// collector gathers the runs of one workload and checks each against
// the first run on the same seed. The reference run on the collector's
// seed comes first; its digest is checked against the golden where one
// is committed.
type collector struct {
	w               *workload
	seed            uint64
	ref             *opResult
	digests         map[uint64]string // first digest seen per seed
	timed, traced   []*opResult
	attempted, fail int
	problems        []string
}

func newCollector(w *workload, seed uint64) (*collector, error) {
	c := &collector{w: w, seed: seed, digests: map[uint64]string{}}
	ref, err := spawn(w, seed, true, false)
	if err != nil {
		return nil, err
	}
	want, ok, err := golden(w.name, seed)
	if err != nil {
		return nil, err
	}
	if !ok {
		want = ref.Digest
	}
	c.ref = ref
	c.digests[seed] = ref.Digest
	c.check(ref, want, "golden")
	return c, nil
}

func (c *collector) add(r *opResult) {
	want, seen := c.digests[r.Seed]
	if !seen {
		want = r.Digest
		c.digests[r.Seed] = want
	}
	c.check(r, want, "first run on its seed")
	if r.Traced {
		c.traced = append(c.traced, r)
	} else {
		c.timed = append(c.timed, r)
	}
}

func (c *collector) check(r *opResult, want, against string) {
	failed := r.Failed
	c.problems = append(c.problems, r.Problems...)
	if r.Digest != want {
		failed = min(r.Attempted, failed+1)
		c.problems = append(c.problems, fmt.Sprintf("%s seed %d: digest %.16s differs from the %s's %.16s",
			c.w.name, r.Seed, r.Digest, against, want))
	}
	c.attempted += r.Attempted
	c.fail += failed
}

// e2e summarizes the untraced runs. CPU times are in reference seconds
// (see calib.go); run_s and steal_s stay raw wall seconds.
func (c *collector) e2e() map[string]stat {
	pick := func(unit string, f func(*opResult) float64) stat {
		v := make([]float64, len(c.timed))
		for i, r := range c.timed {
			v[i] = f(r)
		}
		return newStat(unit, v)
	}
	return map[string]stat{
		"run_s":       pick("s", func(r *opResult) float64 { return r.RunS }),
		"cpu_s":       pick("s", func(r *opResult) float64 { return r.CPUS * r.Speed }),
		"setup_s":     pick("s", func(r *opResult) float64 { return r.SetupCPUS * r.Speed }),
		"peak_rss_mb": pick("MB", func(r *opResult) float64 { return r.PeakRSSMB }),
		"host_speed":  pick("ratio", func(r *opResult) float64 { return r.Speed }),
		"steal_s":     pick("s", func(r *opResult) float64 { return r.StealS }),
		"failed_frac": newStat("ratio", []float64{float64(c.fail) / float64(max(c.attempted, 1))}),
	}
}

// layers derives every per-layer metric: seam spans and the profile from
// the traced runs, counts from the reference run, rates and runtime
// figures from the untraced runs. Seam and profile metrics are absent
// when there was no traced run.
func (c *collector) layers() map[string]float64 {
	m := map[string]float64{}
	for k, v := range c.ref.Counts {
		m[k] = v
	}
	medianOf := func(rs []*opResult, f func(*opResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	// Rates are per reference CPU-second, the steadiest time base here.
	refCPU := func(r *opResult) float64 { return r.CPUS * r.Speed }
	if len(c.timed) > 0 {
		rate := func(count string) func(*opResult) float64 {
			return func(r *opResult) float64 { return r.Counts[count] / refCPU(r) }
		}
		m["engine.quanta_per_s"] = medianOf(c.timed, func(r *opResult) float64 {
			return (r.Counts["engine.batched_quanta"] + r.Counts["engine.stepped_quanta"]) / refCPU(r)
		})
		m["fleet.arrivals_per_s"] = medianOf(c.timed, rate("fleet.arrived"))
		m["obs.events_per_s"] = medianOf(c.timed, rate("obs.events"))
		m["go.alloc_mb"] = medianOf(c.timed, func(r *opResult) float64 { return r.AllocMB })
		m["go.gc_cycles"] = medianOf(c.timed, func(r *opResult) float64 { return r.GCCycles })
		m["go.gc_pause_ms"] = medianOf(c.timed, func(r *opResult) float64 { return r.GCPauseMs })
	}
	if len(c.traced) == 0 {
		return m
	}
	// Traced and untraced runs alternate, so the i-th of each ran side by
	// side; the median of their CPU-time ratios cancels drift in host
	// speed, and CPU time leaves out the hypervisor's steal.
	var ratios []float64
	for i := range min(len(c.timed), len(c.traced)) {
		ratios = append(ratios, refCPU(c.traced[i])/refCPU(c.timed[i]))
	}
	if len(ratios) > 0 {
		m["trace.overhead_pct"] = (median(ratios) - 1) * 100
	}
	share := func(d time.Duration, r *opResult) float64 { return 100 * d.Seconds() / r.RunS }
	seam := func(name string, f func(s *seamStats, r *opResult) float64) {
		m[name] = medianOf(c.traced, func(r *opResult) float64 { return f(r.Seams, r) })
	}
	seam("fleet.source.calls", func(s *seamStats, _ *opResult) float64 { return float64(s.SourceCalls) })
	seam("fleet.source.busy_ms", func(s *seamStats, _ *opResult) float64 { return ms(s.SourceBusy) })
	seam("fleet.source.busy_pct", func(s *seamStats, r *opResult) float64 { return share(s.SourceBusy, r) })
	seam("fleet.sink.calls", func(s *seamStats, _ *opResult) float64 { return float64(s.SinkCalls) })
	seam("fleet.sink.busy_ms", func(s *seamStats, _ *opResult) float64 { return ms(s.SinkBusy) })
	seam("fleet.sink.busy_pct", func(s *seamStats, r *opResult) float64 { return share(s.SinkBusy, r) })
	seam("fleet.sink.bytes", func(s *seamStats, _ *opResult) float64 { return float64(s.SinkBytes) })
	seam("obs.sink.windows", func(s *seamStats, _ *opResult) float64 { return float64(s.ObsWindows) })
	seam("obs.sink.events", func(s *seamStats, _ *opResult) float64 { return float64(s.ObsEvents) })
	seam("obs.sink.busy_ms", func(s *seamStats, _ *opResult) float64 { return ms(s.ObsBusy) })
	seam("obs.sink.busy_pct", func(s *seamStats, r *opResult) float64 { return share(s.ObsBusy, r) })
	seam("obs.sink.bytes", func(s *seamStats, _ *opResult) float64 { return float64(s.ObsBytes) })

	// Interval and experiment times pool across the traced runs, so the
	// tail percentile has samples enough beyond it.
	var intervals, experiments []float64
	var prof layerSamples
	for _, r := range c.traced {
		intervals = append(intervals, r.Seams.IntervalsMs...)
		experiments = append(experiments, r.Seams.ExperimentsMs...)
		prof.add(r.Prof)
	}
	m["fleet.interval.n"] = float64(len(intervals))
	m["fleet.interval.p50_ms"] = median(intervals)
	m["fleet.interval.tail_ms"], m["fleet.interval.tail_pctl"] = tail(intervals)
	m["paper.experiment.n"] = float64(len(experiments))
	m["paper.experiment.p50_ms"] = median(experiments)
	m["paper.experiment.max_ms"] = maxOf(experiments)

	m["prof.samples"] = float64(prof.Total)
	for _, l := range layers {
		n := float64(prof.Samples[l])
		m["prof."+l+".self_s"] = n * float64(prof.PeriodNs) / 1e9 / float64(len(c.traced))
		m["prof."+l+".pct"] = 0
		if prof.Total > 0 {
			m["prof."+l+".pct"] = 100 * n / float64(prof.Total)
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// checkWorkers refuses a workload that would run more workers than the
// host has CPUs: the run would measure time-slicing, not the program.
func checkWorkers(ws []*workload) error {
	for _, w := range ws {
		if n := w.workers(); n > runtime.NumCPU() {
			return fmt.Errorf("workload %s runs %d workers but this host has %d CPUs", w.name, n, runtime.NumCPU())
		}
	}
	return nil
}

// driverResult is the one-line result of a measurement window.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// windowSeeds is how many input seeds a window cycles through. Peak RSS
// of fleet-serve follows the busiest reporting interval of its trace:
// over ten seeds, window medians on one trace each spread 9-11%
// (interquartile over median), and medians over four traces 3.5%.
const windowSeeds = 4

// windowSeed derives the k-th input seed of a window; the first is the
// window's own seed, so its reference run meets the goldens.
func windowSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return seed ^ uint64(k)*0x9e3779b97f4a7c15
}

// drive runs one workload for a measurement window of the given length:
// a reference run, then fresh child runs until the window is spent —
// untraced only, or alternating untraced and traced with trace, where
// each pair shares a seed. Runs cycle through windowSeeds input seeds,
// so every seed runs about twice and each repeat must match the first.
// It prints the end-to-end medians, or with trace the per-layer metrics,
// as the last line of output.
func drive(w *workload, seed uint64, window time.Duration, trace bool, out io.Writer) (bool, error) {
	c, err := newCollector(w, seed)
	if err != nil {
		return false, err
	}
	minRuns := 3
	if trace {
		minRuns = 4
	}
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		// Start a run only if a typical one still fits in the window.
		if i >= minRuns && time.Since(start).Seconds()+median(walls) > window.Seconds() {
			break
		}
		pair := i
		if trace {
			pair = i / 2
		}
		t0 := time.Now()
		r, err := spawn(w, windowSeed(seed, pair%windowSeeds), false, trace && i%2 == 1)
		if err != nil {
			return false, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		c.add(r)
	}
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	res := driverResult{Correct: c.fail == 0, Attempted: c.attempted, Failed: c.fail, Metrics: map[string]metricValue{}}
	if trace {
		lm := c.layers()
		for _, d := range layerMetrics {
			if d.driver {
				res.Metrics[d.name] = metricValue{lm[d.name], d.unit}
			}
		}
	} else {
		e2e := c.e2e()
		for _, d := range e2eMetrics {
			if d.driver {
				res.Metrics[d.name] = metricValue{e2e[d.name].Median, d.unit}
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return res.Correct, err
}

// resultSet is one interleaved set of runs, as committed under results/.
type resultSet struct {
	Label     string                     `json:"label"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs"`
	Traced    bool                       `json:"traced"`
	GoVersion string                     `json:"go_version"`
	NumCPU    int                        `json:"num_cpu"`
	Date      string                     `json:"date"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	E2E       map[string]stat        `json:"e2e"`
	Layers    map[string]metricValue `json:"layers"`
}

// trajectory is a results file: one or more labelled sets.
type trajectory struct {
	Sets []*resultSet `json:"sets"`
}

// runSet runs every workload round-robin, one fresh child per run, runs
// times each, plus a traced run after each untraced one with traced.
func runSet(ws []*workload, seed uint64, runs int, traced bool, label string) (*resultSet, error) {
	cols := make([]*collector, len(ws))
	for i, w := range ws {
		c, err := newCollector(w, seed)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	one := func(c *collector, tr bool) error {
		res, err := spawn(c.w, seed, false, tr)
		if err == nil {
			c.add(res)
		}
		return err
	}
	for r := 0; r < runs; r++ {
		for _, c := range cols {
			if err := one(c, false); err != nil {
				return nil, err
			}
			if traced {
				if err := one(c, true); err != nil {
					return nil, err
				}
			}
		}
		fmt.Fprintf(os.Stderr, "round %d/%d done\n", r+1, runs)
	}
	set := &resultSet{
		Label: label, Seed: seed, Runs: runs, Traced: traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Date:      time.Now().UTC().Format(time.DateOnly),
		Workloads: map[string]*workloadResult{},
	}
	for _, c := range cols {
		wr := &workloadResult{Attempted: c.attempted, Failed: c.fail, Digest: c.ref.Digest, E2E: c.e2e(), Layers: map[string]metricValue{}}
		for name, v := range c.layers() {
			wr.Layers[name] = metricValue{v, unitOf(name)}
		}
		set.Workloads[c.w.name] = wr
		for _, p := range c.problems {
			fmt.Fprintln(os.Stderr, "FAIL:", p)
		}
	}
	return set, nil
}

func unitOf(name string) string {
	for _, d := range layerMetrics {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// printSet writes every metric of every workload by name with its unit.
func printSet(w io.Writer, set *resultSet, order []*workload) {
	for _, wl := range order {
		r, ok := set.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s  (seed %d, %d runs, %d/%d operations failed)\n", wl.name, set.Seed, set.Runs, r.Failed, r.Attempted)
		fmt.Fprintf(w, "  %-28s %-6s %-9s %12s %12s %12s %4s\n", "end to end", "unit", "base", "median", "q1", "q3", "n")
		for _, d := range e2eMetrics {
			s := r.E2E[d.name]
			fmt.Fprintf(w, "  %-28s %-6s %-9s %12.6g %12.6g %12.6g %4d\n", d.name, d.unit, d.base, s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "  %-28s %-6s %-9s %12s\n", "per layer", "unit", "base", "value")
		for _, d := range layerMetrics {
			v, ok := r.Layers[d.name]
			val := "n/a"
			if ok {
				val = strconv.FormatFloat(v.Value, 'g', 6, 64)
			}
			fmt.Fprintf(w, "  %-28s %-6s %-9s %12s\n", d.name, d.unit, d.base, val)
		}
	}
}

// saveSet adds set to the trajectory file at path, replacing a set with
// the same label.
func saveSet(path string, set *resultSet) error {
	var t trajectory
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	kept := t.Sets[:0]
	for _, s := range t.Sets {
		if s.Label != set.Label {
			kept = append(kept, s)
		}
	}
	t.Sets = append(kept, set)
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseWorkloads(list string) ([]*workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		w, err := workloadByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
