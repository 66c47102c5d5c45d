package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. base says what the number
// measures: host time or memory, simulated work, or a check outcome.
// driver marks the metrics BENCHMARK.json lists; the others are printed
// and recorded by the interleaved runner only, because they are host
// times that read zero by construction on some workload (their _pct
// shares are listed instead), or counts no workload makes nonzero.
type metricDef struct {
	name, unit string
	base       string
	better     string
	driver     bool
}

var e2eMetrics = []metricDef{
	{"run_s", "s", "host", "lower", false},
	{"cpu_s", "s", "host-ref", "lower", true},
	{"setup_s", "s", "host-ref", "lower", true},
	{"peak_rss_mb", "MB", "host", "lower", true},
	{"host_speed", "ratio", "host", "higher", false},
	{"steal_s", "s", "host", "lower", false},
	// Always 0 on a correct build, so the driver carries failures in its
	// attempted/failed fields instead.
	{"failed_frac", "ratio", "check", "lower", false},
}

// quietLayers are layers no workload spends measurable time in.
var quietLayers = map[string]bool{"consolidation": true, "experiments": true, "multicore": true, "platform": true, "calib": true}

// layerMetrics lists the per-layer metrics in report order.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"fleet.source.calls", "count", "sim", "higher", true},
		{"fleet.source.busy_ms", "ms", "host", "lower", false},
		{"fleet.source.busy_pct", "%", "host", "lower", true},
		{"fleet.sink.calls", "count", "sim", "higher", true},
		{"fleet.sink.busy_ms", "ms", "host", "lower", false},
		{"fleet.sink.busy_pct", "%", "host", "lower", true},
		{"fleet.sink.bytes", "B", "sim", "lower", true},
		{"fleet.interval.n", "count", "sim", "higher", true},
		{"fleet.interval.p50_ms", "ms", "host", "lower", false},
		{"fleet.interval.tail_ms", "ms", "host", "lower", false},
		{"fleet.interval.tail_pctl", "pctl", "host", "higher", false},
		{"obs.sink.windows", "count", "sim", "higher", true},
		{"obs.sink.events", "count", "sim", "higher", true},
		{"obs.sink.busy_ms", "ms", "host", "lower", false},
		{"obs.sink.busy_pct", "%", "host", "lower", true},
		{"obs.sink.bytes", "B", "sim", "lower", true},
		{"paper.experiment.n", "count", "sim", "higher", true},
		{"paper.experiment.p50_ms", "ms", "host", "lower", false},
		{"paper.experiment.max_ms", "ms", "host", "lower", false},
		{"prof.samples", "count", "host", "lower", true},
	}
	for _, l := range layers {
		ms = append(ms,
			metricDef{"prof." + l + ".self_s", "s", "host", "lower", false},
			metricDef{"prof." + l + ".pct", "%", "host", "lower", !quietLayers[l]})
	}
	for _, c := range []struct {
		name   string
		better string
		driver bool
	}{
		{"fleet.arrived", "higher", true},
		{"fleet.departed", "higher", true},
		{"fleet.rejected", "lower", false},
		{"fleet.migrated", "higher", true},
		{"fleet.power_ons", "lower", true},
		{"engine.batched_quanta", "higher", true},
		{"engine.stepped_quanta", "lower", true},
		{"serve.offered", "higher", true},
		{"serve.completed", "higher", true},
		{"serve.abandoned", "lower", false},
		{"obs.events", "higher", true},
		{"autoscale.actions", "higher", true},
		{"autoscale.rejected", "lower", false},
		{"paper.checks", "higher", true},
		{"paper.checks_failed", "lower", false},
	} {
		ms = append(ms, metricDef{c.name, "count", "sim", c.better, c.driver})
	}
	return append(ms,
		metricDef{"engine.batched_frac", "ratio", "sim", "higher", true},
		metricDef{"engine.quanta_per_s", "1/s", "sim/host", "higher", true},
		metricDef{"fleet.arrivals_per_s", "1/s", "sim/host", "higher", true},
		metricDef{"obs.events_per_s", "1/s", "sim/host", "higher", true},
		metricDef{"go.alloc_mb", "MB", "host", "lower", true},
		metricDef{"go.gc_cycles", "count", "host", "lower", true},
		metricDef{"go.gc_pause_ms", "ms", "host", "lower", false},
		metricDef{"trace.overhead_pct", "%", "host", "lower", true},
	)
}()

// stat summarizes one metric over a set of runs.
type stat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(values), Unit: unit, Values: values}
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the quartiles by the exclusive method of Python's
// statistics.quantiles(values, n=4), and the median.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	med = x[n/2]
	if n%2 == 0 {
		med = (x[n/2-1] + x[n/2]) / 2
	}
	if n == 1 {
		return x[0], med, x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// tail returns the highest of a fixed ladder of percentiles that has at
// least ten samples beyond it, by nearest rank; pctl is 0 when there are
// too few samples for even the median to qualify.
func tail(values []float64) (value, pctl float64) {
	n := len(values)
	for _, permille := range []int{999, 990, 950, 900, 750, 500} {
		if n*(1000-permille) < 10*1000 {
			continue
		}
		x := append([]float64(nil), values...)
		sort.Float64s(x)
		rank := (permille*n + 999) / 1000
		return x[rank-1], float64(permille) / 10
	}
	return 0, 0
}
