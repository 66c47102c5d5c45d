package experiments

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pasched/internal/energy"
	"pasched/internal/metrics"
	"pasched/internal/sim"
)

// Figures 4/5, 6/7 and 9/10 plot two views of one run each, and the
// energy and ablation tables revisit the figures' runs, so the Section
// 5.3 experiments read their runs through a process-wide memo: each
// distinct (scheduler, governor, load, seed) simulates once per process.

// keptSeries names the recorder series the Section 5.3 experiments read;
// a memoized run keeps those of them its scheduler recorded.
var keptSeries = []string{
	"V20_global_pct", "V70_global_pct",
	"V20_absolute_pct", "V70_absolute_pct",
	"V20_cap_pct", "freq_mhz",
}

// scenarioRun is the read-only outcome of one Section 5.3 run: exact-
// length copies of the kept series, the energy meter and the cumulative
// work. It holds no host and no recorder, so concurrent readers never
// write; whatever goes into a Result is copied out (cloneSeries).
type scenarioRun struct {
	kept   map[string]*metrics.Series
	energy *energy.Meter
	work   sim.Work
}

// series returns the kept series with the given name; an unknown or
// unrecorded name is an error.
func (r *scenarioRun) series(name string) (*metrics.Series, error) {
	s, ok := r.kept[name]
	if !ok {
		return nil, fmt.Errorf("experiments: scenario run keeps no series %q", name)
	}
	return s, nil
}

// cloneSeries returns s under the given name with exact-length copies of
// its points.
func cloneSeries(name string, s *metrics.Series) *metrics.Series {
	c := &metrics.Series{
		Name: name,
		T:    make([]float64, len(s.T)),
		V:    make([]float64, len(s.V)),
	}
	copy(c.T, s.T)
	copy(c.V, s.V)
	return c
}

// scenarioKey is newScenario's inputs: one distinct Section 5.3 run.
type scenarioKey struct {
	scheduler, governor string
	load                loadKind
	seed                uint64
}

// memoEntry is one key's slot. The first request simulates under once;
// concurrent requests wait for it and later ones share its outcome.
type memoEntry struct {
	once sync.Once
	run  *scenarioRun
	err  error
}

// scenarioMemo holds every Section 5.3 run simulated in this process.
var scenarioMemo struct {
	mu      sync.Mutex
	entries map[scenarioKey]*memoEntry
}

// scenarioRequests counts runScenario calls and scenarioSimulations the
// simulations they ran; only tests read them.
var scenarioRequests, scenarioSimulations atomic.Int64

// runScenario returns the outcome of the Section 5.3 run under the named
// registry scheduler and scenario governor, simulating it on the key's
// first request in this process. The outcome is shared: callers must not
// modify it.
func runScenario(scheduler, gov string, lk loadKind, seed uint64) (*scenarioRun, error) {
	k := scenarioKey{scheduler: scheduler, governor: gov, load: lk, seed: seed}
	scenarioRequests.Add(1)
	scenarioMemo.mu.Lock()
	e := scenarioMemo.entries[k]
	if e == nil {
		if scenarioMemo.entries == nil {
			scenarioMemo.entries = make(map[scenarioKey]*memoEntry)
		}
		e = &memoEntry{}
		scenarioMemo.entries[k] = e
	}
	scenarioMemo.mu.Unlock()
	e.once.Do(func() {
		scenarioSimulations.Add(1)
		e.run, e.err = simulateScenario(k)
	})
	return e.run, e.err
}

// simulateScenario builds and runs the key's scenario and keeps its
// outcome.
func simulateScenario(k scenarioKey) (*scenarioRun, error) {
	sc, err := newScenario(k.scheduler, k.governor, k.load, k.seed)
	if err != nil {
		return nil, err
	}
	if err := sc.run(); err != nil {
		return nil, err
	}
	run := &scenarioRun{
		kept:   make(map[string]*metrics.Series, len(keptSeries)),
		energy: sc.host.Energy(),
		work:   sc.host.CumulativeWork(),
	}
	for _, s := range sc.host.Recorder().All() {
		if slices.Contains(keptSeries, s.Name) {
			run.kept[s.Name] = cloneSeries(s.Name, s)
		}
	}
	return run, nil
}

// ForgetScenarios drops every memoized Section 5.3 run, so the next
// request for each configuration simulates again. Benchmarks call it
// before every iteration to time cold runs.
func ForgetScenarios() {
	scenarioMemo.mu.Lock()
	scenarioMemo.entries = nil
	scenarioMemo.mu.Unlock()
}
