package experiments

import (
	"fmt"
	"strings"

	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// The execution profile of Section 5.3, scaled in time: two VMs, V20 (20%
// credit) and V70 (70% credit), each with an inactive-active-inactive
// profile; Dom0 holds the remaining 10% at the highest priority with a
// light background load. V20 is active early while V70 is lazy, then the
// two overlap, then V70 runs alone.
const (
	scenarioDur = 700 * sim.Second
	v20Start    = 50 * sim.Second
	v20End      = 450 * sim.Second
	v70Start    = 250 * sim.Second
	v70End      = 650 * sim.Second

	// Check windows, clear of the phase boundaries.
	p1Lo, p1Hi = 70.0, 240.0  // V20 active, V70 lazy
	p2Lo, p2Hi = 280.0, 430.0 // both active
	p3Lo, p3Hi = 470.0, 630.0 // V70 active, V20 done
)

// thrashFactor is how far a thrashing load exceeds the VM capacity.
const thrashFactor = 5

// dom0LoadPct is Dom0's steady background load in percent of the host.
const dom0LoadPct = 1.0

// loadKind selects exact vs thrashing intensity (Section 5.3).
type loadKind int

const (
	loadExact loadKind = iota + 1
	loadThrashing
)

// scenarioSeed is the arrival seed every experiment runs the Section 5.3
// profile with.
const scenarioSeed = 42

// scenario is one instantiated Section 5.3 run.
type scenario struct {
	host *host.Host
}

// scenarioGovernors is the one table of Section 5.3 governor names; each
// build returns a fresh governor, nil for "none". The PAS family manages
// DVFS itself and runs with "none" only.
var scenarioGovernors = []struct {
	name  string
	build func() governor.Governor
}{
	{"performance", func() governor.Governor { return &governor.Performance{} }},
	{"powersave", func() governor.Governor { return &governor.Powersave{} }},
	{"conservative", func() governor.Governor { return governor.NewConservative() }},
	// The stock Linux ondemand governor.
	{"ondemand", func() governor.Governor { return governor.NewLinuxOndemand() }},
	// The paper's smoothed governor with the Optiplex 755's cf table.
	{"paper", func() governor.Governor {
		return governor.NewPaperOndemand(cpufreq.Optiplex755().EfficiencyTable())
	}},
	// The same governor assuming cf=1 at every P-state.
	{"paper-cf1", func() governor.Governor { return governor.NewPaperOndemand(nil) }},
	{"none", func() governor.Governor { return nil }},
}

// TraceGovernors lists the governor names Trace accepts — the scenario
// governor table — for CLI usage strings.
var TraceGovernors = func() string {
	names := make([]string, len(scenarioGovernors))
	for i, g := range scenarioGovernors {
		names[i] = g.name
	}
	return strings.Join(names, ", ")
}()

// scenarioGovernor builds the named Section 5.3 governor from
// scenarioGovernors.
func scenarioGovernor(name string) (governor.Governor, error) {
	for _, g := range scenarioGovernors {
		if g.name == name {
			return g.build(), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown governor %q (%s)", name, TraceGovernors)
}

// newScenario builds the Section 5.3 host on the Optiplex 755 under the
// named registry scheduler and scenario governor: Dom0 with its
// background load, and the two web VMs whose arrivals draw from seed+1
// (V20) and seed+2 (V70).
func newScenario(scheduler, gov string, lk loadKind, seed uint64) (*scenario, error) {
	g, err := scenarioGovernor(gov)
	if err != nil {
		return nil, err
	}
	prof := cpufreq.Optiplex755()
	h, err := host.NewMachine(scheduler, 10, host.Config{Profile: prof, Governor: g})
	if err != nil {
		return nil, err
	}
	if err := addDom0Load(h); err != nil {
		return nil, err
	}
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		return nil, err
	}
	factor := 1.0
	if lk == loadThrashing {
		factor = thrashFactor
	}
	for i, w := range []struct {
		name       string
		credit     float64
		start, end sim.Time
	}{
		{"V20", 20, v20Start, v20End},
		{"V70", 70, v70Start, v70End},
	} {
		v, err := vm.New(vm.ID(i+1), vm.Config{Name: w.name, Credit: w.credit})
		if err != nil {
			return nil, err
		}
		web, err := workload.NewWebApp(workload.WebAppConfig{
			Phases: workload.ThreePhase(w.start, w.end,
				workload.ExactRate(maxTp, w.credit, workload.DefaultRequestCost)*factor),
			Seed: seed + uint64(i+1),
		})
		if err != nil {
			return nil, err
		}
		v.SetWorkload(web)
		if err := h.AddVM(v); err != nil {
			return nil, err
		}
	}
	return &scenario{host: h}, nil
}

// addDom0Load gives the machine's Dom0 (VM 0) the evaluation's light
// background load: dom0LoadPct of the host in short deterministic
// requests, for the whole run.
func addDom0Load(h *host.Host) error {
	prof := h.CPU().Profile()
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		return err
	}
	const cost = 0.002 * 2667e6
	wl, err := workload.NewWebApp(workload.WebAppConfig{
		RequestCost:   cost,
		Deterministic: true,
		Phases:        workload.ThreePhase(0, 1<<55, workload.ExactRate(maxTp, dom0LoadPct, cost)),
	})
	if err != nil {
		return err
	}
	h.VM(0).SetWorkload(wl)
	return nil
}

// run executes the full profile.
func (s *scenario) run() error {
	return s.host.RunUntil(scenarioDur)
}
