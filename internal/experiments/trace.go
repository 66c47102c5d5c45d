package experiments

import (
	"fmt"

	"pasched/internal/host"
	"pasched/internal/metrics"
)

// TraceSchedulers lists the scheduler names Trace accepts — the machine
// builder's registry (host.SchedulerNames) — for CLI usage strings.
var TraceSchedulers = host.SchedulerNames()

// Trace runs one fresh Section 5.3 scenario with the named configuration
// (never the experiments' memo) and returns the full recorder, for CSV
// export by cmd/pastrace. Valid schedulers: TraceSchedulers. Valid
// governors, the scenario governor table (TraceGovernors):
// "performance", "powersave", "conservative", "ondemand" (stock),
// "paper" (the paper's smoothed governor with the Optiplex 755's cf
// table), "paper-cf1" (the same governor assuming cf=1) and "none"; the
// PAS family runs with "none" only. Valid loads: "exact", "thrashing".
func Trace(scheduler, gov, load string, seed uint64) (*metrics.Recorder, error) {
	var lk loadKind
	switch load {
	case "exact":
		lk = loadExact
	case "thrashing":
		lk = loadThrashing
	default:
		return nil, fmt.Errorf("experiments: unknown load %q (exact, thrashing)", load)
	}
	sc, err := newScenario(scheduler, gov, lk, seed)
	if err != nil {
		return nil, err
	}
	if err := sc.run(); err != nil {
		return nil, err
	}
	return sc.host.Recorder(), nil
}
