package workload

import (
	"fmt"

	"pasched/internal/sim"
)

// Phase is one segment of a load profile: between Start and End the
// generator produces requests at Rate requests per second. Outside all
// phases the generator is inactive.
type Phase struct {
	Start sim.Time
	End   sim.Time
	Rate  float64 // requests per simulated second
}

// WebAppConfig configures an open-loop web-load generator.
type WebAppConfig struct {
	// RequestCost is the CPU cost of one request in work units. The
	// default models a dynamic-page request costing 20 ms of CPU at the
	// Optiplex's maximum frequency.
	RequestCost float64
	// Phases is the activity profile. Phases must be non-overlapping and
	// sorted by start time.
	Phases []Phase
	// Deterministic selects fixed inter-arrival times instead of a
	// Poisson process. The paper's stock-ondemand oscillation (Fig. 3)
	// needs the bursty (Poisson) arrivals; the smoothed comparisons work
	// with either.
	Deterministic bool
	// MaxBacklog bounds the pending-work queue, in work units. Arrivals
	// beyond the bound are dropped, modelling connection-queue overflow
	// in the real web stack (httperf keeps offering load regardless).
	// Zero selects the default of 5 seconds of work at rated cost;
	// negative means unbounded.
	MaxBacklog float64
	// Seed seeds the arrival process.
	Seed uint64
}

// DefaultRequestCost is the default per-request CPU cost in work units:
// 20 ms of CPU time on a 2667 MHz processor at full efficiency.
const DefaultRequestCost = 0.020 * 2667e6

// WebApp is an open-loop queued request generator (the httperf + Joomla
// substitute). Arrivals enqueue work; the VM drains the queue when
// scheduled. The offered rate follows the configured phases.
//
// Arrivals come from an ArrivalProcess — a per-phase renewal chain that
// depends only on the configuration and the seed, never on when Tick
// happens to be called — which is what lets the simulation engine batch
// straight through it: NextChange's promise is the exact next arrival.
type WebApp struct {
	cfg        WebAppConfig
	arr        *ArrivalProcess
	lastTick   sim.Time
	queue      sim.Work
	cost       sim.Work // per-request CPU cost, converted once at construction
	offered    int64    // requests offered
	dropped    int64    // requests dropped due to backlog bound
	completed  sim.Work // work served
	maxBacklog sim.Work
}

var _ Workload = (*WebApp)(nil)

// NewWebApp builds a web-load generator. It validates the phase list and
// request cost.
func NewWebApp(cfg WebAppConfig) (*WebApp, error) {
	if cfg.RequestCost == 0 {
		cfg.RequestCost = DefaultRequestCost
	}
	if cfg.RequestCost < 0 {
		return nil, fmt.Errorf("workload: negative request cost %v", cfg.RequestCost)
	}
	arr, err := NewArrivalProcess(cfg.Phases, cfg.Deterministic, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxBacklog := cfg.MaxBacklog
	switch {
	case maxBacklog == 0:
		maxBacklog = 5 * cfg.RequestCost * 50 // ~5s of work at 50 req/s
	case maxBacklog < 0:
		maxBacklog = 0 // unbounded
	}
	return &WebApp{
		cfg:        cfg,
		arr:        arr,
		cost:       sim.WorkFromUnits(cfg.RequestCost),
		maxBacklog: sim.WorkFromUnits(maxBacklog),
	}, nil
}

// Tick implements Workload: it delivers all arrivals in (lastTick, now].
func (w *WebApp) Tick(now sim.Time) {
	if now <= w.lastTick {
		return
	}
	for {
		at, ok := w.arr.Peek()
		if !ok || at > now {
			break
		}
		w.arrive()
		w.arr.Pop()
	}
	w.lastTick = now
}

func (w *WebApp) arrive() {
	w.offered++
	if w.maxBacklog > 0 && w.queue+w.cost > w.maxBacklog {
		w.dropped++
		return
	}
	w.queue += w.cost
}

// Pending implements Workload.
func (w *WebApp) Pending() sim.Work { return w.queue }

// NextChange implements Workload. The renewal chain always holds the
// exact next arrival (or is exhausted), independent of tick granularity,
// so the promise is precise: the queue next changes at that arrival, or
// never. An arrival at or before now is already due but not yet
// delivered, which the engine treats as "cannot batch" and steps through
// the reference path that Ticks it in.
func (w *WebApp) NextChange(sim.Time) sim.Time {
	if at, ok := w.arr.Peek(); ok {
		return at
	}
	return sim.Never
}

// Consume implements Workload.
func (w *WebApp) Consume(max sim.Work, _ sim.Time) sim.Work {
	if max <= 0 || w.queue <= 0 {
		return 0
	}
	used := max
	if used > w.queue {
		used = w.queue
	}
	w.queue -= used
	w.completed += used
	return used
}

// Offered returns the number of requests generated so far.
func (w *WebApp) Offered() int64 { return w.offered }

// Dropped returns the number of requests rejected by the backlog bound.
func (w *WebApp) Dropped() int64 { return w.dropped }

// CompletedWork returns the work served so far.
func (w *WebApp) CompletedWork() sim.Work { return w.completed }

// ExactRate returns the request rate that makes the offered load equal to
// exactly pct percent of a processor with maximum-frequency throughput
// maxThroughput (the paper's "exact load": 100% of the VM capacity, not
// more).
func ExactRate(maxThroughput, pct, requestCost float64) float64 {
	if requestCost <= 0 {
		requestCost = DefaultRequestCost
	}
	return maxThroughput * pct / 100 / requestCost
}

// ThrashingRate returns a request rate that exceeds the VM's capacity by
// factor (>1), the paper's "thrashing load".
func ThrashingRate(maxThroughput, pct, requestCost, factor float64) float64 {
	if factor < 1 {
		factor = 1
	}
	return ExactRate(maxThroughput, pct, requestCost) * factor
}

// ThreePhase builds the paper's inactive-active-inactive profile: the VM is
// active in [start, end) at the given rate, inactive elsewhere.
func ThreePhase(start, end sim.Time, rate float64) []Phase {
	return []Phase{{Start: start, End: end, Rate: rate}}
}
