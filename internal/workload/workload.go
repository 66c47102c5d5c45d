// Package workload models the applications the paper uses to drive its
// evaluation (Section 5.1):
//
//   - PiApp: a CPU-bound computation of fixed total work whose execution
//     time is the measured quantity ("an application which computes an
//     approximation of pi").
//   - WebApp: an open-loop request generator in the style of httperf
//     driving a Joomla web application; the measured quantity is CPU load.
//     Requests arrive on a configurable profile (the paper's three-phase
//     inactive/active/inactive shape) with either an "exact" intensity
//     (100% of the VM's capacity, not more) or a "thrashing" intensity
//     (exceeding the VM's capacity).
//
// Work is measured in abstract work units: one unit is one processor cycle
// at nominal efficiency, so a processor at frequency f MHz with efficiency
// e delivers f*1e6*e units per simulated second. All queue state is exact
// integer sim.Work (milli-work-units); float-specified sizes (request
// costs, job lengths, backlog bounds) are converted once at construction,
// so consumption arithmetic is associative and a batched stretch drains a
// queue bit-identically to quantum-by-quantum consumption.
package workload

import (
	"fmt"

	"pasched/internal/sim"
)

// Workload is the demand source attached to a VM. The host advances the
// workload with Tick (generating request arrivals and phase transitions)
// and lets the VM consume pending work when the scheduler runs it.
//
// Implementations are not safe for concurrent use; the simulation is
// single-threaded.
type Workload interface {
	// Tick advances internal bookkeeping (arrivals, phases) to now.
	Tick(now sim.Time)
	// Pending returns the amount of runnable work. A VM is runnable
	// whenever its workload has pending work.
	Pending() sim.Work
	// Consume removes up to max work, returning the amount actually
	// consumed. now is the simulated time at the end of the consumption
	// interval, used for completion bookkeeping.
	Consume(max sim.Work, now sim.Time) sim.Work
	// NextChange promises when the pending work can next change for any
	// reason other than a Consume call: a request arrival, a phase
	// transition, or internal bookkeeping that a Tick between now and the
	// returned time would have performed. It returns the earliest time >
	// now at which Pending may change without a Consume call, sim.Never
	// if it cannot, or a time <= now when no promise can be made. The
	// simulation engine batches stretches of quanta up to the promise; a
	// time at or before now forces quantum-by-quantum stepping, so a
	// conservative answer is always safe.
	NextChange(now sim.Time) sim.Time
}

// Idle is a workload that never has work. It models a powered-on but lazy
// VM outside its active phases.
type Idle struct{}

// Tick implements Workload.
func (Idle) Tick(sim.Time) {}

// Pending implements Workload.
func (Idle) Pending() sim.Work { return 0 }

// Consume implements Workload.
func (Idle) Consume(sim.Work, sim.Time) sim.Work { return 0 }

// NextChange implements Workload: an idle workload never gains work.
func (Idle) NextChange(sim.Time) sim.Time { return sim.Never }

// Hog is an always-runnable CPU hog with unbounded work, used by the
// calibration procedures where the paper saturates a VM.
type Hog struct {
	consumed sim.Work
}

// Tick implements Workload.
func (h *Hog) Tick(sim.Time) {}

// Pending implements Workload. A hog always has work.
func (h *Hog) Pending() sim.Work { return sim.MaxWork }

// Consume implements Workload.
func (h *Hog) Consume(max sim.Work, _ sim.Time) sim.Work {
	if max < 0 {
		return 0
	}
	h.consumed += max
	return max
}

// Consumed returns the total work executed by the hog.
func (h *Hog) Consumed() sim.Work { return h.consumed }

// NextChange implements Workload: a hog's backlog only moves through
// Consume.
func (h *Hog) NextChange(sim.Time) sim.Time { return sim.Never }

// PiApp is a fixed amount of CPU-bound work. Its completion time is the
// execution-time metric used by Figure 1 and Table 2.
type PiApp struct {
	total     sim.Work
	remaining sim.Work
	started   bool
	startAt   sim.Time
	done      bool
	doneAt    sim.Time
}

// NewPiApp returns a pi computation of total work units (converted once to
// exact integer sim.Work). It returns an error if work is not positive.
func NewPiApp(work float64) (*PiApp, error) {
	if work <= 0 {
		return nil, fmt.Errorf("workload: pi-app work must be positive, got %v", work)
	}
	w := sim.WorkFromUnits(work)
	return &PiApp{total: w, remaining: w}, nil
}

// PiWorkFor returns the amount of work that takes seconds of execution time
// when granted pct percent of a processor whose maximum-frequency
// throughput is maxThroughput work units per second. It is the helper used
// to size experiments: e.g. "a job that takes 1559 s at 20% of the
// Optiplex's capacity".
func PiWorkFor(maxThroughput, pct, seconds float64) float64 {
	return maxThroughput * pct / 100 * seconds
}

// Tick implements Workload.
func (p *PiApp) Tick(sim.Time) {}

// Pending implements Workload.
func (p *PiApp) Pending() sim.Work { return p.remaining }

// Consume implements Workload.
func (p *PiApp) Consume(max sim.Work, now sim.Time) sim.Work {
	if p.done || max <= 0 {
		return 0
	}
	if !p.started {
		p.started = true
		p.startAt = now
	}
	used := max
	if used > p.remaining {
		used = p.remaining
	}
	p.remaining -= used
	if p.remaining <= 0 {
		p.remaining = 0
		p.done = true
		p.doneAt = now
	}
	return used
}

// Done reports whether the computation has finished.
func (p *PiApp) Done() bool { return p.done }

// CompletionTime returns the simulated time at which the work completed.
// The second return value is false while the computation is still running.
func (p *PiApp) CompletionTime() (sim.Time, bool) {
	return p.doneAt, p.done
}

// Progress returns the fraction of the total work already executed.
func (p *PiApp) Progress() float64 {
	return float64(p.total-p.remaining) / float64(p.total)
}

// NextChange implements Workload: the fixed work pool only drains
// through Consume.
func (p *PiApp) NextChange(sim.Time) sim.Time { return sim.Never }
