// Package fleet simulates a heterogeneous hosting center at datacenter
// scale: hundreds to thousands of physical machines of several hardware
// classes (different core ladders, power curves and memory sizes), fed by
// a VM lifecycle trace — VMs arrive, run a demand profile for a
// heavy-tailed lifetime, and depart. One of three built-in placement
// policies decides which machine hosts each arrival (and where
// consolidation migrates running VMs), machines power on and off with
// the population, and the fleet reports cluster-level energy,
// active-machine and SLA curves.
//
// It is the Section 2.3 scenario of the paper — dynamic consolidation
// packing VMs onto a minimal set of machines and switching the rest off —
// grown to the scale the shared simulation engine (internal/engine) was
// built for: every machine is a full simulated host (internal/host)
// running PAS or fix-credit, machines advance independently between
// fleet-level events so event-horizon batching folds the long
// uninterrupted stretches, and all machines synchronize only at
// reporting barriers.
//
// Execution is sharded: machine i belongs to shard i % Shards, each
// shard owning its hosts and RNG stream. The event loop itself is a
// sequential control plane — placement and consolidation planning
// through the policy's placement index, and migration bookkeeping, run
// on the coordinator against bookkeeping-only machine state — that
// stages host work on the shards as timestamped
// commands. A flush runs every shard's commands in coordinator order
// through engine.RunParallel, at reporting barriers and wherever the
// coordinator needs the data plane settled; a migration flushes the
// source's detach before the destination attaches the VM. All reduced
// quantities are exact integers (sim.Work, energy.Energy), so the
// machine → shard → fleet reduction is order-independent and the
// report is bit-identical for every shard and worker count. Results
// can be streamed through Sink instead of (or alongside) the buffered
// Report, keeping memory proportional to machines + live VMs.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// ReferenceThroughput is the work-unit throughput against which trace
// demand percentages are expressed: the paper's DELL Optiplex 755 at its
// maximum frequency (2667 MHz at full efficiency). Demand is absolute
// work, so a VM's trace means the same load on every machine class; what
// changes across classes is how much absolute capacity the VM's credit
// buys.
const ReferenceThroughput = 2667e6

// maxTraceSeconds bounds every time field a trace may carry, keeping
// parsed values far from sim.Time overflow (the parser is an external
// input surface; see the fuzz tests).
const maxTraceSeconds = 1e9

// VMClass is one class of VMs in a trace: the credit (SLA) and memory
// footprint every VM of the class is created with.
type VMClass struct {
	// Name identifies the class within the trace.
	Name string
	// CreditPct is the CPU credit (SLA) in (0, 100].
	CreditPct float64
	// MemoryMB is the VM memory footprint (the packing constraint).
	MemoryMB int
}

// Validate checks the class invariants.
func (c VMClass) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("fleet: VM class without a name")
	}
	if !isFinite(c.CreditPct) || c.CreditPct <= 0 || c.CreditPct > 100 {
		return fmt.Errorf("fleet: class %s: credit %v outside (0,100]", c.Name, c.CreditPct)
	}
	if c.MemoryMB <= 0 {
		return fmt.Errorf("fleet: class %s: memory %d not positive", c.Name, c.MemoryMB)
	}
	return nil
}

// VMEvent is one VM lifecycle in the trace: the VM arrives at Arrive,
// offers its demand profile, and departs Lifetime later (or at the run
// horizon, whichever comes first).
type VMEvent struct {
	// Name labels the VM; no two concurrently live VMs share one.
	Name string
	// Class names the VMClass the VM is created from.
	Class string
	// Arrive is the arrival time.
	Arrive sim.Time
	// Lifetime is how long the VM stays before departing.
	Lifetime sim.Time
	// Activity is the mean fraction of the credit the VM's workload
	// demands, in [0, 1]. When Demand is nil the VM offers a constant
	// CreditPct x Activity percent of ReferenceThroughput for its whole
	// lifetime.
	Activity float64
	// Demand optionally carries a piecewise request-rate profile in
	// absolute simulated time (requests per second at
	// workload.DefaultRequestCost each), overriding the constant profile
	// derived from Activity. The synthetic generator fills it with
	// diurnal segments.
	Demand []workload.Phase
}

// eventCheck is the one check of the TraceSource event contract, and
// it owns the order state: every event names a VM, references a class
// of the catalogue, arrives inside [0, horizon), lives a positive
// lifetime with activity in [0, 1], and follows its predecessor
// strictly in (Arrive, Name) order. ParseTraceStream checks each record
// through it, and the fleet checks each event it pulls, so the CSV
// reader rejects on its own everything the fleet would. A name may
// recur later in the stream (a VM name reused after its earlier holder
// left); the fleet rejects two concurrently live VMs sharing a name.
type eventCheck struct {
	classes map[string]VMClass
	horizon sim.Time
	// n counts the events accepted so far: the index of the next one.
	n          int
	prevArrive sim.Time
	prevName   string
}

// next checks ev against the contract and its predecessor, and on
// success makes it the predecessor of the next call. Errors carry no
// position; callers prefix the line or event index they know.
func (c *eventCheck) next(ev *VMEvent) error {
	if ev.Name == "" {
		return errors.New("VM without a name")
	}
	if _, known := c.classes[ev.Class]; !known {
		return fmt.Errorf("VM %s references unknown class %q", ev.Name, ev.Class)
	}
	if ev.Arrive < 0 || ev.Arrive >= c.horizon {
		return fmt.Errorf("VM %s arrives at %v, outside [0, %v)", ev.Name, ev.Arrive, c.horizon)
	}
	if ev.Lifetime <= 0 {
		return fmt.Errorf("VM %s lifetime %v not positive", ev.Name, ev.Lifetime)
	}
	if !isFinite(ev.Activity) || ev.Activity < 0 || ev.Activity > 1 {
		return fmt.Errorf("VM %s activity %v outside [0,1]", ev.Name, ev.Activity)
	}
	if c.n > 0 {
		if ev.Arrive == c.prevArrive && ev.Name == c.prevName {
			return fmt.Errorf("duplicate VM name %q", ev.Name)
		}
		if ev.Arrive < c.prevArrive || (ev.Arrive == c.prevArrive && ev.Name < c.prevName) {
			return fmt.Errorf("VM %s follows %s: events not sorted by (arrive, name)", ev.Name, c.prevName)
		}
	}
	c.n++
	c.prevArrive, c.prevName = ev.Arrive, ev.Name
	return nil
}

// demandPhases returns the event's request-rate profile in absolute time:
// the explicit Demand when present, otherwise a single constant-rate
// phase covering the lifetime, derived from Activity.
func (ev VMEvent) demandPhases(class VMClass, until sim.Time) []workload.Phase {
	end := ev.Arrive + ev.Lifetime
	if end > until {
		end = until
	}
	if len(ev.Demand) > 0 {
		out := make([]workload.Phase, 0, len(ev.Demand))
		for _, ph := range ev.Demand {
			if ph.Start >= end {
				break
			}
			if ph.End > end {
				ph.End = end
			}
			out = append(out, ph)
		}
		return out
	}
	if ev.Activity <= 0 || end <= ev.Arrive {
		return nil
	}
	rate := workload.ExactRate(ReferenceThroughput, class.CreditPct*ev.Activity, workload.DefaultRequestCost)
	return []workload.Phase{{Start: ev.Arrive, End: end, Rate: rate}}
}

// parseSeconds parses a non-negative, bounded seconds value. The bound
// keeps sim.FromSeconds far away from integer overflow on hostile input.
func parseSeconds(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !isFinite(v) || v < 0 || v > maxTraceSeconds {
		return 0, fmt.Errorf("seconds %v outside [0, %g]", v, maxTraceSeconds)
	}
	return v, nil
}

// formatSeconds renders a sim.Time as seconds with full precision.
func formatSeconds(t sim.Time) string {
	return strconv.FormatFloat(t.Seconds(), 'g', -1, 64)
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
