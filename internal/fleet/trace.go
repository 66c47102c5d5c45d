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
	"fmt"
	"io"
	"math"
	"sort"
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
	// Name labels the VM; unique within the trace.
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

// Trace is a VM lifecycle trace: the class catalogue and the arrival
// events in time order.
type Trace struct {
	// Classes catalogues the VM classes by name.
	Classes map[string]VMClass
	// Events holds the VM lifecycles sorted by (Arrive, Name).
	Events []VMEvent
	// Horizon is the nominal end of the trace. Events arrive strictly
	// before it; lifetimes may extend past it (the fleet truncates them
	// at its run horizon).
	Horizon sim.Time
}

// Validate checks the whole trace: classes valid, events sorted and
// unique, every event referencing a known class with sane times.
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("fleet: nil trace")
	}
	if t.Horizon <= 0 {
		return fmt.Errorf("fleet: trace horizon %v not positive", t.Horizon)
	}
	if len(t.Events) == 0 {
		return fmt.Errorf("fleet: trace without VM events")
	}
	for _, c := range t.Classes {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	seen := make(map[string]bool, len(t.Events))
	for i, ev := range t.Events {
		if ev.Name == "" {
			return fmt.Errorf("fleet: event %d without a VM name", i)
		}
		if seen[ev.Name] {
			return fmt.Errorf("fleet: duplicate VM name %q", ev.Name)
		}
		seen[ev.Name] = true
		if _, ok := t.Classes[ev.Class]; !ok {
			return fmt.Errorf("fleet: VM %s references unknown class %q", ev.Name, ev.Class)
		}
		if ev.Arrive < 0 || ev.Arrive >= t.Horizon {
			return fmt.Errorf("fleet: VM %s arrives at %v, outside [0, %v)", ev.Name, ev.Arrive, t.Horizon)
		}
		if ev.Lifetime <= 0 {
			return fmt.Errorf("fleet: VM %s lifetime %v not positive", ev.Name, ev.Lifetime)
		}
		if !isFinite(ev.Activity) || ev.Activity < 0 || ev.Activity > 1 {
			return fmt.Errorf("fleet: VM %s activity %v outside [0,1]", ev.Name, ev.Activity)
		}
		if i > 0 {
			prev := t.Events[i-1]
			if ev.Arrive < prev.Arrive || (ev.Arrive == prev.Arrive && ev.Name < prev.Name) {
				return fmt.Errorf("fleet: events not sorted by (arrive, name) at index %d", i)
			}
		}
	}
	return nil
}

// sortEvents puts the events into the canonical (Arrive, Name) order.
func (t *Trace) sortEvents() {
	sort.Slice(t.Events, func(i, j int) bool {
		if t.Events[i].Arrive != t.Events[j].Arrive {
			return t.Events[i].Arrive < t.Events[j].Arrive
		}
		return t.Events[i].Name < t.Events[j].Name
	})
}

// ParseTrace reads a fleet trace from r: one record per line, fields
// comma-separated, '#' comments and blank lines ignored, CRLF tolerated.
// Three record kinds exist:
//
//	horizon,<seconds>
//	class,<name>,<credit_pct>,<memory_mb>
//	vm,<name>,<arrive_s>,<lifetime_s>,<class>,<activity>
//
// Records may appear in any order; events are sorted by arrival time. The
// parsed trace is fully validated before it is returned. Each record is
// parsed by the same code as ParseTraceStream's.
func ParseTrace(r io.Reader) (*Trace, error) {
	s := newCSVSource(r)
	var events []VMEvent
	for {
		parts, ok := s.scanRecord()
		if !ok {
			break
		}
		if parts[0] != "vm" {
			if err := s.prologueRecord(parts); err != nil {
				return nil, err
			}
			continue
		}
		ev, err := s.vmEvent(parts)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	if s.err != nil {
		return nil, s.err
	}
	t := &Trace{Classes: s.classes, Events: events, Horizon: s.horizon}
	t.sortEvents()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteCSV writes the trace in the format ParseTrace reads, so generated
// traces can be saved, inspected and replayed. Piecewise Demand profiles
// are not serialized (the CSV carries the scalar Activity; a replayed
// trace offers the equivalent constant profile). The output is
// byte-identical to streaming the trace through WriteCSVStream.
func (t *Trace) WriteCSV(w io.Writer) error {
	return WriteCSVStream(t.Source(), w)
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
