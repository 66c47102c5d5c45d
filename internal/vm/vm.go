// Package vm models virtual machines as the hypervisor scheduler sees them
// (Section 2.1 of the paper): an execution priority, a CPU credit (the
// percentage of the processor's capacity at maximum frequency bought by the
// customer, i.e. the SLA), and a runnable/blocked state driven by the
// workload inside the guest.
//
// Like Xen, which keeps a vCPU's runnable state on its runqueue and
// changes it on wake and block, a VM holds its workload's two scheduling
// facts — the pending work and the next change promise — and refreshes
// them only where the workload's contract lets them change: in a Tick
// that is due and in Consume. Every per-quantum reader (Runnable,
// Pending, NextChange) reads fields. The facts stay exact because a
// workload is bound to at most one VM at a time and only that VM ticks
// and consumes it: VM hands out no way to reach the bound workload, so
// the caller that built it must not drive it directly.
package vm

import (
	"fmt"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// ID identifies a VM within a host. IDs are assigned by the caller and must
// be unique per host; 0 is conventionally Dom0.
type ID int

// Config is the creation-time configuration of a VM.
type Config struct {
	// Name is a human-readable label, e.g. "V20".
	Name string
	// Credit is the VM's allocated CPU credit as a percentage of the
	// processor capacity at maximum frequency, in (0, 100]. Zero selects
	// the Xen "null credit" behaviour: the VM has no guaranteed credit
	// and no cap, consuming only otherwise-idle slices.
	Credit float64
	// Weight is the proportional-share weight used by work-conserving
	// schedulers. Zero derives the weight from Credit (or 1 if Credit is
	// also zero).
	Weight int
	// Priority is the strict priority tier; higher tiers are always
	// served first. The paper's Dom0 is "configured with the highest
	// priority in the VM scheduler" (Section 5.3).
	Priority int
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.Credit < 0 || c.Credit > 100 {
		return fmt.Errorf("vm: credit %v outside [0,100]", c.Credit)
	}
	if c.Weight < 0 {
		return fmt.Errorf("vm: negative weight %d", c.Weight)
	}
	return nil
}

// VM is a virtual machine instance. It binds a configuration to a workload
// and keeps the hypervisor-side accounting: total scheduled CPU time and
// total work executed.
//
// VM is not safe for concurrent use; the simulation is single-threaded.
type VM struct {
	id  ID
	cfg Config
	wl  workload.Workload

	// The workload's Pending and NextChange answers, held so the
	// per-quantum readers call nothing: both are refreshed by
	// SetWorkload and a due Tick, pending also by Consume.
	pending sim.Work
	next    sim.Time

	paused  bool
	cpuTime sim.Time // total busy CPU time granted to the VM
	work    sim.Work // total work executed
}

// New creates a VM with the given identity and configuration, initially
// idle. It returns an error if the configuration is invalid.
func New(id ID, cfg Config) (*VM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("vm%d", id)
	}
	v := &VM{id: id, cfg: cfg}
	v.SetWorkload(nil)
	return v, nil
}

// ID returns the VM identifier.
func (v *VM) ID() ID { return v.id }

// Name returns the VM's label.
func (v *VM) Name() string { return v.cfg.Name }

// Config returns the VM's creation-time configuration.
func (v *VM) Config() Config { return v.cfg }

// Credit returns the VM's initially allocated credit percentage.
func (v *VM) Credit() float64 { return v.cfg.Credit }

// Priority returns the VM's strict priority tier.
func (v *VM) Priority() int { return v.cfg.Priority }

// SetWorkload binds a workload to the VM and reads its facts. A nil
// workload resets the VM to idle. A workload is bound to at most one VM
// at a time: until it is replaced here, the caller may read its
// statistics but must not tick or consume it except through this VM,
// nor bind it to another, or the held facts go stale.
func (v *VM) SetWorkload(wl workload.Workload) {
	if wl == nil {
		wl = workload.Idle{}
	}
	v.wl = wl
	v.refresh()
}

// Tick advances the VM's workload to now. Before the workload's promise
// nothing can change (the workload.Workload contract), so the call is a
// compare; a due Tick ticks the workload and refreshes both facts.
func (v *VM) Tick(now sim.Time) {
	if now >= v.next {
		v.tick(now)
	}
}

// tick is Tick's due path, out of line so that Tick inlines.
func (v *VM) tick(now sim.Time) {
	v.wl.Tick(now)
	v.refresh()
}

// refresh reads both facts from the workload.
func (v *VM) refresh() {
	v.pending = v.wl.Pending()
	v.next = v.wl.NextChange()
}

// Runnable reports whether the VM has pending work and is not paused.
func (v *VM) Runnable() bool { return !v.paused && v.pending > 0 }

// Pending returns the workload's runnable work as of the VM's last Tick
// or Consume.
func (v *VM) Pending() sim.Work { return v.pending }

// NextChange returns the workload's promise as of the VM's last Tick:
// the earliest time its pending work may change without a Consume (see
// workload.Workload.NextChange).
func (v *VM) NextChange() sim.Time { return v.next }

// Pause suspends the VM: it stops being runnable until Resume. Workload
// arrivals keep queueing (the guest's clients do not know it is paused),
// matching the behaviour of `xl pause`.
func (v *VM) Pause() { v.paused = true }

// Resume makes a paused VM runnable again.
func (v *VM) Resume() { v.paused = false }

// Paused reports whether the VM is paused.
func (v *VM) Paused() bool { return v.paused }

// Consume lets the VM execute up to max work ending at time now,
// returning the amount executed. The CPU time the execution occupied is
// computed by the caller from the processor work rate and accounted via
// AddCPUTime.
func (v *VM) Consume(max sim.Work, now sim.Time) sim.Work {
	done := v.wl.Consume(max, now)
	v.pending = v.wl.Pending() // a Consume leaves the promise as it was
	v.work += done
	return done
}

// AddCPUTime accounts busy CPU time granted to the VM.
func (v *VM) AddCPUTime(d sim.Time) {
	if d > 0 {
		v.cpuTime += d
	}
}

// CPUTime returns the total busy CPU time granted so far.
func (v *VM) CPUTime() sim.Time { return v.cpuTime }

// WorkDone returns the total work executed so far.
func (v *VM) WorkDone() sim.Work { return v.work }

// String renders the VM as "V20(id=1, credit=20%)".
func (v *VM) String() string {
	return fmt.Sprintf("%s(id=%d, credit=%g%%)", v.cfg.Name, v.id, v.cfg.Credit)
}
