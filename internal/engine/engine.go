// Package engine is the shared simulation engine behind every simulated
// machine in the repository: each host (internal/host) runs on its own
// Engine, and the multi-core cluster (internal/multicore) and the fleet
// (internal/fleet) step many hosts concurrently between barriers with
// RunParallel.
//
// The engine owns the three things every machine used to hand-roll
// separately — the simulated clock, the ordered event queue, and the
// periodic actions (load meter, recorder sampler, user-level agents) —
// and drives the machine through a fixed scheduling quantum exactly as
// the original quantum-by-quantum loop did:
//
//	for clock < target:
//	    fire due events            (queue, at the quantum start)
//	    machine executes quanta    (Step or BatchStep)
//	    fire due periodic actions  (in registration order, at quantum end)
//
// Its contribution is the *event horizon*: before stepping, the engine
// computes the earliest upcoming moment anything discrete can happen — a
// scheduled event, a periodic-action boundary, the run target — and
// offers the machine the whole uninterrupted stretch as one batched step.
// The machine accepts only when it can prove the stretch is uniform — no
// scheduler, governor or workload boundary inside, and a processor that
// idles, runs a single VM for full quanta, or runs a contended pattern
// the scheduler folds into per-VM tallies — so a batched run is
// observationally identical to stepping the quanta one by one; otherwise
// the engine falls back to a single reference-semantics quantum. Such
// stretches thus cost O(1) per horizon instead of O(quanta).
//
// The horizon is computed when it changes, not on every iteration: the
// engine keeps the quanta left to it and recomputes them only at a
// RunUntil call, a Schedule or AddAction, or when they run out, which is
// also where every event falls due and every action fires. Between those
// the horizon's end time cannot move.
package engine

import (
	"fmt"
	"sort"

	"pasched/internal/sim"
)

// Machine is the simulated machine an Engine drives. Implementations hold
// the domain state (processor, scheduler, VMs); the engine holds time.
type Machine interface {
	// Step executes exactly one scheduling quantum beginning at now,
	// with reference (quantum-by-quantum) semantics. The engine advances
	// the clock afterwards; Step must not.
	Step(now sim.Time) error
	// BatchStep executes up to max consecutive quanta beginning at now
	// as one batched step, returning how many quanta it executed. It
	// returns 0 (not an error) when the stretch ahead cannot be proven
	// uniform, in which case the engine falls back to Step. The engine
	// guarantees max >= 2 and that no engine-owned boundary (event or
	// periodic action) lies strictly inside the offered stretch.
	BatchStep(now sim.Time, max int) (int, error)
}

// Action order groups: actions fire in ascending order at a shared
// boundary, matching the fixed sequence of the original host loop.
const (
	// OrderMeter is the load-meter group (fires first).
	OrderMeter = 100
	// OrderAgents is the user-level agent group.
	OrderAgents = 200
	// OrderSampler is the recorder-sampler group (fires last).
	OrderSampler = 300
)

// action is one periodic action: fn fires for every interval boundary
// that a step has covered, receiving the boundary time (not the clock).
type action struct {
	name     string
	interval sim.Time
	next     sim.Time
	order    int
	seq      int
	fn       func(now sim.Time) error
}

// boundarySource identifies what limited one event horizon.
type boundarySource uint8

const (
	srcTarget boundarySource = iota // the RunUntil target
	srcEvent                        // a scheduled event
	srcAction                       // a periodic-action boundary
)

// sourceCounts is the per-boundary-source breakdown of RunUntil
// iterations: every iteration increments exactly one counter, naming what
// limited that iteration's horizon.
type sourceCounts struct {
	target           int64 // the run target bounded the horizon
	event            int64 // a scheduled event bounded the horizon
	action           int64 // a periodic-action boundary bounded the horizon
	machineShortened int64 // the machine batched fewer quanta than offered
	machineDeclined  int64 // the machine declined the batch (reference step)
}

// Engine owns simulated time for one machine: clock, event queue and
// periodic actions.
type Engine struct {
	clock   sim.Clock
	queue   sim.Queue
	quantum sim.Time
	machine Machine
	actions []*action
	// The current event horizon: the quanta left to it and what set it.
	// left == 0 means no horizon is held, and the next iteration computes
	// one; Schedule, AddAction and every RunUntil call drop it.
	left int
	src  boundarySource
	// nextAction is the earliest action boundary, sim.Never without
	// actions; it moves only when an action fires or is added.
	nextAction sim.Time
	batched    int64 // quanta executed through BatchStep
	stepped    int64 // quanta executed through Step
	sources    sourceCounts
}

// New returns an engine driving machine m at the given quantum.
func New(quantum sim.Time, m Machine) (*Engine, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("engine: quantum must be positive, got %v", quantum)
	}
	if m == nil {
		return nil, fmt.Errorf("engine: nil machine")
	}
	return &Engine{quantum: quantum, machine: m, nextAction: sim.Never}, nil
}

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.clock.Now() }

// Quantum returns the scheduling quantum.
func (e *Engine) Quantum() sim.Time { return e.quantum }

// Schedule enqueues fn to run at simulated time at. Events fire at the
// start of the first quantum whose start time is >= at, before the
// machine steps, in (time, scheduling) order.
func (e *Engine) Schedule(at sim.Time, fn sim.EventFunc) {
	e.queue.Schedule(at, fn)
	e.left = 0
}

// AddAction registers a periodic action. The action first fires one
// interval from now; actions sharing a boundary fire in ascending
// (order, registration) order. The boundary time — not the clock — is
// passed to fn, mirroring the original loop's "fire every elapsed
// boundary" semantics.
func (e *Engine) AddAction(name string, interval sim.Time, order int, fn func(now sim.Time) error) error {
	if interval <= 0 {
		return fmt.Errorf("engine: action %q interval must be positive, got %v", name, interval)
	}
	if fn == nil {
		return fmt.Errorf("engine: action %q has nil function", name)
	}
	a := &action{
		name:     name,
		interval: interval,
		next:     e.clock.Now() + interval,
		order:    order,
		seq:      len(e.actions),
		fn:       fn,
	}
	e.actions = append(e.actions, a)
	sort.SliceStable(e.actions, func(i, j int) bool {
		if e.actions[i].order != e.actions[j].order {
			return e.actions[i].order < e.actions[j].order
		}
		return e.actions[i].seq < e.actions[j].seq
	})
	if a.next < e.nextAction {
		e.nextAction = a.next
	}
	e.left = 0
	return nil
}

// BatchedQuanta returns how many quanta were executed through batched
// steps, for tests and introspection.
func (e *Engine) BatchedQuanta() int64 { return e.batched }

// SteppedQuanta returns how many quanta were executed one by one.
func (e *Engine) SteppedQuanta() int64 { return e.stepped }

// BoundarySources returns the per-boundary-source breakdown of who
// limited each event horizon, as a fresh map keyed by
//
//	"target"            the RunUntil target bounded the horizon
//	"event"             a scheduled event bounded the horizon
//	"action"            a periodic-action boundary bounded the horizon
//	"machine-shortened" the machine batched fewer quanta than offered
//	"machine-declined"  the machine declined the batch entirely and one
//	                    reference quantum ran instead
//
// Every RunUntil iteration counts exactly once, so the map is a census of
// what to attack next when batching coverage stalls: a dominant
// "machine-declined" count means the machine cannot certify the
// stretches the engine offers, while dominant engine-side sources mean
// batching is already limited only by genuine discrete activity. A host
// steps the quantum holding every scheduler boundary through the
// reference path, so on Credit and PAS hosts "machine-declined" counts
// the quantum of every credit refill and PAS recomputation — more than
// half the batch offers of a PAS fleet — while on Credit2 and SEDF hog
// hosts it stays at zero. A rise beyond the boundary count is the first
// symptom of a scheduler losing its certification.
func (e *Engine) BoundarySources() map[string]int64 {
	return map[string]int64{
		"target":            e.sources.target,
		"event":             e.sources.event,
		"action":            e.sources.action,
		"machine-shortened": e.sources.machineShortened,
		"machine-declined":  e.sources.machineDeclined,
	}
}

// countSource attributes one RunUntil iteration to an engine-side source.
func (e *Engine) countSource(src boundarySource) {
	switch src {
	case srcEvent:
		e.sources.event++
	case srcAction:
		e.sources.action++
	default:
		e.sources.target++
	}
}

// QuantaCovering returns how many whole quanta of the given length cover
// the duration d: ceil(d/quantum), at least 1. A boundary at distance d
// is handled (event fired, action run, workload change observed) at the
// end of that many quanta, so a batch may extend exactly that far and no
// further. Machines share this helper when bounding their own batched
// steps.
func QuantaCovering(d, quantum sim.Time) int {
	n := (d + quantum - 1) / quantum
	if n < 1 {
		n = 1
	}
	return int(n)
}

// horizonQuanta returns the number of quanta from now to the event
// horizon — the earliest of the run target, the next scheduled event and
// the next periodic-action boundary, each rounded up to a whole quantum —
// along with which source set it (earlier sources win ties).
//
// Rounding up is monotone, so the horizon is the earliest boundary time
// rounded once; the source is the first one, in (target, event, actions)
// order, whose boundary the horizon's quanta cover.
func (e *Engine) horizonQuanta(now, target sim.Time) (int, boundarySource) {
	first := target
	at, hasEvent := e.queue.Next()
	if hasEvent && at < first {
		first = at
	}
	if e.nextAction < first {
		first = e.nextAction
	}
	n := QuantaCovering(first-now, e.quantum)
	end := now + sim.Time(n)*e.quantum
	switch {
	case target <= end:
		return n, srcTarget
	case hasEvent && at <= end:
		return n, srcEvent
	default:
		return n, srcAction
	}
}

// Run advances the simulation by d.
func (e *Engine) Run(d sim.Time) error {
	return e.RunUntil(e.clock.Now() + d)
}

// RunUntil advances the simulation until simulated time t, executing
// whole quanta (the clock may finish past t by less than one quantum,
// exactly as the original loops did).
//
// Each iteration steps the machine through the current horizon's quanta
// left. The horizon is recomputed — due events fired first — only when
// none is held: at the first iteration (the target is never stored), after
// a Schedule or AddAction, and when its quanta run out. Nothing else moves
// a boundary, so between recomputations the horizon's end stays where a
// per-iteration recomputation would put it, and the offers, the
// single-quantum branch and the source counted are the same. The actions
// are walked only when the clock reaches the earliest of their
// boundaries; the horizon ends at that boundary's covering quantum, so
// actions, like events, fire only where it has run out.
func (e *Engine) RunUntil(t sim.Time) error {
	e.left = 0
	for e.clock.Now() < t {
		now := e.clock.Now()
		if e.left == 0 {
			// A held horizon ends no later than the covering quantum of
			// the queue head, so events fall due only where it is dropped.
			if at, ok := e.queue.Next(); ok && at <= now {
				if _, err := e.queue.RunDue(now); err != nil {
					return fmt.Errorf("engine: %w", err)
				}
			}
			e.left, e.src = e.horizonQuanta(now, t)
		}
		n := 0
		max := e.left
		if max > 1 {
			var err error
			n, err = e.machine.BatchStep(now, max)
			if err != nil {
				return err
			}
			if n < 0 || n > max {
				return fmt.Errorf("engine: machine batched %d quanta of %d offered", n, max)
			}
			e.batched += int64(n)
			switch {
			case n == max:
				e.countSource(e.src)
			case n > 0:
				e.sources.machineShortened++
			default:
				e.sources.machineDeclined++
			}
		} else {
			e.countSource(e.src)
		}
		if n == 0 {
			if err := e.machine.Step(now); err != nil {
				return err
			}
			n = 1
			e.stepped++
		}
		if e.left > 0 { // a Schedule or AddAction in the step dropped it
			e.left -= n
		}
		if err := e.clock.Advance(sim.Time(n) * e.quantum); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		if end := e.clock.Now(); end >= e.nextAction {
			if err := e.fireActions(end); err != nil {
				return err
			}
		}
	}
	return nil
}

// fireActions fires every action boundary at or before end, in
// registration order, and recomputes the earliest boundary — also when
// an action fails, which leaves its own boundary due.
func (e *Engine) fireActions(end sim.Time) error {
	for _, a := range e.actions {
		for end >= a.next {
			if err := a.fn(a.next); err != nil {
				e.nextAction = e.earliestAction()
				return err
			}
			a.next += a.interval
		}
	}
	e.nextAction = e.earliestAction()
	return nil
}

// earliestAction returns the earliest action boundary, or sim.Never
// without actions.
func (e *Engine) earliestAction() sim.Time {
	first := sim.Never
	for _, a := range e.actions {
		if a.next < first {
			first = a.next
		}
	}
	return first
}
