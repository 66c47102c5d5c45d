package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pasched/internal/sim"
)

// runUntilPerIteration is RunUntil as it ran before the engine kept its
// horizon: every iteration fires the due events, recomputes the horizon
// from the queue head and every action (horizonQuantaRef, which
// TestHorizonQuantaMatchesPerSourceReference pins to the one-division
// rounding), and walks every action. FuzzEngineHorizon runs it beside the
// real engine.
func (e *Engine) runUntilPerIteration(t sim.Time) error {
	for e.clock.Now() < t {
		now := e.clock.Now()
		if _, err := e.queue.RunDue(now); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		n := 0
		max, src := horizonQuantaRef(e, now, t)
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
				e.countSource(src)
			case n > 0:
				e.sources.machineShortened++
			default:
				e.sources.machineDeclined++
			}
		} else {
			e.countSource(src)
		}
		if n == 0 {
			if err := e.machine.Step(now); err != nil {
				return err
			}
			n = 1
			e.stepped++
		}
		if err := e.clock.Advance(sim.Time(n) * e.quantum); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		end := e.clock.Now()
		for _, a := range e.actions {
			for end >= a.next {
				if err := a.fn(a.next); err != nil {
					return err
				}
				a.next += a.interval
			}
		}
	}
	return nil
}

// byteScript hands out a fuzz input one byte at a time, then zeros.
type byteScript struct {
	b []byte
	i int
}

func (s *byteScript) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return int(c)
}

// fuzzMachine reads every choice from its script — accept, shorten or
// decline an offer, fail, schedule an event from a step or an event
// callback — and logs every offer, step, event and action firing with
// the clock it saw.
type fuzzMachine struct {
	e      *Engine
	moves  byteScript
	events int // events scheduled so far, naming the next one
	log    []string
}

var errFuzzMachine = errors.New("machine failed")

// maybeSchedule lets the script schedule an event relative to the clock:
// in the past, at now, or up to a few dozen quanta ahead. An exhausted
// script schedules nothing, so chains of events scheduling events end.
func (m *fuzzMachine) maybeSchedule(from string) {
	c := m.moves.next()
	if c%4 != 1 {
		return
	}
	now, q := m.e.Now(), m.e.Quantum()
	var at sim.Time
	switch d := sim.Time(m.moves.next()); c / 4 % 4 {
	case 0:
		at = now - d%(3*q)
	case 1:
		at = now
	default:
		at = now + d*q/7
	}
	m.schedule(at, from)
}

// schedule schedules an event at at that logs its firing and lets the
// script schedule another.
func (m *fuzzMachine) schedule(at sim.Time, from string) {
	m.events++
	id := m.events
	m.log = append(m.log, fmt.Sprintf("schedule %d@%d from %s", id, at, from))
	m.e.Schedule(at, func(fired sim.Time) {
		m.log = append(m.log, fmt.Sprintf("event %d(%d) clock %d", id, fired, m.e.Now()))
		m.maybeSchedule("event")
	})
}

func (m *fuzzMachine) Step(now sim.Time) error {
	m.log = append(m.log, fmt.Sprintf("step %d", now))
	m.maybeSchedule("step")
	if m.moves.next() == 255 {
		return errFuzzMachine
	}
	return nil
}

func (m *fuzzMachine) BatchStep(now sim.Time, max int) (int, error) {
	c := m.moves.next()
	n := max
	switch {
	case c == 255:
		n = -1 // an error: fail outright
	case c == 254:
		n = max + 1 // an error: overrun the offer
	case c%5 == 1:
		n = 0
	case c%5 == 2:
		n = 1 + m.moves.next()%(max-1)
	}
	m.log = append(m.log, fmt.Sprintf("offer %d+%d -> %d", now, max, n))
	m.maybeSchedule("batch")
	if n < 0 {
		return 0, errFuzzMachine
	}
	return n, nil
}

// horizonRig is one engine under FuzzEngineHorizon with its machine.
type horizonRig struct {
	e *Engine
	m *fuzzMachine
}

func newHorizonRig(t *testing.T, q sim.Time, moves []byte) *horizonRig {
	m := &fuzzMachine{moves: byteScript{b: moves}}
	e := newTestEngine(t, q, m)
	m.e = e
	return &horizonRig{e: e, m: m}
}

// addAction registers an action that logs its firings and may schedule
// an event or, when the script says so, fail.
func (r *horizonRig) addAction(name string, interval sim.Time, order int) error {
	m := r.m
	return r.e.AddAction(name, interval, order, func(at sim.Time) error {
		m.log = append(m.log, fmt.Sprintf("action %s(%d) clock %d", name, at, m.e.Now()))
		m.maybeSchedule(name)
		if m.moves.next() == 253 {
			return fmt.Errorf("action %s failed", name)
		}
		return nil
	})
}

// FuzzEngineHorizon runs the engine, which keeps its horizon between
// changes, beside the per-iteration loop it replaced, on two identical
// scripted machines. plan drives the runs: the quantum, actions added and
// events scheduled between runs, and targets, often inside a quantum.
// moves drives each machine: declines, shortenings, failures, and events
// scheduled from steps, batched steps, event callbacks and actions, at
// now, in the past or ahead. After every run both must have made the same
// offers, steps, event and action firings, in the same order at the same
// clock, and agree on the error, the clock, the batched and stepped
// counts and the boundary-source census.
func FuzzEngineHorizon(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 24; i++ {
		plan := make([]byte, 16+rng.Intn(48))
		moves := make([]byte, 64+rng.Intn(512))
		rng.Read(plan)
		rng.Read(moves)
		f.Add(plan, moves)
	}
	f.Fuzz(func(t *testing.T, plan, moves []byte) {
		p := byteScript{b: plan}
		q := []sim.Time{1, 3, 10, 1000}[p.next()%4]
		real, ref := newHorizonRig(t, q, moves), newHorizonRig(t, q, moves)
		rigs := []*horizonRig{real, ref}
		actions := 0
		for round := 0; p.i < len(p.b) && round < 64; round++ {
			switch c := p.next(); c % 4 {
			case 0:
				actions++
				// At least a third of a quantum, so few boundaries share one.
				interval := max(1, q/3) + sim.Time(p.next()*256+p.next())%(12*q)
				order := []int{OrderMeter, OrderAgents, OrderSampler}[c/4%3]
				for _, r := range rigs {
					if err := r.addAction(fmt.Sprintf("a%d", actions), interval, order); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				at := real.e.Now() + sim.Time(p.next())*q/4 - 2*q
				for _, r := range rigs {
					r.m.schedule(at, "plan")
				}
			}
			target := real.e.Now() + 1 + sim.Time(p.next()*256+p.next())%(30*q)
			errReal := real.e.RunUntil(target)
			errRef := ref.e.runUntilPerIteration(target)
			if fmt.Sprint(errReal) != fmt.Sprint(errRef) {
				t.Fatalf("round %d, RunUntil(%d): error %v, per-iteration loop %v", round, target, errReal, errRef)
			}
			if i, ok := firstDifference(real.m.log, ref.m.log); !ok {
				t.Fatalf("round %d, RunUntil(%d): logs part at entry %d:\n engine %s\n per-iteration %s",
					round, target, i, entry(real.m.log, i), entry(ref.m.log, i))
			}
			if real.e.Now() != ref.e.Now() ||
				real.e.BatchedQuanta() != ref.e.BatchedQuanta() ||
				real.e.SteppedQuanta() != ref.e.SteppedQuanta() {
				t.Fatalf("round %d: clock %d, %d batched, %d stepped; per-iteration %d, %d, %d", round,
					real.e.Now(), real.e.BatchedQuanta(), real.e.SteppedQuanta(),
					ref.e.Now(), ref.e.BatchedQuanta(), ref.e.SteppedQuanta())
			}
			if a, b := real.e.BoundarySources(), ref.e.BoundarySources(); !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d: census %v, per-iteration %v", round, a, b)
			}
		}
	})
}

// firstDifference returns the first index where a and b differ and false,
// or true when they are equal.
func firstDifference(a, b []string) (int, bool) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	return 0, true
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end)"
}
