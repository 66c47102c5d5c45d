package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pasched/internal/sim"
)

// scriptMachine records every Step/BatchStep call and optionally accepts
// batches of the full offered size (or one quantum short of it).
type scriptMachine struct {
	batch   bool
	shorten bool // accept max-1 instead of max when possible
	log     []string
	// offers records (now, max) for every BatchStep call.
	offers [][2]int64
}

func (m *scriptMachine) Step(now sim.Time) error {
	m.log = append(m.log, fmt.Sprintf("step@%d", now))
	return nil
}

func (m *scriptMachine) BatchStep(now sim.Time, max int) (int, error) {
	m.offers = append(m.offers, [2]int64{int64(now), int64(max)})
	if !m.batch {
		return 0, nil
	}
	n := max
	if m.shorten && max > 2 {
		n = max - 1
	}
	m.log = append(m.log, fmt.Sprintf("batch@%d+%d", now, n))
	return n, nil
}

func newTestEngine(t *testing.T, q sim.Time, m Machine) *Engine {
	t.Helper()
	e, err := New(q, m)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, &scriptMachine{}); err == nil {
		t.Fatal("want error for zero quantum")
	}
	if _, err := New(sim.Millisecond, nil); err == nil {
		t.Fatal("want error for nil machine")
	}
	e := newTestEngine(t, sim.Millisecond, &scriptMachine{})
	if err := e.AddAction("bad", 0, OrderMeter, func(sim.Time) error { return nil }); err == nil {
		t.Fatal("want error for zero action interval")
	}
	if err := e.AddAction("bad", sim.Second, OrderMeter, nil); err == nil {
		t.Fatal("want error for nil action fn")
	}
}

// TestActionOrdering verifies that actions sharing a boundary fire in
// ascending (order, registration) sequence regardless of the order they
// were registered in, and that each firing receives the boundary time.
func TestActionOrdering(t *testing.T) {
	m := &scriptMachine{}
	e := newTestEngine(t, sim.Millisecond, m)
	var fired []string
	add := func(name string, order int) {
		if err := e.AddAction(name, 2*sim.Millisecond, order, func(now sim.Time) error {
			fired = append(fired, fmt.Sprintf("%s@%d", name, now))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("sampler", OrderSampler)
	add("meter", OrderMeter)
	add("agent-1", OrderAgents)
	add("agent-2", OrderAgents)
	if err := e.RunUntil(4 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"meter@2000", "agent-1@2000", "agent-2@2000", "sampler@2000",
		"meter@4000", "agent-1@4000", "agent-2@4000", "sampler@4000",
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("firing order:\n got %v\nwant %v", fired, want)
	}
}

// TestEventTieBreakAndAlignment verifies that events sharing an instant
// fire in scheduling order, and that an event scheduled mid-quantum fires
// at the start of the covering quantum, before the machine steps.
func TestEventTieBreakAndAlignment(t *testing.T) {
	m := &scriptMachine{}
	e := newTestEngine(t, sim.Millisecond, m)
	var fired []string
	e.Schedule(1500, func(now sim.Time) { fired = append(fired, fmt.Sprintf("a@%d", now)) })
	e.Schedule(1500, func(now sim.Time) { fired = append(fired, fmt.Sprintf("b@%d", now)) })
	e.Schedule(500, func(now sim.Time) { fired = append(fired, fmt.Sprintf("c@%d", now)) })
	if err := e.RunUntil(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// c (due 500) fires at the start of quantum 1000; a then b fire in
	// scheduling order at the start of quantum 2000.
	if want := []string{"c@500", "a@1500", "b@1500"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("event order: got %v want %v", fired, want)
	}
	// The machine stepped each quantum after the events already fired.
	if want := []string{"step@0", "step@1000", "step@2000"}; !reflect.DeepEqual(m.log, want) {
		t.Fatalf("steps: got %v want %v", m.log, want)
	}
}

// TestBatchOffersRespectHorizon verifies the engine never offers a batch
// that extends past the covering quantum of the next event or action
// boundary.
func TestBatchOffersRespectHorizon(t *testing.T) {
	m := &scriptMachine{batch: true}
	e := newTestEngine(t, sim.Millisecond, m)
	var boundaries []sim.Time
	if err := e.AddAction("meter", 7*sim.Millisecond, OrderMeter, func(now sim.Time) error {
		boundaries = append(boundaries, now)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Schedule(4500, func(sim.Time) {})
	if err := e.RunUntil(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// First offer: event horizon at 4.5 ms -> 5 quanta from 0.
	if m.offers[0] != [2]int64{0, 5} {
		t.Fatalf("first offer: got %v want {0 5}", m.offers[0])
	}
	// No offer may cross the next meter boundary's covering quantum.
	for _, off := range m.offers {
		now, max := off[0], off[1]
		end := now + max*1000
		past := false
		for _, b := range []int64{7000, 14000, 21000, 28000} {
			if now < b && end > b {
				past = true
			}
		}
		if past {
			t.Fatalf("offer %v crosses an action boundary", off)
		}
	}
	if want := []sim.Time{7000, 14000, 21000, 28000}; !reflect.DeepEqual(boundaries, want) {
		t.Fatalf("meter boundaries: got %v want %v", boundaries, want)
	}
	if e.BatchedQuanta() == 0 {
		t.Fatal("batching never engaged")
	}
}

// TestBatchedMatchesStepped verifies a fully batching machine sees the
// same clock, fires the same actions at the same instants, and covers the
// same number of quanta as a machine stepping one quantum at a time.
func TestBatchedMatchesStepped(t *testing.T) {
	run := func(batch bool) (fired []string, quanta int64) {
		m := &scriptMachine{batch: batch}
		e := newTestEngine(t, sim.Millisecond, m)
		for _, a := range []struct {
			name     string
			interval sim.Time
			order    int
		}{{"meter", 3 * sim.Millisecond, OrderMeter}, {"sample", 10 * sim.Millisecond, OrderSampler}} {
			a := a
			if err := e.AddAction(a.name, a.interval, a.order, func(now sim.Time) error {
				fired = append(fired, fmt.Sprintf("%s@%d", a.name, now))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		e.Schedule(12300, func(now sim.Time) { fired = append(fired, fmt.Sprintf("ev@%d", now)) })
		if err := e.RunUntil(50 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return fired, e.BatchedQuanta() + e.SteppedQuanta()
	}
	bFired, bQuanta := run(true)
	sFired, sQuanta := run(false)
	if !reflect.DeepEqual(bFired, sFired) {
		t.Fatalf("action/event traces differ:\nbatched %v\nstepped %v", bFired, sFired)
	}
	if bQuanta != sQuanta {
		t.Fatalf("quanta differ: batched %d stepped %d", bQuanta, sQuanta)
	}
}

// sumSources totals every counter of a BoundarySources breakdown.
func sumSources(src map[string]int64) int64 {
	var total int64
	for _, v := range src {
		total += v
	}
	return total
}

// TestBoundarySourcesAttribution verifies the per-boundary-source
// breakdown: every RunUntil iteration is attributed to exactly one
// limiter, and the limiter named matches what actually bounded the
// horizon — the run target, a scheduled event, a periodic action, or the
// machine declining/shortening the batch.
func TestBoundarySourcesAttribution(t *testing.T) {
	t.Run("machine-declined", func(t *testing.T) {
		m := &scriptMachine{}
		e := newTestEngine(t, sim.Millisecond, m)
		if err := e.RunUntil(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		src := e.BoundarySources()
		// Nine offers declined; the final quantum's horizon is the
		// target itself, so no batch is attempted for it.
		if src["machine-declined"] != 9 || src["target"] != 1 {
			t.Fatalf("sources: %v", src)
		}
		if got := sumSources(src); got != 10 {
			t.Fatalf("iterations attributed: %d, want 10", got)
		}
	})
	t.Run("target", func(t *testing.T) {
		m := &scriptMachine{batch: true}
		e := newTestEngine(t, sim.Millisecond, m)
		if err := e.RunUntil(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if src := e.BoundarySources(); src["target"] != 1 || sumSources(src) != 1 {
			t.Fatalf("sources: %v", src)
		}
	})
	t.Run("action-and-event", func(t *testing.T) {
		m := &scriptMachine{batch: true}
		e := newTestEngine(t, sim.Millisecond, m)
		if err := e.AddAction("meter", 4*sim.Millisecond, OrderMeter, func(sim.Time) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		e.Schedule(1500, func(sim.Time) {})
		if err := e.RunUntil(12 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		src := e.BoundarySources()
		// Horizon 1: the event at 1.5 ms (2 quanta). Then the action
		// boundaries at 4, 8 and 12 ms bound every later horizon; the
		// last boundary coincides with the target, and the earlier
		// source wins the tie.
		if src["event"] != 1 || src["action"] != 2 || src["target"] != 1 {
			t.Fatalf("sources: %v", src)
		}
		if got := sumSources(src); got != 4 {
			t.Fatalf("iterations attributed: %d, want 4", got)
		}
	})
	t.Run("machine-shortened", func(t *testing.T) {
		m := &scriptMachine{batch: true, shorten: true}
		e := newTestEngine(t, sim.Millisecond, m)
		if err := e.RunUntil(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		src := e.BoundarySources()
		// 10-quanta horizon batched as 9, then a 1-quantum horizon that
		// only the target bounds.
		if src["machine-shortened"] != 1 || src["target"] != 1 {
			t.Fatalf("sources: %v", src)
		}
		if e.BatchedQuanta() != 9 || e.SteppedQuanta() != 1 {
			t.Fatalf("batched %d stepped %d", e.BatchedQuanta(), e.SteppedQuanta())
		}
	})
}

// errMachine fails its nth step.
type errMachine struct {
	n    int
	step int
}

func (m *errMachine) Step(sim.Time) error {
	m.step++
	if m.step >= m.n {
		return errors.New("boom")
	}
	return nil
}

func (m *errMachine) BatchStep(sim.Time, int) (int, error) { return 0, nil }

func TestStepErrorPropagates(t *testing.T) {
	e := newTestEngine(t, sim.Millisecond, &errMachine{n: 3})
	if err := e.RunUntil(sim.Second); err == nil || err.Error() != "boom" {
		t.Fatalf("got %v, want boom", err)
	}
	if e.Now() != 2*sim.Millisecond {
		t.Fatalf("clock after failure: %v", e.Now())
	}
}

func TestRunParallel(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var results [64]int
		tasks := make([]func() error, 64)
		for i := range tasks {
			i := i
			tasks[i] = func() error { results[i] = i * i; return nil }
		}
		if err := RunParallel(workers, tasks); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: task %d not run", workers, i)
			}
		}
	}
	// First error in task order wins, regardless of scheduling.
	tasks := make([]func() error, 8)
	for i := range tasks {
		i := i
		tasks[i] = func() error { return fmt.Errorf("task %d", i) }
	}
	if err := RunParallel(4, tasks); err == nil || err.Error() != "task 0" {
		t.Fatalf("got %v, want task 0", err)
	}
	if err := RunParallel(4, nil); err != nil {
		t.Fatalf("empty task list: %v", err)
	}
}

// horizonQuantaRef is the per-source horizon horizonQuanta replaced: each
// boundary is rounded up to whole quanta on its own, and a later source
// takes over only with strictly fewer quanta.
func horizonQuantaRef(e *Engine, now, target sim.Time) (int, boundarySource) {
	max := QuantaCovering(target-now, e.quantum)
	src := srcTarget
	if at, ok := e.queue.Next(); ok {
		if n := QuantaCovering(at-now, e.quantum); n < max {
			max, src = n, srcEvent
		}
	}
	for _, a := range e.actions {
		if n := QuantaCovering(a.next-now, e.quantum); n < max {
			max, src = n, srcAction
		}
	}
	return max, src
}

// horizonEngine builds an engine at quantum q whose queue holds events at
// the given times and whose actions next fire at the given times.
func horizonEngine(t *testing.T, q sim.Time, events, actions []sim.Time) *Engine {
	t.Helper()
	e := newTestEngine(t, q, &scriptMachine{})
	for _, at := range events {
		e.Schedule(at, func(sim.Time) {})
	}
	for i := range actions {
		if err := e.AddAction(fmt.Sprintf("a%d", i), q, OrderMeter, func(sim.Time) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, at := range actions {
		e.actions[i].next = at
	}
	e.nextAction = e.earliestAction()
	return e
}

// TestHorizonQuantaMatchesPerSourceReference checks the one-division
// horizon against the per-source reference, count and source, so the
// BoundarySources census cannot move: hand-picked ties across sources
// and boundaries at or before now, then random mixes of quanta, targets,
// events and actions placed on and between quantum ends.
func TestHorizonQuantaMatchesPerSourceReference(t *testing.T) {
	const q = sim.Millisecond
	cases := []struct {
		name            string
		now, target     sim.Time
		events, actions []sim.Time
		wantN           int
		wantSrc         boundarySource
	}{
		{"target-only", 0, 10 * q, nil, nil, 10, srcTarget},
		{"target-ties-event-and-action", 0, 3 * q, []sim.Time{2*q + 1}, []sim.Time{3 * q}, 3, srcTarget},
		{"event-ties-action", 0, 9 * q, []sim.Time{4*q - 7}, []sim.Time{4 * q, 3*q + 1}, 4, srcEvent},
		{"action-before-event", 0, 9 * q, []sim.Time{6 * q}, []sim.Time{7 * q, 2*q + 5}, 3, srcAction},
		{"event-before-actions", 5, 9 * q, []sim.Time{q}, []sim.Time{4 * q, 2 * q}, 1, srcEvent},
		{"event-at-now", 4 * q, 9 * q, []sim.Time{4 * q}, []sim.Time{5 * q}, 1, srcEvent},
		{"action-before-now", 4 * q, 9 * q, []sim.Time{8 * q}, []sim.Time{6 * q, 3 * q}, 1, srcAction},
		{"target-within-a-quantum", 4 * q, 4*q + 1, []sim.Time{3 * q}, []sim.Time{2 * q}, 1, srcTarget},
	}
	for _, tc := range cases {
		e := horizonEngine(t, q, tc.events, tc.actions)
		n, src := e.horizonQuanta(tc.now, tc.target)
		wn, wsrc := horizonQuantaRef(e, tc.now, tc.target)
		if n != wn || src != wsrc {
			t.Fatalf("%s: horizon %d/%d, reference %d/%d", tc.name, n, src, wn, wsrc)
		}
		if n != tc.wantN || src != tc.wantSrc {
			t.Fatalf("%s: horizon %d/%d, want %d/%d", tc.name, n, src, tc.wantN, tc.wantSrc)
		}
	}

	rng := rand.New(rand.NewSource(26))
	seen := map[boundarySource]int{}
	for trial := 0; trial < 20000; trial++ {
		q := sim.Time(1 + rng.Intn(1500))
		now := sim.Time(rng.Int63n(1 << 40))
		// Boundaries at or before now, on quantum ends (ties), or anywhere
		// in the next twenty quanta.
		at := func() sim.Time {
			switch rng.Intn(4) {
			case 0:
				return now - sim.Time(rng.Int63n(3*int64(q)))
			case 1:
				return now + sim.Time(rng.Intn(8))*q
			default:
				return now + sim.Time(rng.Int63n(20*int64(q)))
			}
		}
		times := func(k int) []sim.Time {
			out := make([]sim.Time, k)
			for i := range out {
				out[i] = at()
			}
			return out
		}
		target := now + 1 + sim.Time(rng.Int63n(20*int64(q)))
		if rng.Intn(3) == 0 {
			target = now + sim.Time(1+rng.Intn(20))*q
		}
		e := horizonEngine(t, q, times(rng.Intn(3)), times(rng.Intn(4)))
		n, src := e.horizonQuanta(now, target)
		wn, wsrc := horizonQuantaRef(e, now, target)
		if n != wn || src != wsrc {
			t.Fatalf("q=%d now=%d target=%d: horizon %d/%d, reference %d/%d",
				q, now, target, n, src, wn, wsrc)
		}
		seen[src]++
	}
	for _, src := range []boundarySource{srcTarget, srcEvent, srcAction} {
		if seen[src] == 0 {
			t.Fatalf("source %d never limited a random horizon: %v", src, seen)
		}
	}
}
