package engine

import (
	"testing"

	"pasched/internal/sim"
)

// pasShapedMachine batches like a PAS host between its recomputations,
// at no cost of its own: every period it has a boundary it declines to
// batch within two quanta of, batching up to one quantum before it, and
// its Step does nothing.
type pasShapedMachine struct{ q, period sim.Time }

func (pasShapedMachine) Step(sim.Time) error { return nil }

func (m pasShapedMachine) BatchStep(now sim.Time, max int) (int, error) {
	before := (now/m.period + 1) * m.period
	if before-now <= 2*m.q {
		return 0, nil
	}
	if n := QuantaCovering(before-now, m.q) - 1; n < max {
		max = n
	}
	return max, nil
}

// BenchmarkEngineRunUntil measures the engine's own cost per iteration:
// one op advances one simulated second of a machine shaped like a PAS
// host (1 ms quanta, a boundary every 10 quanta, nine batched and one
// stepped per boundary) with a 100 ms meter action, so the time is the
// horizon bookkeeping, the offers and the action walk.
func BenchmarkEngineRunUntil(b *testing.B) {
	const q = sim.Millisecond
	e, err := New(q, pasShapedMachine{q: q, period: 10 * q})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AddAction("meter", 100*sim.Millisecond, OrderMeter, func(sim.Time) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.BatchedQuanta())/float64(b.N), "batched_quanta/op")
}
