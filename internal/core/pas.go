package core

import (
	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// PAS is the paper's Power-Aware Scheduler: the Xen Credit scheduler
// extended so that, at every scheduler tick, it (a) recomputes the
// processor frequency from the absolute load (Listing 1.1) and (b)
// recomputes every VM's credit so its capacity at the new frequency equals
// its contracted capacity at the maximum frequency (Listing 1.2 /
// equation 4).
//
// PAS implements sched.Scheduler by extending a Credit scheduler it builds
// and owns, so it plugs into the host like any other scheduler. The load
// signal is bound after host construction with BindLoadSource; until then
// PAS schedules exactly like Credit at a fixed frequency.
//
// PAS and PASCredit2 share the control loop (loop.go) and differ only in
// enforcement: PAS holds every VM's cap at its compensated credit for the
// chosen frequency. Only PAS
// writes the inner scheduler's caps, so it knows when they all hold the
// compensation for one (ratio, cf) pair: a recomputation that keeps the
// frequency and that pair, with no Add or SetCap since the last full
// pass, leaves every cap as it is instead of rewriting it.
type PAS struct {
	loop
	credit *sched.Credit
	// compRatio and compCF are the (ratio, cf) pair the last full
	// recompensation applied to every VM; compValid is false until the
	// first one and after any Add or SetCap, whose caps it does not cover.
	compRatio float64
	compCF    float64
	compValid bool
	tracer    sched.Tracer
}

var (
	_ sched.Scheduler       = (*PAS)(nil)
	_ sched.CapSetter       = (*PAS)(nil)
	_ sched.EffectiveCapper = (*PAS)(nil)
	_ sched.Batcher         = (*PAS)(nil)
	_ sched.TraceSetter     = (*PAS)(nil)
	_ sched.Throttler       = (*PAS)(nil)
)

// NewPAS builds a PAS scheduler for cpu. cf is the per-P-state
// calibration factor table (the paper's CF[]) in ladder order; nil
// assumes cf = 1 everywhere, and the measured table from internal/calib
// serves non-ideal architectures.
func NewPAS(cpu *cpufreq.CPU, cf []float64) (*PAS, error) {
	l, err := newLoop(cpu, cf)
	if err != nil {
		return nil, err
	}
	return &PAS{loop: l, credit: sched.NewCredit()}, nil
}

// Name implements sched.Scheduler.
func (p *PAS) Name() string { return "pas" }

// Add implements sched.Scheduler. The VM's configured credit is remembered
// as its initial credit C_init — the SLA the compensation preserves. The
// VM runs at that raw credit until the next recomputation compensates it.
func (p *PAS) Add(v *vm.VM) error {
	if err := p.credit.Add(v); err != nil {
		return err
	}
	p.contracts[v.ID()] = v.Credit()
	p.compValid = false
	return nil
}

// Remove implements sched.Scheduler.
func (p *PAS) Remove(id vm.ID) error {
	if err := p.credit.Remove(id); err != nil {
		return err
	}
	delete(p.contracts, id)
	return nil
}

// VMs implements sched.Scheduler.
func (p *PAS) VMs() []*vm.VM { return p.credit.VMs() }

// Pick implements sched.Scheduler.
func (p *PAS) Pick(now sim.Time) *vm.VM { return p.credit.Pick(now) }

// Charge implements sched.Scheduler.
func (p *PAS) Charge(v *vm.VM, busy, now sim.Time) { p.credit.Charge(v, busy, now) }

// SetTracer implements sched.TraceSetter: PAS enforces through Credit,
// so the refill/exhaustion events come from the inner scheduler; PAS
// additionally retains the tracer for its own recompensation events.
func (p *PAS) SetTracer(t sched.Tracer) {
	p.tracer = t
	p.credit.SetTracer(t)
}

// Throttled implements sched.Throttler by delegating to the inner
// Credit scheduler, whose compensated caps are the enforcement in
// effect.
func (p *PAS) Throttled(v *vm.VM) bool { return p.credit.Throttled(v) }

// Tick implements sched.Scheduler: it performs the Credit scheduler's
// accounting, then — at every PAS interval — the DVFS and credit
// recomputation of Listings 1.1 and 1.2.
func (p *PAS) Tick(now sim.Time) {
	p.credit.Tick(now)
	p.tick(now, p)
}

// NextBoundary implements sched.Scheduler: the earlier of the
// Credit refill and the next PAS recomputation (which can change the
// frequency and every VM's cap, so batched steps must stop before it).
func (p *PAS) NextBoundary(now sim.Time) sim.Time {
	return p.boundary(p.credit.NextBoundary(now))
}

// BatchPick implements sched.Batcher by delegating to the underlying
// Credit scheduler; the PAS recomputation itself is excluded from batched
// stretches by NextBoundary.
func (p *PAS) BatchPick(v *vm.VM, quantum sim.Time, max int, now sim.Time) (int, bool) {
	return p.credit.BatchPick(v, quantum, max, now)
}

// BatchPattern implements sched.Scheduler by delegating to the
// underlying Credit scheduler: between recomputations (excluded from
// batched stretches by NextBoundary) PAS schedules exactly like Credit
// under the momentary compensated caps, so contended stretches collapse
// to the same weighted round-robin rotations.
func (p *PAS) BatchPattern(quota []sched.PatternQuota, quantum sim.Time, max int, now sim.Time) ([]sched.PatternPick, bool) {
	return p.credit.BatchPattern(quota, quantum, max, now)
}

// enforce is PAS's half of Listing 1.2: every VM's cap becomes its
// compensated credit for the chosen target (equation 4). The pass is
// skipped on the (ratio, cf) pair, not on cpu.Freq(): the frequency lags
// a pending switch whose target the last pass compensated for. A
// frequency change still takes the full pass, so its event counts every
// VM.
func (p *PAS) enforce(at sim.Time, t Target, switched bool) {
	compensated := int64(0)
	if switched || !p.compValid || t.Ratio != p.compRatio || t.CF != p.compCF {
		compensated = Compensate(p.credit, p.contracts, t.Ratio, t.CF)
		p.compRatio, p.compCF, p.compValid = t.Ratio, t.CF, true
	}
	if !switched {
		return
	}
	// One decision event per frequency change, which is when the
	// compensated caps move; a single event keeps the emission
	// independent of the contract map's iteration order.
	if p.tracer != nil {
		p.tracer.TraceRecompensate(at, int64(t.Freq), compensated)
	}
}

// SetCap implements sched.CapSetter. Setting a cap through PAS rebases the
// VM's initial credit: the new value is interpreted as a contracted credit
// at maximum frequency and is immediately compensated for the current
// frequency.
func (p *PAS) SetCap(id vm.ID, pct float64) error {
	if err := p.recontract(id, pct); err != nil {
		return err
	}
	p.compValid = false
	comp, err := CompensatedCredit(pct, p.cpu.Ratio(), CFAt(p.cf, p.cpu.Level()))
	if err != nil {
		return err
	}
	return p.credit.SetCap(id, comp)
}

// EffectiveCap returns the VM's current compensated cap in the underlying
// Credit scheduler (e.g. 33.3% for a 20% VM at 1600 of 2667 MHz).
func (p *PAS) EffectiveCap(id vm.ID) (float64, error) {
	return p.credit.Cap(id)
}
