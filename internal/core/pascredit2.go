package core

import (
	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// PASCredit2 is the Credit2-based variant of the paper's Power-Aware
// Scheduler: the same DVFS policy (Listing 1.1 — lowest frequency whose
// capacity absorbs the absolute load), but enforcement through
// weight-proportional work-conserving scheduling instead of hard caps.
// It embeds the same control loop as PAS (loop.go), so at every PAS
// interval it recomputes the processor frequency exactly as PAS does;
// the per-VM enforcement state is Credit2 weights derived from the
// contracted credits (applied at Add/SetCap) instead of compensated caps
// (Listing 1.2 / equation 4) — and because proportional shares are
// frequency-invariant, weights need no per-frequency recomputation at
// the tick, which is exactly the compensation machinery the variant
// deletes.
//
// A work-conserving proportional-share scheduler preserves *relative*
// shares at any frequency on its own, so no frequency compensation is
// needed — but unlike cap-based PAS it lets a VM exceed its contracted
// capacity whenever other VMs leave slack (a variable-credit scheduler in
// the paper's taxonomy). Comparing the two on the same scenarios
// separates the paper's two claims: energy tracking the absolute load
// (both variants) and strict credit enforcement (caps only).
//
// PASCredit2 implements sched.Scheduler by extending Credit2, so it plugs
// into the host like any other scheduler; bind the Global load signal
// with BindLoadSource after host construction, exactly like PAS.
type PASCredit2 struct {
	loop
	c2 *sched.Credit2
}

var (
	_ sched.Scheduler = (*PASCredit2)(nil)
	_ sched.CapSetter = (*PASCredit2)(nil)
)

// NewPASCredit2 builds a Credit2-based PAS scheduler for cpu; cf is the
// per-P-state calibration factor table, as for NewPAS.
func NewPASCredit2(cpu *cpufreq.CPU, cf []float64) (*PASCredit2, error) {
	l, err := newLoop(cpu, cf)
	if err != nil {
		return nil, err
	}
	return &PASCredit2{loop: l, c2: sched.NewCredit2()}, nil
}

// Name implements sched.Scheduler.
func (p *PASCredit2) Name() string { return "pas-credit2" }

// Add implements sched.Scheduler. The VM's configured credit is
// remembered as its contracted credit, and Credit2 books it as the VM's
// initial weight unless the VM has an explicit one.
func (p *PASCredit2) Add(v *vm.VM) error {
	if err := p.c2.Add(v); err != nil {
		return err
	}
	p.contracts[v.ID()] = v.Credit()
	return nil
}

// Remove implements sched.Scheduler.
func (p *PASCredit2) Remove(id vm.ID) error {
	if err := p.c2.Remove(id); err != nil {
		return err
	}
	delete(p.contracts, id)
	return nil
}

// VMs implements sched.Scheduler.
func (p *PASCredit2) VMs() []*vm.VM { return p.c2.VMs() }

// Pick implements sched.Scheduler.
func (p *PASCredit2) Pick(now sim.Time) *vm.VM { return p.c2.Pick(now) }

// Charge implements sched.Scheduler.
func (p *PASCredit2) Charge(v *vm.VM, busy, now sim.Time) { p.c2.Charge(v, busy, now) }

// Tick implements sched.Scheduler: Credit2 accounting (a no-op), then —
// at every PAS interval — the DVFS recomputation.
func (p *PASCredit2) Tick(now sim.Time) {
	p.c2.Tick(now)
	p.tick(now, p)
}

// NextBoundary implements sched.Scheduler: Credit2 itself has no
// accounting boundary, so the next PAS recomputation (which can change
// the frequency) is the only one batched steps must stop before.
func (p *PASCredit2) NextBoundary(now sim.Time) sim.Time {
	return p.boundary(p.c2.NextBoundary(now))
}

// BatchPattern implements sched.Scheduler by delegating to Credit2:
// between recomputations (excluded from batched stretches by
// NextBoundary) the variant schedules exactly like Credit2 under the
// momentary weights, so contended stretches collapse to the same
// closed-form smallest-vruntime merge.
func (p *PASCredit2) BatchPattern(quota []sched.PatternQuota, quantum sim.Time, max int, now sim.Time) ([]sched.PatternPick, bool) {
	return p.c2.BatchPattern(quota, quantum, max, now)
}

// enforce is the variant's half of Listing 1.2, and it is empty. The
// cap-based PAS must recompute every VM's cap here because a cap is
// frequency-relative (equation 4); weights are not — proportional shares
// are frequency-invariant, so the weights applied at Add/SetCap stay
// correct at every frequency and there is nothing to refresh per
// recomputation. That missing half *is* the variant.
func (*PASCredit2) enforce(sim.Time, Target, bool) {}

// SetCap implements sched.CapSetter: the new value is interpreted as a
// contracted credit and is applied as the VM's weight immediately (the
// single weight-application site besides Add; no per-frequency
// recomputation is needed because proportional shares are
// frequency-invariant). There is no enforced cap — the method exists so
// credit managers and the fleet can re-contract VMs uniformly across
// schedulers.
func (p *PASCredit2) SetCap(id vm.ID, pct float64) error {
	if err := p.recontract(id, pct); err != nil {
		return err
	}
	if pct > 0 {
		return p.c2.SetWeight(id, sched.WeightForCredit(pct))
	}
	return nil
}
