package core

import (
	"fmt"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// LoadSource supplies the paper's Global load signal: the averaged recent
// processor utilization in [0,1] ("an average of three successive
// processor utilization", footnote 5). The host implements it.
type LoadSource interface {
	GlobalLoad() float64
}

// DefaultPASInterval is the default DVFS/credit recomputation interval:
// the Xen scheduler tick of 10 ms ("at each tick in the VM scheduler, we
// compute the appropriate processor frequency", Section 4.2).
const DefaultPASInterval = 10 * sim.Millisecond

// PASConfig configures the in-scheduler PAS.
type PASConfig struct {
	// CPU is the processor whose frequency PAS manages. Required.
	CPU *cpufreq.CPU
	// CF is the per-P-state calibration factor table (the paper's CF[]),
	// in ladder order. Nil assumes cf = 1 everywhere; use the measured
	// table from internal/calib for non-ideal architectures.
	CF []float64
	// Interval is the recomputation interval; default DefaultPASInterval.
	Interval sim.Time
	// CapacityMargin inflates the absolute load before the Listing 1.1
	// frequency scan, so that a host saturated at slightly under 100%
	// utilization (scheduling is quantized; Dom0 leaves sub-quantum
	// gaps) still escapes to the next frequency. Zero selects the
	// default of 0.02; Listing 1.1's strict comparison corresponds to a
	// very small positive value.
	CapacityMargin float64
	// SettleTime is how long PAS waits after a frequency change before
	// recomputing again. The Global load signal is a sliding average; a
	// sample window measured at the previous frequency, converted with
	// the new frequency's ratio, misestimates the absolute load and can
	// drive a limit cycle. Waiting one full measurement window after
	// each transition (the same reason the kernel rate-limits ondemand
	// to a multiple of the transition latency) removes the
	// misattribution. Zero selects the default of 400 ms — one default
	// host measurement window (3 x 100 ms) plus margin.
	SettleTime sim.Time
}

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
// Only PAS writes the inner scheduler's caps, so it knows when they all
// hold the compensation for one (ratio, cf) pair: a recomputation that
// keeps the frequency and that pair, with no Add or SetCap since the last
// full pass, leaves every cap as it is instead of rewriting it.
type PAS struct {
	credit      *sched.Credit
	cpu         *cpufreq.CPU
	cf          []float64
	interval    sim.Time
	margin      float64
	settle      sim.Time
	settleUntil sim.Time
	next        sim.Time
	loads       LoadSource
	initCredit  map[vm.ID]float64
	// compRatio and compCF are the (ratio, cf) pair the last full
	// recompensation applied to every VM; compValid is false until the
	// first one and after any Add or SetCap, whose caps it does not cover.
	compRatio  float64
	compCF     float64
	compValid  bool
	recomputes int
	tracer     sched.Tracer
}

var (
	_ sched.Scheduler        = (*PAS)(nil)
	_ sched.CapSetter        = (*PAS)(nil)
	_ sched.EffectiveCapper  = (*PAS)(nil)
	_ sched.BoundaryReporter = (*PAS)(nil)
	_ sched.Batcher          = (*PAS)(nil)
	_ sched.PatternBatcher   = (*PAS)(nil)
	_ sched.TraceSetter      = (*PAS)(nil)
	_ sched.Throttler        = (*PAS)(nil)
)

// NewPAS builds a PAS scheduler.
func NewPAS(cfg PASConfig) (*PAS, error) {
	if cfg.CPU == nil {
		return nil, fmt.Errorf("core: PAS requires a CPU")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultPASInterval
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("core: negative PAS interval %v", cfg.Interval)
	}
	if cfg.CF != nil && len(cfg.CF) != cfg.CPU.Profile().Levels() {
		return nil, fmt.Errorf("core: CF table has %d entries for %d P-states",
			len(cfg.CF), cfg.CPU.Profile().Levels())
	}
	if cfg.CapacityMargin < 0 {
		return nil, fmt.Errorf("core: negative capacity margin %v", cfg.CapacityMargin)
	}
	if cfg.CapacityMargin == 0 {
		cfg.CapacityMargin = 0.02
	}
	if cfg.SettleTime < 0 {
		return nil, fmt.Errorf("core: negative settle time %v", cfg.SettleTime)
	}
	if cfg.SettleTime == 0 {
		cfg.SettleTime = 400 * sim.Millisecond
	}
	return &PAS{
		credit:     sched.NewCredit(sched.CreditConfig{}),
		cpu:        cfg.CPU,
		cf:         cfg.CF,
		interval:   cfg.Interval,
		margin:     cfg.CapacityMargin,
		settle:     cfg.SettleTime,
		next:       cfg.Interval,
		initCredit: make(map[vm.ID]float64),
	}, nil
}

// BindLoadSource attaches the Global load signal. Typically called with
// the host right after host construction.
func (p *PAS) BindLoadSource(ls LoadSource) { p.loads = ls }

// Name implements sched.Scheduler.
func (p *PAS) Name() string { return "pas" }

// Add implements sched.Scheduler. The VM's configured credit is remembered
// as its initial credit C_init — the SLA the compensation preserves. The
// VM runs at that raw credit until the next recomputation compensates it.
func (p *PAS) Add(v *vm.VM) error {
	if err := p.credit.Add(v); err != nil {
		return err
	}
	p.initCredit[v.ID()] = v.Credit()
	p.compValid = false
	return nil
}

// Remove implements sched.Scheduler.
func (p *PAS) Remove(id vm.ID) error {
	if err := p.credit.Remove(id); err != nil {
		return err
	}
	delete(p.initCredit, id)
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
// additionally retains the tracer for its own recompensation events
// (sched.RecompensateTracer).
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
	if p.loads == nil {
		return
	}
	for now >= p.next {
		p.updateDvfsAndCredits(p.next)
		p.next += p.interval
	}
}

// NextBoundary implements sched.BoundaryReporter: the earlier of the
// Credit refill and the next PAS recomputation (which can change the
// frequency and every VM's cap, so batched steps must stop before it).
func (p *PAS) NextBoundary(now sim.Time) sim.Time {
	b := p.credit.NextBoundary(now)
	if p.loads != nil && p.next < b {
		b = p.next
	}
	return b
}

// BatchPick implements sched.Batcher by delegating to the underlying
// Credit scheduler; the PAS recomputation itself is excluded from batched
// stretches by NextBoundary.
func (p *PAS) BatchPick(v *vm.VM, quantum sim.Time, max int, now sim.Time) (int, bool) {
	return p.credit.BatchPick(v, quantum, max, now)
}

// BatchPattern implements sched.PatternBatcher by delegating to the
// underlying Credit scheduler: between recomputations (excluded from
// batched stretches by NextBoundary) PAS schedules exactly like Credit
// under the momentary compensated caps, so contended stretches collapse
// to the same weighted round-robin rotations.
func (p *PAS) BatchPattern(quota []sched.PatternQuota, quantum sim.Time, max int, now sim.Time) ([]sched.PatternPick, bool) {
	return p.credit.BatchPattern(quota, quantum, max, now)
}

// updateDvfsAndCredits is the paper's Listing 1.2: compute the new
// frequency from the absolute load, derive every VM's compensated credit
// for that frequency, apply the credits, then apply the frequency.
func (p *PAS) updateDvfsAndCredits(now sim.Time) {
	if now < p.settleUntil {
		return // the load signal still contains pre-transition samples
	}
	prof := p.cpu.Profile()
	curIdx, err := prof.Index(p.cpu.Freq())
	if err != nil {
		return // unreachable: the CPU only reports ladder frequencies
	}
	global := p.loads.GlobalLoad() * 100
	abs := AbsoluteLoad(global, p.cpu.Ratio(), cfAt(p.cf, curIdx))

	newFreq := ComputeNewFreq(prof, p.cf, abs*(1+p.margin))
	newIdx, err := prof.Index(newFreq)
	if err != nil {
		return
	}
	ratio := prof.Ratio(newFreq)
	cf := cfAt(p.cf, newIdx)
	changed := newFreq != p.cpu.Freq()
	compensated := int64(0)
	// Skip on the pair, not on cpu.Freq(): the frequency lags a pending
	// switch whose target the last pass compensated for. A frequency
	// change still takes the full pass, so its event counts every VM.
	if changed || !p.compValid || ratio != p.compRatio || cf != p.compCF {
		for id, init := range p.initCredit {
			if init <= 0 {
				continue // null-credit VMs have no SLA to compensate
			}
			// Compensation failing, or the cap setter rejecting a VM that
			// was registered through Add, would leave the VM capped for
			// the old frequency with no trace — an accounting invariant
			// violation, not a recoverable condition. init > 0 was
			// checked, ratio and cf come from the validated ladder, and
			// every id is registered, so both are impossible; enforce it.
			newCredit, err := CompensatedCredit(init, ratio, cf)
			if err != nil {
				panic(fmt.Sprintf("core: PAS recompensation for VM %d (init %v, ratio %v, cf %v): %v",
					id, init, ratio, cf, err))
			}
			if err := p.credit.SetCap(id, newCredit); err != nil {
				panic(fmt.Sprintf("core: PAS recompensated cap for VM %d rejected: %v", id, err))
			}
			compensated++
		}
		p.compRatio, p.compCF, p.compValid = ratio, cf, true
	}
	if changed {
		_ = p.cpu.SetFreq(newFreq, now) // ladder-validated above
		p.settleUntil = now + p.settle
		// One decision event per frequency change, which is when the
		// compensated caps move; a single event keeps the emission
		// independent of the initCredit map's iteration order.
		if rt, ok := p.tracer.(sched.RecompensateTracer); ok {
			rt.TraceRecompensate(now, int64(newFreq), compensated)
		}
	}
	p.recomputes++
}

// SetCap implements sched.CapSetter. Setting a cap through PAS rebases the
// VM's initial credit: the new value is interpreted as a contracted credit
// at maximum frequency and is immediately compensated for the current
// frequency.
func (p *PAS) SetCap(id vm.ID, pct float64) error {
	if _, ok := p.initCredit[id]; !ok {
		return fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	if pct < 0 {
		return fmt.Errorf("core: negative credit %v for VM %d", pct, id)
	}
	p.initCredit[id] = pct
	p.compValid = false
	prof := p.cpu.Profile()
	idx, err := prof.Index(p.cpu.Freq())
	if err != nil {
		return err
	}
	comp, err := CompensatedCredit(pct, p.cpu.Ratio(), cfAt(p.cf, idx))
	if err != nil {
		return err
	}
	return p.credit.SetCap(id, comp)
}

// Cap implements sched.CapSetter, returning the VM's initial (contracted)
// credit rather than the momentary compensated cap; use EffectiveCap for
// the latter.
func (p *PAS) Cap(id vm.ID) (float64, error) {
	init, ok := p.initCredit[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	return init, nil
}

// EffectiveCap returns the VM's current compensated cap in the underlying
// Credit scheduler (e.g. 33.3% for a 20% VM at 1600 of 2667 MHz).
func (p *PAS) EffectiveCap(id vm.ID) (float64, error) {
	return p.credit.Cap(id)
}

// Recomputes returns how many DVFS/credit recomputations have run, for
// tests and introspection.
func (p *PAS) Recomputes() int { return p.recomputes }

// Interval returns the recomputation interval.
func (p *PAS) Interval() sim.Time { return p.interval }
