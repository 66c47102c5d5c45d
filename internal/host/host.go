// Package host composes the simulated virtualized machine: one processor
// with DVFS (internal/cpufreq), a VM scheduler (internal/sched or the PAS
// scheduler in internal/core), an optional DVFS governor
// (internal/governor), the VMs and their workloads, plus measurement
// (internal/metrics) and energy accounting (internal/energy).
//
// NewMachine is the machine builder every layer uses — the facade, the
// paper's experiments, calibration, the multicore cluster,
// consolidation and the fleet: it builds the CPU and a scheduler from
// the registry (SchedulerNames, CanonicalScheduler), binds the PAS
// family to the host's Global load signal, and adds Dom0. New composes
// a host from parts the caller built, for tests that need to.
//
// The host advances simulated time in fixed scheduling quanta (1 ms by
// default, finer than Xen's 30 ms timeslice so that load traces are
// smooth). Every quantum it fires due events, generates workload arrivals,
// lets the scheduler pick a VM, executes the VM at the processor's current
// throughput, charges the scheduler, integrates energy, and drives the
// governor and any user-level agents.
//
// Time itself is owned by the shared simulation engine (internal/engine):
// the host registers its load meter, user-level agents and recorder
// sampler as engine actions and implements the engine's Machine interface.
// When scheduler, governor and workloads all certify that nothing
// scheduler-relevant happens inside the offered stretch (their
// NextBoundary, NextDecision and NextChange horizons), the host executes
// the whole stretch as one batched step — idle hosts, single-runnable-VM
// runs (sched.Batcher, where the scheduler has it) and contended
// multi-runnable stretches whose pick pattern the scheduler folds into
// per-VM tallies (BatchPattern) cost O(1) per event horizon instead of
// O(quanta) — and otherwise falls back to the reference quantum-by-quantum
// semantics. Config.Reference forces the fallback everywhere, which is
// the baseline the equivalence tests compare batched runs against.
package host

import (
	"fmt"

	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/engine"
	"pasched/internal/governor"
	"pasched/internal/metrics"
	"pasched/internal/obs"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// The load meter behind GlobalLoad, the signal PAS consumes: the
// average of meterDepth successive utilization samples taken every
// meterInterval — three of 100 ms, the paper's footnote-5 convention.
const (
	meterInterval = 100 * sim.Millisecond
	meterDepth    = 3
)

// Config configures a Host.
type Config struct {
	// CPU is the processor to drive. When nil, a CPU is built from
	// Profile.
	CPU *cpufreq.CPU
	// Profile is the processor architecture; required when CPU is nil.
	Profile *cpufreq.Profile
	// Scheduler is the VM scheduler. Required.
	Scheduler sched.Scheduler
	// Governor is the DVFS governor; nil means no governor (the
	// frequency stays wherever the scheduler or callers put it, which is
	// how the in-scheduler PAS variant runs).
	Governor governor.Governor
	// Quantum is the scheduling quantum; default 1 ms.
	Quantum sim.Time
	// SampleInterval is the recorder sampling interval; default 1 s.
	// Negative disables recorder sampling entirely: no series are
	// collected, so a host's memory no longer grows with simulated time
	// or with the VMs that ever lived on it (fleet estates run this way
	// — the fleet reports its own interval curves and never reads the
	// per-host recorder).
	SampleInterval sim.Time
	// Reference disables event-horizon batching: every quantum runs
	// through the reference step path. Batched and reference runs produce
	// the same traces; the switch exists for equivalence tests and
	// debugging.
	Reference bool
	// Obs is the host's flight-recorder lane. When nil (the default)
	// nothing is recorded and the hot path pays a single nil check; when
	// set, the host emits state/decision events, maintains the per-VM
	// attribution ledgers registered through ObserveVM, and installs
	// itself as the scheduler's Tracer.
	Obs *obs.MachineObs
}

// Agent is a periodic user-level component running on the host, such as
// the paper's user-level credit managers (Section 4.1). Run is invoked at
// every Interval boundary.
type Agent interface {
	// Interval is the agent's polling period.
	Interval() sim.Time
	// Run executes one iteration at simulated time now.
	Run(now sim.Time)
}

// vmAccount is the per-VM busy/work bookkeeping, slice-backed so the hot
// quantum path avoids map operations and RemoveVM leaves no stale
// entries behind. Work is exact integer sim.Work: bulk batched charges
// and per-quantum charges land on bit-identical tallies.
type vmAccount struct {
	busy sim.Time
	work sim.Work
	ser  *vmSeries // nil until the VM's first recorder sample
}

// hostSeries is a host's recorder-sampling state, built at its first
// sample: the host-wide series, resolved once, and the time and totals
// of the previous sample.
type hostSeries struct {
	freq, global, absolute *metrics.Series
	lastT                  sim.Time
	prevBusy               sim.Time
	prevWork               sim.Work
}

// vmSeries is one VM's recorder-sampling state, built at the VM's first
// sample: its series, each resolved at its first point (vmload needs a
// positive credit, cap a readable cap), and the VM's totals at the
// previous sample.
type vmSeries struct {
	global, absolute, vmload, capPct *metrics.Series
	prevBusy                         sim.Time
	prevWork                         sim.Work
}

// Host is the simulated virtualized machine.
type Host struct {
	cfg       Config
	eng       *engine.Engine
	cpu       *cpufreq.CPU
	scheduler sched.Scheduler
	gov       governor.Governor
	vms       []*vm.VM
	acct      []vmAccount // parallel to vms
	byID      map[vm.ID]int

	cumBusy sim.Time
	cumWork sim.Work

	meter *metrics.DeltaMeter

	rec *metrics.Recorder
	ser *hostSeries // nil until the first recorder sample

	energy *energy.Meter
	agents int
	maxTp  float64 // throughput at maximum frequency, cached

	// The scheduler's optional single-runnable fast path, resolved once
	// at construction.
	schedBatcher sched.Batcher

	// Reused per batched step: the runnable VMs as pattern quotas, and
	// their pending work (parallel). Each step overwrites what the last
	// one left; only RemoveVM clears them (dropQuotas).
	quotaBuf   []sched.PatternQuota
	pendingBuf []sim.Work

	// Flight recorder state; obs == nil disables every observation at a
	// single pointer check per step.
	obs      *obs.MachineObs
	leds     []*obs.VMLedger // parallel to vms, maintained only when obs != nil
	schedThr sched.Throttler
	obsFreq  cpufreq.Freq // last emitted P-state
	maxFreq  cpufreq.Freq // the profile's maximum, cached
	// exhausted holds the budget exhaustions the scheduler reported
	// while a step was charged, stamped at the step's end; they are
	// emitted after the step's attribution events, stamped at its start,
	// so the lane's event times never decrease (obs's per-lane order
	// contract).
	exhausted []exhaustion
}

// exhaustion is one deferred KindExhausted event.
type exhaustion struct {
	at sim.Time
	vm *vm.VM
}

// machine adapts the host to the engine's Machine interface without
// exporting the step methods on Host itself.
type machine struct{ h *Host }

func (m machine) Step(now sim.Time) error                      { return m.h.step(now) }
func (m machine) BatchStep(now sim.Time, max int) (int, error) { return m.h.batchStep(now, max) }

// New builds a host from the configuration. It validates the configuration
// and initializes the engine, meters, recorder and energy accounting.
func New(cfg Config) (*Host, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("host: scheduler is required")
	}
	cpu := cfg.CPU
	if cpu == nil {
		if cfg.Profile == nil {
			return nil, fmt.Errorf("host: either CPU or Profile is required")
		}
		var err error
		cpu, err = cpufreq.NewCPU(cfg.Profile)
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = sim.Millisecond
	}
	if cfg.Quantum <= 0 {
		return nil, fmt.Errorf("host: quantum must be positive, got %v", cfg.Quantum)
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = sim.Second
	}
	if (cfg.SampleInterval > 0 && cfg.SampleInterval < cfg.Quantum) || meterInterval < cfg.Quantum {
		return nil, fmt.Errorf("host: sampling intervals must be >= quantum")
	}
	meter, err := metrics.NewDeltaMeter(meterInterval, meterDepth)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	em, err := energy.NewMeter(cpu.Profile())
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	maxTp, err := cpu.Profile().Throughput(cpu.Profile().Max())
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	h := &Host{
		cfg:       cfg,
		cpu:       cpu,
		scheduler: cfg.Scheduler,
		gov:       cfg.Governor,
		byID:      make(map[vm.ID]int),
		meter:     meter,
		rec:       metrics.NewRecorder(),
		energy:    em,
		maxTp:     maxTp,
	}
	h.schedBatcher, _ = cfg.Scheduler.(sched.Batcher)
	h.maxFreq = cpu.Profile().Max()
	if cfg.Obs != nil {
		h.obs = cfg.Obs
		h.obsFreq = cpu.Freq()
		h.schedThr, _ = cfg.Scheduler.(sched.Throttler)
		if ts, ok := cfg.Scheduler.(sched.TraceSetter); ok {
			ts.SetTracer(h)
		}
	}
	eng, err := engine.New(cfg.Quantum, machine{h})
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	h.eng = eng
	if err := eng.AddAction("meter", meterInterval, engine.OrderMeter, func(now sim.Time) error {
		h.meter.Sample(now, h.cumBusy)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	if cfg.SampleInterval > 0 {
		if err := eng.AddAction("sample", cfg.SampleInterval, engine.OrderSampler, func(now sim.Time) error {
			h.sample(now)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
	}
	return h, nil
}

// AddVM registers a VM with the host and its scheduler.
func (h *Host) AddVM(v *vm.VM) error {
	if v == nil {
		return fmt.Errorf("host: add nil VM")
	}
	if _, dup := h.byID[v.ID()]; dup {
		return fmt.Errorf("host: duplicate VM id %d", v.ID())
	}
	if err := h.scheduler.Add(v); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	h.byID[v.ID()] = len(h.vms)
	h.vms = append(h.vms, v)
	h.acct = append(h.acct, vmAccount{})
	if h.obs != nil {
		h.leds = append(h.leds, nil)
	}
	return nil
}

// RemoveVM unregisters a VM (shutdown or migration away) from the host and
// its scheduler. Its accounting entries are dropped with it — already
// recorded series stay in the recorder, but no per-VM state lingers.
func (h *Host) RemoveVM(id vm.ID) error {
	idx, ok := h.byID[id]
	if !ok {
		return fmt.Errorf("host: unknown VM id %d", id)
	}
	if err := h.scheduler.Remove(id); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	delete(h.byID, id)
	h.dropQuotas()
	copy(h.vms[idx:], h.vms[idx+1:])
	h.vms[len(h.vms)-1] = nil // drop the trailing pointer so the VM can be collected
	h.vms = h.vms[:len(h.vms)-1]
	h.acct = append(h.acct[:idx], h.acct[idx+1:]...)
	if h.obs != nil && idx < len(h.leds) {
		copy(h.leds[idx:], h.leds[idx+1:])
		h.leds[len(h.leds)-1] = nil
		h.leds = h.leds[:len(h.leds)-1]
	}
	for vid, i := range h.byID {
		if i > idx {
			h.byID[vid] = i - 1
		}
	}
	return nil
}

// ObserveVM attaches a throttle-attribution ledger to a registered VM:
// from now until the VM is removed, every covered quantum lands in
// exactly one of the ledger's buckets. Only valid on a host built with
// Config.Obs.
func (h *Host) ObserveVM(id vm.ID, led *obs.VMLedger) error {
	if h.obs == nil {
		return fmt.Errorf("host: ObserveVM on a host without an observer")
	}
	idx, ok := h.byID[id]
	if !ok {
		return fmt.Errorf("host: unknown VM id %d", id)
	}
	h.leds[idx] = led
	return nil
}

// VM returns the VM with the given id, or nil.
func (h *Host) VM(id vm.ID) *vm.VM {
	idx, ok := h.byID[id]
	if !ok {
		return nil
	}
	return h.vms[idx]
}

// VMs returns the host's VMs in registration order.
func (h *Host) VMs() []*vm.VM {
	out := make([]*vm.VM, len(h.vms))
	copy(out, h.vms)
	return out
}

// CPU returns the host's processor.
func (h *Host) CPU() *cpufreq.CPU { return h.cpu }

// Scheduler returns the host's VM scheduler.
func (h *Host) Scheduler() sched.Scheduler { return h.scheduler }

// Recorder returns the host's time-series recorder.
func (h *Host) Recorder() *metrics.Recorder { return h.rec }

// Energy returns the host's energy meter.
func (h *Host) Energy() *energy.Meter { return h.energy }

// Engine returns the host's simulation engine (for introspection: batched
// versus stepped quanta counts).
func (h *Host) Engine() *engine.Engine { return h.eng }

// Now returns the current simulated time.
func (h *Host) Now() sim.Time { return h.eng.Now() }

// GlobalLoad returns the averaged recent processor utilization in [0,1],
// the paper's Global load signal (average of three successive utilization
// measurements). The PAS scheduler consumes this through the
// core.LoadSource interface.
func (h *Host) GlobalLoad() float64 { return h.meter.Average() }

// CumulativeBusy returns the total busy CPU time so far.
func (h *Host) CumulativeBusy() sim.Time { return h.cumBusy }

// CumulativeWork returns the total executed work so far, as exact
// integer sim.Work. Use sim.Work.Units for the float report-edge view.
func (h *Host) CumulativeWork() sim.Work { return h.cumWork }

// VMBusy returns the total busy CPU time granted to the VM so far, or 0
// after the VM was removed.
func (h *Host) VMBusy(id vm.ID) sim.Time {
	idx, ok := h.byID[id]
	if !ok {
		return 0
	}
	return h.acct[idx].busy
}

// Schedule enqueues fn to run at simulated time at (e.g. a workload swap
// or a VM pause).
func (h *Host) Schedule(at sim.Time, fn func(now sim.Time)) {
	h.eng.Schedule(at, fn)
}

// AddAgent registers a periodic agent. The agent first runs one interval
// from now.
func (h *Host) AddAgent(a Agent) error {
	if a == nil {
		return fmt.Errorf("host: add nil agent")
	}
	if a.Interval() <= 0 {
		return fmt.Errorf("host: agent interval must be positive, got %v", a.Interval())
	}
	h.agents++
	name := fmt.Sprintf("agent-%d", h.agents)
	if err := h.eng.AddAction(name, a.Interval(), engine.OrderAgents, func(now sim.Time) error {
		a.Run(now)
		return nil
	}); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	return nil
}

// Run advances the simulation by d.
func (h *Host) Run(d sim.Time) error {
	return h.eng.Run(d)
}

// RunUntil advances the simulation until simulated time t.
func (h *Host) RunUntil(t sim.Time) error {
	return h.eng.RunUntil(t)
}

// step executes one scheduling quantum with reference semantics. The
// engine has already fired due events; it advances the clock and fires
// meter/agent/sampler boundaries afterwards.
func (h *Host) step(now sim.Time) error {
	for _, v := range h.vms {
		v.Tick(now)
	}
	h.cpu.Advance(now)
	if h.obs != nil {
		h.obsFreqCheck(now)
	}

	end := now + h.cfg.Quantum
	util := 0.0
	picked := h.scheduler.Pick(now)
	var pickedBusy sim.Time
	if picked != nil {
		capWork := h.cpu.WorkRate() * sim.Work(h.cfg.Quantum)
		done := picked.Consume(capWork, end)
		if done > 0 {
			frac := float64(done) / float64(capWork)
			if frac > 1 {
				frac = 1
			}
			busy := sim.Time(float64(h.cfg.Quantum)*frac + 0.5)
			if busy > h.cfg.Quantum {
				busy = h.cfg.Quantum
			}
			picked.AddCPUTime(busy)
			h.scheduler.Charge(picked, busy, end)
			h.cumBusy += busy
			h.cumWork += done
			if idx := sched.IndexOf(h.vms, picked); idx >= 0 {
				h.acct[idx].busy += busy
				h.acct[idx].work += done
			}
			util = frac
			pickedBusy = busy
		}
	}
	if err := h.energy.Add(h.cfg.Quantum, h.cpu.Freq(), util); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	if h.obs != nil {
		h.obsStep(now, picked, pickedBusy)
		h.obsExhausted()
	}
	h.scheduler.Tick(end)

	if h.gov != nil {
		st := governor.Stats{
			Now:     end,
			CumBusy: h.cumBusy,
			CumWork: h.cumWork,
			Cur:     h.cpu.Freq(),
			Prof:    h.cpu.Profile(),
		}
		if f, ok := h.gov.Tick(st); ok {
			if err := h.cpu.SetFreq(f, end); err != nil {
				return fmt.Errorf("host: governor: %w", err)
			}
		}
	}
	return nil
}

// quantaWithin returns floor(pending/capWork) — how many full quanta of
// work a backlog covers — or limit when the backlog covers at least that
// many: a bound above the offer binds nothing, so the division runs only
// for a backlog that may bind, and a Hog's sim.MaxWork backlog never
// reaches an int conversion. The host's offers end at its meter
// interval, which keeps limit*capWork far from int64 overflow.
func quantaWithin(pending, capWork sim.Work, limit int) int {
	if pending >= sim.Work(limit)*capWork {
		return limit
	}
	return int(pending / capWork)
}

// batchStep executes up to max quanta starting at now as one batched
// step when the stretch ahead is provably uniform: no scheduler
// accounting boundary, no possible governor decision, no frequency
// transition completion, no workload arrival or phase change, and a
// processor occupancy the scheduler certifies for every covered quantum —
// idle, a single runnable VM consuming full quanta (sched.Batcher), or a
// contended multi-runnable pattern with per-VM consumed-quanta tallies
// (BatchPattern). It returns 0 whenever any of those certifications
// fails, and the engine falls back to the reference step.
//
// The limits are kept as times and rounded to quanta once per kind: the
// stretch stops strictly before the scheduler boundary and the governor
// decision (before), and may end on the quantum that covers a frequency
// transition or a workload change (covering). Rounding up is monotone,
// so the earliest time of a kind gives that kind's quanta bound.
func (h *Host) batchStep(now sim.Time, max int) (int, error) {
	if h.cfg.Reference {
		return 0, nil
	}
	q := h.cfg.Quantum
	// Cheapest disqualifier first, before any VM is touched: a scheduler
	// boundary (every PAS recomputation, every Credit refill) within two
	// quanta leaves fewer than two quanta before it, so its quantum runs
	// through the reference path, whoever is runnable.
	before := h.scheduler.NextBoundary(now)
	if before-now <= 2*q {
		return 0, nil
	}
	// Completing a due frequency transition first (as the reference step
	// would at this quantum start) both matches reference semantics and
	// clears the way for batching the stretch behind it.
	h.cpu.Advance(now)
	if h.obs != nil {
		h.obsFreqCheck(now)
	}
	covering := sim.Never
	if _, at, pending := h.cpu.PendingSwitch(); pending {
		covering = at
	}
	if h.gov != nil {
		st := governor.Stats{
			Now:     now,
			CumBusy: h.cumBusy,
			CumWork: h.cumWork,
			Cur:     h.cpu.Freq(),
			Prof:    h.cpu.Profile(),
		}
		if d := h.gov.NextDecision(st); d < before {
			before = d
		}
	}
	if before-now <= 2*q || covering-now <= q {
		return 0, nil
	}
	// One pass over the VMs: the earliest workload change, and the
	// runnable set with each member's pending work for the quotas.
	quotas, pending := h.quotaBuf[:0], h.pendingBuf[:0]
	for _, v := range h.vms {
		wl := v.Workload()
		if nc := wl.NextChange(now); nc < covering {
			covering = nc
		}
		if v.Paused() {
			continue
		}
		if p := wl.Pending(); p > 0 { // v.Runnable()
			quotas = append(quotas, sched.PatternQuota{VM: v})
			pending = append(pending, p)
		}
	}
	h.quotaBuf, h.pendingBuf = quotas, pending
	if covering-now <= q {
		return 0, nil
	}
	// Both bounds are at least two quanta here, so n >= 2.
	n := max
	if before-now <= sim.Time(n)*q {
		n = engine.QuantaCovering(before-now, q) - 1
	}
	if covering-now <= sim.Time(n-1)*q {
		n = engine.QuantaCovering(covering-now, q)
	}
	freq := h.cpu.Freq()
	if len(quotas) == 0 {
		d := sim.Time(n) * q
		if h.obs != nil {
			h.obsIdleStretch(now, d)
		}
		if err := h.energy.Add(d, freq, 0); err != nil {
			return 0, fmt.Errorf("host: %w", err)
		}
		return n, nil
	}
	if len(quotas) > 1 || h.schedBatcher == nil {
		return h.batchPattern(q, freq, n, now)
	}
	single := quotas[0].VM
	picks, idle := h.schedBatcher.BatchPick(single, q, n, now)
	// A 0/1 answer falls back to the reference step; any pick state the
	// scheduler committed is idempotent with re-picking the same sole
	// runnable VM.
	if idle {
		if picks < 2 {
			return 0, nil
		}
		d := sim.Time(picks) * q
		if h.obs != nil {
			h.obsIdleStretch(now, d)
		}
		if err := h.energy.Add(d, freq, 0); err != nil {
			return 0, fmt.Errorf("host: %w", err)
		}
		return picks, nil
	}
	if picks < n {
		n = picks
	}
	capWork := h.cpu.WorkRate() * sim.Work(q)
	if capWork <= 0 {
		return 0, nil
	}
	// Keep strictly below the pending work so every batched quantum
	// consumes a full capWork and the VM stays runnable at every covered
	// pick; the draining tail runs through the reference path.
	if avail := quantaWithin(pending[0], capWork, n+1) - 1; avail < n {
		n = avail
	}
	if n < 2 {
		return 0, nil
	}
	d := sim.Time(n) * q
	end := now + d
	done := single.Consume(capWork*sim.Work(n), end)
	single.AddCPUTime(d)
	h.scheduler.Charge(single, d, end)
	h.cumBusy += d
	h.cumWork += done
	if idx := sched.IndexOf(h.vms, single); idx >= 0 {
		h.acct[idx].busy += d
		h.acct[idx].work += done
	}
	if h.obs != nil {
		h.obsBatchRun(now, d, single)
		h.obsExhausted()
	}
	if err := h.energy.Add(d, freq, 1); err != nil {
		return 0, fmt.Errorf("host: %w", err)
	}
	return n, nil
}

// dropQuotas empties the reused quota buffers and drops every VM pointer
// they hold, up to their capacity: batched steps leave their runnable
// sets behind, and removal is the one moment such a stale pointer could
// keep a VM from being collected.
func (h *Host) dropQuotas() {
	clear(h.quotaBuf[:cap(h.quotaBuf)])
	h.quotaBuf, h.pendingBuf = h.quotaBuf[:0], h.pendingBuf[:0]
}

// batchPattern collapses a contended (or scheduler-restricted) stretch of
// up to max quanta into one composite pattern step: the scheduler
// certifies its pick interleaving — Credit's weighted round-robin
// rotation, SEDF's frozen EDF order — as per-VM consumed-quanta tallies,
// and the host applies each VM's share (workload consumption, CPU time,
// scheduler charge, per-VM accounting) in one pass, with every covered
// quantum fully busy. The per-VM quotas keep each pattern VM strictly
// inside its pending work so the runnable set cannot change from within
// the pattern; the draining tail always runs through the reference path.
// batchStep has listed the runnable VMs in h.quotaBuf, with their
// pending work in h.pendingBuf.
func (h *Host) batchPattern(q sim.Time, freq cpufreq.Freq, max int, now sim.Time) (int, error) {
	capWork := h.cpu.WorkRate() * sim.Work(q)
	if capWork <= 0 {
		return 0, nil
	}
	quotas := h.quotaBuf
	for i, p := range h.pendingBuf {
		// Strictly below the pending work, so every granted pick consumes
		// a full quantum and the VM stays runnable past the pattern; no
		// pattern exceeds max, so a bound of max binds like any larger.
		if m := quantaWithin(p, capWork, max+1) - 1; m > 0 {
			quotas[i].MaxPicks = m
		}
	}
	picks, idle := h.scheduler.BatchPattern(quotas, q, max, now)
	if idle {
		d := sim.Time(max) * q
		if h.obs != nil {
			h.obsIdleStretch(now, d)
		}
		if err := h.energy.Add(d, freq, 0); err != nil {
			return 0, fmt.Errorf("host: %w", err)
		}
		return max, nil
	}
	total := 0
	for _, p := range picks {
		total += p.Quanta
	}
	if total == 0 {
		return 0, nil
	}
	if total < 2 || total > max {
		return 0, fmt.Errorf("host: scheduler %s certified a %d-quanta pattern of %d offered",
			h.scheduler.Name(), total, max)
	}
	end := now + sim.Time(total)*q
	for _, p := range picks {
		if p.VM == nil || p.Quanta <= 0 {
			return 0, fmt.Errorf("host: scheduler %s certified an invalid pattern pick",
				h.scheduler.Name())
		}
		busy := sim.Time(p.Quanta) * q
		done := p.VM.Consume(capWork*sim.Work(p.Quanta), end)
		p.VM.AddCPUTime(busy)
		h.scheduler.Charge(p.VM, busy, end)
		h.cumBusy += busy
		h.cumWork += done
		if idx := sched.IndexOf(h.vms, p.VM); idx >= 0 {
			h.acct[idx].busy += busy
			h.acct[idx].work += done
		}
	}
	if h.obs != nil {
		h.obsPatternStretch(now, q, total, picks)
		h.obsExhausted()
	}
	if err := h.energy.Add(sim.Time(total)*q, freq, 1); err != nil {
		return 0, fmt.Errorf("host: %w", err)
	}
	return total, nil
}

// obsFreqCheck emits a P-state event when the processor frequency
// changed since the last check (transitions materialize at Advance).
func (h *Host) obsFreqCheck(at sim.Time) {
	if f := h.cpu.Freq(); f != h.obsFreq {
		h.obsFreq = f
		h.obs.Emit(at, obs.KindPState, "", int64(f), 0)
	}
}

// obsState records a VM's attribution state, emitting a KindVMState
// event only when it changed.
func (h *Host) obsState(led *obs.VMLedger, v *vm.VM, at sim.Time, st obs.State) {
	if led.LastState != st {
		led.LastState = st
		h.obs.Emit(at, obs.KindVMState, v.Name(), int64(st), 0)
	}
}

// obsWaitClass classifies a non-picked VM's quantum: not runnable is
// idle; runnable but barred by its own exhausted allocation is capped
// (throttled); otherwise the VM lost the quantum to contention. A
// migration in flight overrides all three.
func (h *Host) obsWaitClass(led *obs.VMLedger, v *vm.VM) obs.State {
	var st obs.State
	switch {
	case !v.Runnable():
		st = obs.StateIdle
	case h.schedThr != nil && h.schedThr.Throttled(v):
		st = obs.StateCapped
	default:
		st = obs.StateContended
	}
	return led.WaitState(st)
}

// obsStep attributes one reference quantum starting at now: the picked
// VM's busy time splits into run/downclocked by the momentary
// frequency (plus an idle tail when its workload drained mid-quantum,
// emitted after every state stamped at now), and every other observed
// VM's whole quantum is classified by obsWaitClass.
func (h *Host) obsStep(now sim.Time, picked *vm.VM, busy sim.Time) {
	q := h.cfg.Quantum
	down := h.cpu.Freq() < h.maxFreq
	var tailLed *obs.VMLedger
	var tail obs.State
	for i, v := range h.vms {
		led := h.leds[i]
		if led == nil {
			continue
		}
		if v == picked && busy > 0 {
			led.AddBusy(busy, down)
			st := obs.StateRun
			if down {
				st = obs.StateDownclocked
			}
			h.obsState(led, v, now, st)
			if busy < q {
				tailLed, tail = led, led.WaitState(obs.StateIdle)
				led.AddWait(q-busy, tail)
			}
			continue
		}
		st := h.obsWaitClass(led, v)
		led.AddWait(q, st)
		h.obsState(led, v, now, st)
	}
	if tailLed != nil {
		h.obsState(tailLed, picked, now+busy, tail)
	}
}

// obsExhausted emits the exhaustions deferred while the step was
// charged.
func (h *Host) obsExhausted() {
	for i, x := range h.exhausted {
		h.obs.Emit(x.at, obs.KindExhausted, x.vm.Name(), 0, 0)
		h.exhausted[i] = exhaustion{} // drop the VM pointer from the reused buffer
	}
	h.exhausted = h.exhausted[:0]
}

// obsIdleStretch attributes a batched stretch of d during which the
// processor provably idles: runnable VMs are all barred by their own
// exhausted allocations (capped), the rest have no work (idle).
func (h *Host) obsIdleStretch(at, d sim.Time) {
	for i, v := range h.vms {
		led := h.leds[i]
		if led == nil {
			continue
		}
		st := obs.StateIdle
		if v.Runnable() {
			st = obs.StateCapped
		}
		st = led.WaitState(st)
		led.AddWait(d, st)
		h.obsState(led, v, at, st)
	}
}

// obsBatchRun attributes a batched single-runnable-VM stretch: ran
// executes for all of d, every other observed VM is idle.
func (h *Host) obsBatchRun(at, d sim.Time, ran *vm.VM) {
	down := h.cpu.Freq() < h.maxFreq
	for i, v := range h.vms {
		led := h.leds[i]
		if led == nil {
			continue
		}
		if v == ran {
			led.AddBusy(d, down)
			st := obs.StateRun
			if down {
				st = obs.StateDownclocked
			}
			h.obsState(led, v, at, st)
			continue
		}
		st := led.WaitState(obs.StateIdle)
		led.AddWait(d, st)
		h.obsState(led, v, at, st)
	}
}

// obsPatternStretch attributes a committed pattern step of total
// quanta: each picked VM splits into its busy tally and contended
// remainder (the certification pins the runnable set and tier
// membership across the stretch, so the split is exact); non-picked
// VMs are classified once for the whole stretch. The emitted visual
// state is the VM's dominant state across the stretch — the ledger
// stays exact underneath.
func (h *Host) obsPatternStretch(at, q sim.Time, total int, picks []sched.PatternPick) {
	down := h.cpu.Freq() < h.maxFreq
	d := sim.Time(total) * q
	for i, v := range h.vms {
		led := h.leds[i]
		if led == nil {
			continue
		}
		tally := 0
		for _, p := range picks {
			if p.VM == v {
				tally = p.Quanta
				break
			}
		}
		if tally > 0 {
			busy := sim.Time(tally) * q
			led.AddBusy(busy, down)
			wait := led.WaitState(obs.StateContended)
			if busy < d {
				led.AddWait(d-busy, wait)
			}
			st := obs.StateRun
			if down {
				st = obs.StateDownclocked
			}
			if 2*busy < d {
				st = wait
			}
			h.obsState(led, v, at, st)
			continue
		}
		st := h.obsWaitClass(led, v)
		led.AddWait(d, st)
		h.obsState(led, v, at, st)
	}
	h.obs.Emit(at, obs.KindPattern, "", int64(total), int64(len(picks)))
}

// TraceRefill implements sched.Tracer: the host forwards scheduler
// accounting boundaries into its recorder lane.
func (h *Host) TraceRefill(now sim.Time) {
	if h.obs != nil {
		h.obs.Emit(now, obs.KindRefill, "", 0, 0)
	}
}

// TraceExhausted implements sched.Tracer: a VM's budget crossed zero
// under a hard cap. Charges report it at the charged step's end, so it
// waits for the step's attribution (obsExhausted).
func (h *Host) TraceExhausted(now sim.Time, v *vm.VM) {
	if h.obs != nil {
		h.exhausted = append(h.exhausted, exhaustion{at: now, vm: v})
	}
}

// TraceRecompensate implements sched.Tracer: a frequency change
// rewrote the enforced caps of vms VMs (Listing 1.2).
func (h *Host) TraceRecompensate(now sim.Time, freqMHz, vms int64) {
	if h.obs != nil {
		h.obs.Emit(now, obs.KindRecompensate, "", freqMHz, vms)
	}
}

// capReader returns the function used to read per-VM caps for the traces:
// the enforced (frequency-compensated) cap when the scheduler reports one,
// otherwise the plain cap, otherwise nil.
func (h *Host) capReader() func(vm.ID) (float64, error) {
	if ec, ok := h.scheduler.(sched.EffectiveCapper); ok {
		return ec.EffectiveCap
	}
	if cs, ok := h.scheduler.(sched.CapSetter); ok {
		return cs.Cap
	}
	return nil
}

// sample records one point of every recorded series at time now. Loads are
// recorded in percent, as in the paper's figures. Series are resolved once,
// at their first point — the host's at its first sample, a VM's at that
// VM's — so they are created in the order per-sample lookups would create
// them, and a VM re-added under the same name appends to its old series.
func (h *Host) sample(now sim.Time) {
	if h.ser == nil {
		// The sampler's first boundary is one interval after time 0, so
		// this first sample always records.
		h.ser = &hostSeries{
			freq:     h.rec.Series("freq_mhz"),
			global:   h.rec.Series("global_load_pct"),
			absolute: h.rec.Series("absolute_load_pct"),
		}
	}
	hs := h.ser
	dt := float64(now - hs.lastT)
	if dt <= 0 {
		return
	}
	dtSec := sim.Time(dt).Seconds()
	t := now.Seconds()

	hs.freq.Add(t, float64(h.cpu.Freq()))
	globalPct := float64(h.cumBusy-hs.prevBusy) / dt * 100
	hs.global.Add(t, globalPct)
	absPct := (h.cumWork - hs.prevWork).Units() / (h.maxTp * dtSec) * 100
	hs.absolute.Add(t, absPct)

	capOf := h.capReader()
	for i, v := range h.vms {
		acct := &h.acct[i]
		vs := acct.ser
		if vs == nil {
			vs = &vmSeries{
				global:   h.rec.Series(v.Name() + "_global_pct"),
				absolute: h.rec.Series(v.Name() + "_absolute_pct"),
			}
			acct.ser = vs
		}
		gl := float64(acct.busy-vs.prevBusy) / dt * 100
		vs.global.Add(t, gl)
		ab := (acct.work - vs.prevWork).Units() / (h.maxTp * dtSec) * 100
		vs.absolute.Add(t, ab)
		if v.Credit() > 0 {
			if vs.vmload == nil {
				vs.vmload = h.rec.Series(v.Name() + "_vmload_pct")
			}
			vs.vmload.Add(t, gl/v.Credit()*100)
		}
		if capOf != nil {
			if capPct, err := capOf(v.ID()); err == nil {
				if vs.capPct == nil {
					vs.capPct = h.rec.Series(v.Name() + "_cap_pct")
				}
				vs.capPct.Add(t, capPct)
			}
		}
		vs.prevBusy = acct.busy
		vs.prevWork = acct.work
	}
	hs.prevBusy = h.cumBusy
	hs.prevWork = h.cumWork
	hs.lastT = now
}
