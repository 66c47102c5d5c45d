// Package multicore extends the single-core reproduction toward the
// paper's stated perspective: "we plan to extend our scheduler and take
// into account other technology factors such as hyper-threading,
// multi-core, per-socket DVFS, and per-core DVFS" (Section 7).
//
// The model is a cluster of cores, each a full simulated host (scheduler,
// VMs, meters) with VMs pinned to cores. A cluster-level PAS coordinator
// replaces the per-host governor:
//
//   - with per-core DVFS, every core independently runs the PAS loop:
//     lowest frequency absorbing the core's absolute load, credits
//     compensated per core;
//   - with per-socket DVFS, all cores share one frequency domain. The
//     coordinator computes each core's desired frequency and applies the
//     maximum across cores (the domain must satisfy its hungriest core);
//     credits on every core are compensated for the shared frequency.
//
// The energy comparison between the two policies under asymmetric load is
// the extension's headline result: per-core DVFS strictly dominates
// per-socket DVFS, and both preserve every VM's absolute credit.
package multicore

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/engine"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// DVFSDomain selects the frequency-domain granularity.
type DVFSDomain int

// Frequency domain granularities.
const (
	// PerCore gives every core an independent frequency.
	PerCore DVFSDomain = iota + 1
	// PerSocket shares one frequency across all cores.
	PerSocket
)

// String renders the domain granularity.
func (d DVFSDomain) String() string {
	switch d {
	case PerCore:
		return "per-core"
	case PerSocket:
		return "per-socket"
	default:
		return "unknown"
	}
}

// Config configures a Cluster.
type Config struct {
	// Profile is the per-core architecture. Required.
	Profile *cpufreq.Profile
	// Cores is the number of cores; at least 1.
	Cores int
	// Domain selects per-core or per-socket DVFS. Default PerCore.
	Domain DVFSDomain
	// Workers bounds how many cores step concurrently between
	// coordination barriers. Cores are fully independent hosts (own
	// engine, scheduler, meters), so the result is identical for any
	// worker count. Zero selects GOMAXPROCS; 1 forces sequential
	// stepping.
	Workers int
	// Reference forces every core onto the reference quantum-by-quantum
	// stepping path (host.Config.Reference), the baseline the cluster's
	// batched==reference equivalence tests compare against.
	Reference bool
}

const (
	// step is the lockstep coordination interval.
	step = 100 * sim.Millisecond
	// settleSteps is how many coordination steps a core's frequency is
	// left alone after a change: the measurement-misattribution guard of
	// core.SettleTime, counted in coordination steps.
	settleSteps = 4
)

// coreState is one core: a single-core host on the fix-credit
// scheduler, whose caps the coordinator compensates, plus coordination
// state.
type coreState struct {
	host        *host.Host
	cpu         *cpufreq.CPU
	credit      *sched.Credit
	initCredit  map[vm.ID]float64
	settleUntil int // coordination step index
}

// Cluster is a multi-core host under cluster-level PAS coordination.
type Cluster struct {
	cfg   Config
	cf    []float64
	cores []*coreState
	now   sim.Time
	step  int
}

// New builds a cluster of identical cores, each with its own Credit
// scheduler, coordinated by the configured DVFS policy.
func New(cfg Config) (*Cluster, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("multicore: profile is required")
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("multicore: need at least 1 core, got %d", cfg.Cores)
	}
	if cfg.Domain == 0 {
		cfg.Domain = PerCore
	}
	if cfg.Domain != PerCore && cfg.Domain != PerSocket {
		return nil, fmt.Errorf("multicore: unknown DVFS domain %d", cfg.Domain)
	}
	if cfg.Workers == 0 {
		cfg.Workers = engine.DefaultWorkers()
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("multicore: negative worker count %d", cfg.Workers)
	}
	c := &Cluster{cfg: cfg, cf: cfg.Profile.EfficiencyTable()}
	for i := 0; i < cfg.Cores; i++ {
		h, err := host.NewMachine("credit", 0, host.Config{Profile: cfg.Profile, Reference: cfg.Reference})
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d: %w", i, err)
		}
		c.cores = append(c.cores, &coreState{
			host:       h,
			cpu:        h.CPU(),
			credit:     h.Scheduler().(*sched.Credit),
			initCredit: make(map[vm.ID]float64),
		})
	}
	return c, nil
}

// Cores returns the number of cores.
func (c *Cluster) Cores() int { return len(c.cores) }

// Now returns the cluster's simulated time.
func (c *Cluster) Now() sim.Time { return c.now }

// AddVM pins a VM to the given core. VM IDs must be unique per core.
func (c *Cluster) AddVM(coreIdx int, v *vm.VM) error {
	if coreIdx < 0 || coreIdx >= len(c.cores) {
		return fmt.Errorf("multicore: core index %d out of range [0,%d)", coreIdx, len(c.cores))
	}
	cs := c.cores[coreIdx]
	if err := cs.host.AddVM(v); err != nil {
		return fmt.Errorf("multicore: %w", err)
	}
	cs.initCredit[v.ID()] = v.Credit()
	return nil
}

// CoreHost exposes the host of one core (its recorder, energy meter, VMs).
func (c *Cluster) CoreHost(coreIdx int) (*host.Host, error) {
	if coreIdx < 0 || coreIdx >= len(c.cores) {
		return nil, fmt.Errorf("multicore: core index %d out of range [0,%d)", coreIdx, len(c.cores))
	}
	return c.cores[coreIdx].host, nil
}

// CoreFreq returns the current frequency of one core.
func (c *Cluster) CoreFreq(coreIdx int) (cpufreq.Freq, error) {
	if coreIdx < 0 || coreIdx >= len(c.cores) {
		return 0, fmt.Errorf("multicore: core index %d out of range [0,%d)", coreIdx, len(c.cores))
	}
	return c.cores[coreIdx].cpu.Freq(), nil
}

// TotalEnergy returns the exact integer energy consumed across all
// cores: an integer sum of the per-core meters, so the reduction order is
// irrelevant by construction.
func (c *Cluster) TotalEnergy() energy.Energy {
	var sum energy.Energy
	for _, cs := range c.cores {
		sum = sum.Add(cs.host.Energy().Total())
	}
	return sum
}

// TotalJoules returns the energy consumed across all cores, as the float
// report edge of TotalEnergy.
func (c *Cluster) TotalJoules() float64 { return c.TotalEnergy().Joules() }

// Run advances the whole cluster by d, coordinating DVFS at every step.
// Between coordination barriers the cores are independent machines, so
// they step concurrently on the engine's worker pool; the PAS
// coordination itself runs sequentially at the barrier.
func (c *Cluster) Run(d sim.Time) error {
	target := c.now + d
	tasks := make([]func() error, len(c.cores))
	for c.now < target {
		next := c.now + step
		if next > target {
			next = target
		}
		for i, cs := range c.cores {
			i, cs := i, cs
			tasks[i] = func() error {
				if err := cs.host.RunUntil(next); err != nil {
					return fmt.Errorf("multicore: core %d: %w", i, err)
				}
				return nil
			}
		}
		if err := engine.RunParallel(c.cfg.Workers, tasks); err != nil {
			return err
		}
		c.now = next
		c.step++
		c.coordinate()
	}
	return nil
}

// desired computes the PAS target P-state for one core (Listing 1.1).
func (c *Cluster) desired(cs *coreState) core.Target {
	return core.ChooseFreq(cs.cpu, c.cf, cs.host.GlobalLoad(), core.CapacityMargin)
}

// coordinate runs one cluster-level PAS iteration.
func (c *Cluster) coordinate() {
	switch c.cfg.Domain {
	case PerCore:
		for _, cs := range c.cores {
			if c.step < cs.settleUntil {
				continue
			}
			c.apply(cs, c.desired(cs))
		}
	case PerSocket:
		// The socket serves its hungriest core. Settling is per-socket:
		// if any core recently transitioned, hold.
		for _, cs := range c.cores {
			if c.step < cs.settleUntil {
				return
			}
		}
		want := c.desired(c.cores[0])
		for _, cs := range c.cores[1:] {
			if t := c.desired(cs); t.Freq > want.Freq {
				want = t
			}
		}
		for _, cs := range c.cores {
			c.apply(cs, want)
		}
	}
}

// apply compensates one core's VMs' credits for t (equation 4), exactly
// as the single-core PAS does, and sets the core's frequency.
func (c *Cluster) apply(cs *coreState, t core.Target) {
	core.Compensate(cs.credit, cs.initCredit, t.Ratio, t.CF)
	if t.Freq != cs.cpu.Freq() {
		_ = cs.cpu.SetFreq(t.Freq, c.now) // a ladder frequency by construction
		cs.settleUntil = c.step + settleSteps
	}
}
