package pasched

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/vm"
)

// System is the high-level entry point: a configured simulated host with
// convenience methods for adding VMs and running the simulation.
type System struct {
	host *host.Host
	next vm.ID
}

// Option configures NewSystem.
type Option func(*systemConfig) error

// systemConfig is what the options record: a scheduler registry name,
// the host configuration, and whether to add the paper's Dom0.
type systemConfig struct {
	scheduler string
	host      host.Config
	dom0      bool
}

// WithProfile selects the processor architecture. Default: Optiplex755.
func WithProfile(p *Profile) Option {
	return func(c *systemConfig) error {
		if p == nil {
			return fmt.Errorf("pasched: nil profile")
		}
		c.host.Profile = p
		return nil
	}
}

// withScheduler selects a scheduler by its registry name; the scheduler
// options are mutually exclusive.
func withScheduler(name string) Option {
	return func(c *systemConfig) error {
		if c.scheduler != "" && c.scheduler != name {
			return fmt.Errorf("pasched: scheduler already configured")
		}
		c.scheduler = name
		return nil
	}
}

// WithCreditScheduler selects the Xen Credit scheduler (fix credit): each
// VM's credit is guaranteed and hard-capped.
func WithCreditScheduler() Option { return withScheduler("credit") }

// WithSEDFScheduler selects the Xen SEDF scheduler with extratime
// (variable credit): unused slices are donated to busy VMs.
func WithSEDFScheduler() Option { return withScheduler("sedf") }

// WithPAS selects the paper's Power-Aware Scheduler: Credit scheduling
// with per-tick DVFS management and frequency-compensated credits.
func WithPAS() Option { return withScheduler("pas") }

// WithPASCredit2 selects the Credit2-based PAS variant: the same
// per-tick DVFS policy as PAS, but enforcement through
// weight-proportional work-conserving Credit2 scheduling (weights set
// from the contracted credits when a VM is added or re-contracted)
// instead of hard compensated caps.
func WithPASCredit2() Option { return withScheduler("pas-credit2") }

// WithGovernor installs a DVFS governor. Rejected with WithPAS and
// WithPASCredit2, which manage the frequency themselves.
func WithGovernor(g Governor) Option {
	return func(c *systemConfig) error {
		if g == nil {
			return fmt.Errorf("pasched: nil governor")
		}
		c.host.Governor = g
		return nil
	}
}

// WithPerformanceGovernor pins the frequency at the maximum.
func WithPerformanceGovernor() Option {
	return func(c *systemConfig) error {
		c.host.Governor = &governor.Performance{}
		return nil
	}
}

// WithOndemandGovernor installs the paper's smoothed ondemand governor.
func WithOndemandGovernor() Option {
	return func(c *systemConfig) error {
		c.host.Governor = governor.NewPaperOndemand(nil)
		return nil
	}
}

// WithQuantum overrides the scheduling quantum (default 1 ms).
func WithQuantum(q Time) Option {
	return func(c *systemConfig) error {
		if q <= 0 {
			return fmt.Errorf("pasched: quantum must be positive, got %v", q)
		}
		c.host.Quantum = q
		return nil
	}
}

// WithDom0 adds a Dom0 VM (10% credit, highest priority) as in the
// paper's evaluation setup (Section 5.3).
func WithDom0() Option {
	return func(c *systemConfig) error {
		c.dom0 = true
		return nil
	}
}

// WithReferenceStepping disables the simulation engine's event-horizon
// batching and advances the host strictly one scheduling quantum at a
// time. Batched and reference runs produce the same traces (the host's
// equivalence tests enforce it); the switch exists for debugging and for
// validating new schedulers, governors or workloads against the
// reference semantics.
func WithReferenceStepping() Option {
	return func(c *systemConfig) error {
		c.host.Reference = true
		return nil
	}
}

// NewSystem builds a simulated virtualized host through the machine
// builder (host.NewMachine). With no options it is an Optiplex 755 under
// the PAS scheduler.
func NewSystem(opts ...Option) (*System, error) {
	var cfg systemConfig
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.host.Profile == nil {
		cfg.host.Profile = cpufreq.Optiplex755()
	}
	if cfg.scheduler == "" {
		cfg.scheduler = "pas"
	}
	dom0 := 0.0
	if cfg.dom0 {
		dom0 = 10
	}
	h, err := host.NewMachine(cfg.scheduler, dom0, cfg.host)
	if err != nil {
		return nil, err
	}
	return &System{host: h, next: 1}, nil
}

// AddVM creates and registers a VM with the given name and credit
// percentage (its SLA at maximum frequency). A zero credit creates a
// "null credit" VM with no guarantee and no cap.
func (s *System) AddVM(name string, creditPct float64) (*VM, error) {
	v, err := vm.New(s.next, vm.Config{Name: name, Credit: creditPct})
	if err != nil {
		return nil, err
	}
	if err := s.host.AddVM(v); err != nil {
		return nil, err
	}
	s.next++
	return v, nil
}

// Run advances the simulation by d.
func (s *System) Run(d Time) error { return s.host.Run(d) }

// RunUntil advances the simulation to absolute time t.
func (s *System) RunUntil(t Time) error { return s.host.RunUntil(t) }

// Now returns the current simulated time.
func (s *System) Now() Time { return s.host.Now() }

// Host exposes the underlying host for advanced use (events, agents,
// custom metrics).
func (s *System) Host() *Host { return s.host }

// CPU returns the simulated processor.
func (s *System) CPU() *CPU { return s.host.CPU() }

// PAS returns the PAS scheduler, or nil when another scheduler was
// selected.
func (s *System) PAS() *PAS {
	p, _ := s.host.Scheduler().(*core.PAS)
	return p
}

// PASCredit2 returns the Credit2-based PAS scheduler, or nil when
// another scheduler was selected.
func (s *System) PASCredit2() *PASCredit2 {
	p, _ := s.host.Scheduler().(*core.PASCredit2)
	return p
}

// Recorder returns the recorded time series (loads, frequency, caps).
func (s *System) Recorder() *Recorder { return s.host.Recorder() }

// Energy returns the host's energy meter.
func (s *System) Energy() *EnergyMeter { return s.host.Energy() }

// GlobalLoad returns the averaged recent processor utilization in [0,1].
func (s *System) GlobalLoad() float64 { return s.host.GlobalLoad() }
