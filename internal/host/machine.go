package host

import (
	"fmt"
	"strings"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/vm"
)

// schedulerEntry is one scheduler of the registry: the canonical name
// every layer accepts (fleet, consolidation, the CLIs, the paper
// experiments), its aliases, and the constructor.
type schedulerEntry struct {
	name    string
	aliases []string
	build   func(cpu *cpufreq.CPU) (sched.Scheduler, error)
}

// schedulers is the single source of truth for which per-machine
// schedulers exist. The PAS family is built with the profile's
// per-P-state cf table (equation 4).
var schedulers = []schedulerEntry{
	{name: "pas", build: func(cpu *cpufreq.CPU) (sched.Scheduler, error) {
		return core.NewPAS(cpu, cpu.Profile().EfficiencyTable())
	}},
	{name: "credit", aliases: []string{"fix-credit"}, build: func(*cpufreq.CPU) (sched.Scheduler, error) {
		return sched.NewCredit(), nil
	}},
	{name: "credit2", build: func(*cpufreq.CPU) (sched.Scheduler, error) {
		return sched.NewCredit2(), nil
	}},
	{name: "sedf", build: func(*cpufreq.CPU) (sched.Scheduler, error) {
		return sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}), nil
	}},
	{name: "pas-credit2", build: func(cpu *cpufreq.CPU) (sched.Scheduler, error) {
		return core.NewPASCredit2(cpu, cpu.Profile().EfficiencyTable())
	}},
}

// loadBinder is the PAS family: schedulers that manage DVFS themselves
// from the host's Global load signal (Section 4.2).
type loadBinder interface{ BindLoadSource(core.LoadSource) }

// SchedulerNames renders the accepted scheduler names for usage strings
// and error messages, aliases in parentheses: "pas, credit
// (fix-credit), credit2, sedf, pas-credit2".
func SchedulerNames() string {
	var b strings.Builder
	for i, s := range schedulers {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.name)
		if len(s.aliases) > 0 {
			b.WriteString(" (" + strings.Join(s.aliases, ", ") + ")")
		}
	}
	return b.String()
}

// CanonicalScheduler resolves a scheduler name or alias to its
// canonical registry name. ok is false for unknown names.
func CanonicalScheduler(name string) (canonical string, ok bool) {
	if s := lookupScheduler(name); s != nil {
		return s.name, true
	}
	return "", false
}

func lookupScheduler(name string) *schedulerEntry {
	for i := range schedulers {
		s := &schedulers[i]
		if s.name == name {
			return s
		}
		for _, a := range s.aliases {
			if a == name {
				return s
			}
		}
	}
	return nil
}

// NewMachine builds one simulated machine the way every experiment of
// the paper runs one: a DVFS processor built from cfg.Profile, the named
// registry scheduler (empty selects "credit"; the PAS family is bound to
// the host's Global load signal), and, when dom0CreditPct > 0, a Dom0
// (VM 0) holding that credit at the highest priority (Section 5.3).
// cfg supplies everything else — governor, quantum, stepping, sampling,
// observation — and must leave CPU and Scheduler unset. A governor is
// rejected with a PAS-family scheduler, which manages DVFS itself.
func NewMachine(scheduler string, dom0CreditPct float64, cfg Config) (*Host, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("host: machine without a processor profile")
	}
	if cfg.CPU != nil || cfg.Scheduler != nil {
		return nil, fmt.Errorf("host: NewMachine builds the CPU and scheduler itself")
	}
	if scheduler == "" {
		scheduler = "credit"
	}
	entry := lookupScheduler(scheduler)
	if entry == nil {
		return nil, fmt.Errorf("host: unknown scheduler %q (%s)", scheduler, SchedulerNames())
	}
	cpu, err := cpufreq.NewCPU(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	s, err := entry.build(cpu)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	binder, pas := s.(loadBinder)
	if pas && cfg.Governor != nil {
		return nil, fmt.Errorf("host: the %s scheduler manages DVFS itself; run it without a governor", entry.name)
	}
	cfg.CPU, cfg.Scheduler = cpu, s
	h, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if pas {
		binder.BindLoadSource(h)
	}
	if dom0CreditPct > 0 {
		dom0, err := vm.New(0, vm.Config{Name: "Dom0", Credit: dom0CreditPct, Priority: 1})
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
		if err := h.AddVM(dom0); err != nil {
			return nil, err
		}
	}
	return h, nil
}
