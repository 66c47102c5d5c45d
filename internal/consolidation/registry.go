package consolidation

import (
	"strings"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sched"
)

// loadBinder is the hook PAS-family schedulers expose to observe the
// host they run on; NewHost binds it after host construction.
type loadBinder interface{ BindLoadSource(core.LoadSource) }

// SchedulerSpec is one entry of the scheduler registry: the canonical
// name every layer (fleet, consolidation, pasfleet, pastrace) accepts,
// its aliases, a usage-string description, and the constructor.
type SchedulerSpec struct {
	// Name is the canonical scheduler name.
	Name string
	// Aliases are accepted alternative names ("fix-credit" for
	// "credit", the historical report name).
	Aliases []string
	// Description is the one-line usage-string description.
	Description string

	build func(cpu *cpufreq.CPU, profile *cpufreq.Profile) (sched.Scheduler, loadBinder, error)
}

// schedulerRegistry is the single source of truth for which per-machine
// schedulers exist: fleet.Config.Scheduler, HostOptions.Scheduler and
// every CLI usage string derive their accepted values from it.
var schedulerRegistry = []SchedulerSpec{
	{
		Name:        "pas",
		Description: "DVFS with cap-based credit compensation (the paper's scheduler)",
		build: func(cpu *cpufreq.CPU, profile *cpufreq.Profile) (sched.Scheduler, loadBinder, error) {
			pas, err := core.NewPAS(core.PASConfig{CPU: cpu, CF: profile.EfficiencyTable()})
			if err != nil {
				return nil, nil, err
			}
			return pas, pas, nil
		},
	},
	{
		Name:        "credit",
		Aliases:     []string{"fix-credit"},
		Description: "fix-credit baseline pinned at the maximum frequency",
		build: func(*cpufreq.CPU, *cpufreq.Profile) (sched.Scheduler, loadBinder, error) {
			return sched.NewCredit(sched.CreditConfig{}), nil, nil
		},
	},
	{
		Name:        "credit2",
		Description: "weight-proportional work-conserving, pinned at the maximum frequency",
		build: func(*cpufreq.CPU, *cpufreq.Profile) (sched.Scheduler, loadBinder, error) {
			return sched.NewCredit2(), nil, nil
		},
	},
	{
		Name:        "sedf",
		Description: "earliest-deadline-first reservations (slices derived from credits), pinned at the maximum frequency",
		build: func(*cpufreq.CPU, *cpufreq.Profile) (sched.Scheduler, loadBinder, error) {
			return sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}), nil, nil
		},
	},
	{
		Name:        "pas-credit2",
		Description: "the PAS DVFS policy enforcing shares through Credit2 weights instead of caps",
		build: func(cpu *cpufreq.CPU, profile *cpufreq.Profile) (sched.Scheduler, loadBinder, error) {
			pc2, err := core.NewPASCredit2(core.PASCredit2Config{CPU: cpu, CF: profile.EfficiencyTable()})
			if err != nil {
				return nil, nil, err
			}
			return pc2, pc2, nil
		},
	},
}

// Schedulers returns the registry entries (constructors omitted) in
// registration order, for building richer CLI help.
func Schedulers() []SchedulerSpec {
	out := make([]SchedulerSpec, len(schedulerRegistry))
	for i, s := range schedulerRegistry {
		out[i] = SchedulerSpec{Name: s.Name, Aliases: append([]string(nil), s.Aliases...), Description: s.Description}
	}
	return out
}

// SchedulerNames renders the accepted scheduler names for usage strings
// and error messages, aliases in parentheses: "pas, credit
// (fix-credit), credit2, sedf, pas-credit2".
func SchedulerNames() string {
	var b strings.Builder
	for i, s := range schedulerRegistry {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name)
		if len(s.Aliases) > 0 {
			b.WriteString(" (" + strings.Join(s.Aliases, ", ") + ")")
		}
	}
	return b.String()
}

// CanonicalScheduler resolves a scheduler name or alias to its
// canonical registry name. ok is false for unknown names.
func CanonicalScheduler(name string) (canonical string, ok bool) {
	for _, s := range schedulerRegistry {
		if s.Name == name {
			return s.Name, true
		}
		for _, a := range s.Aliases {
			if a == name {
				return s.Name, true
			}
		}
	}
	return "", false
}

// ValidScheduler reports whether name is a registered scheduler name or
// alias.
func ValidScheduler(name string) bool {
	_, ok := CanonicalScheduler(name)
	return ok
}

// lookupScheduler finds the registry entry for a name or alias.
func lookupScheduler(name string) (*SchedulerSpec, bool) {
	canonical, ok := CanonicalScheduler(name)
	if !ok {
		return nil, false
	}
	for i := range schedulerRegistry {
		if schedulerRegistry[i].Name == canonical {
			return &schedulerRegistry[i], true
		}
	}
	return nil, false
}
