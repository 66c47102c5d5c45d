package host_test

import (
	"strings"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
)

// TestSchedulerRegistry pins the registry surface every layer derives
// from: canonical names and aliases resolve, unknown names fail, and the
// usage string lists every name.
func TestSchedulerRegistry(t *testing.T) {
	for name, want := range map[string]string{
		"pas":         "pas",
		"credit":      "credit",
		"fix-credit":  "credit",
		"credit2":     "credit2",
		"sedf":        "sedf",
		"pas-credit2": "pas-credit2",
	} {
		got, ok := host.CanonicalScheduler(name)
		if !ok || got != want {
			t.Errorf("CanonicalScheduler(%q) = %q, %v; want %q, true", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "Credit", "pas2", "cfs"} {
		if _, ok := host.CanonicalScheduler(name); ok {
			t.Errorf("CanonicalScheduler(%q) accepted", name)
		}
	}
	if got, want := host.SchedulerNames(), "pas, credit (fix-credit), credit2, sedf, pas-credit2"; got != want {
		t.Errorf("SchedulerNames() = %q, want %q", got, want)
	}
}

// TestNewMachine: names and aliases resolve through the registry, empty
// selecting credit; the machine boots with a lone Dom0 holding the given
// credit at the highest priority; and only the PAS family, whose load
// source NewMachine binds to the host, takes an idle machine below its
// maximum frequency.
func TestNewMachine(t *testing.T) {
	prof := cpufreq.Optiplex755()
	for _, tt := range []struct {
		name, scheduler, want string
		dvfs                  bool
	}{
		{"default", "", "credit", false},
		{"credit", "credit", "credit", false},
		{"fix-credit", "fix-credit", "credit", false},
		{"pas", "pas", "pas", true},
		{"credit2", "credit2", "credit2", false},
		{"sedf", "sedf", "sedf", false},
		{"pas-credit2", "pas-credit2", "pas-credit2", true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			h, err := host.NewMachine(tt.scheduler, 10, host.Config{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Scheduler().Name(); got != tt.want {
				t.Errorf("scheduler %q, want %q", got, tt.want)
			}
			vms := h.VMs()
			if len(vms) != 1 || vms[0].ID() != 0 || vms[0].Name() != "Dom0" ||
				vms[0].Credit() != 10 || vms[0].Priority() != 1 {
				t.Errorf("machine boots with %v, want a lone Dom0 at 10%%, priority 1", vms)
			}
			if err := h.RunUntil(5 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if lowered := h.CPU().Freq() < prof.Max(); lowered != tt.dvfs {
				t.Errorf("idle machine at %v (max %v): lowered = %v, want %v",
					h.CPU().Freq(), prof.Max(), lowered, tt.dvfs)
			}
		})
	}
	t.Run("no dom0", func(t *testing.T) {
		h, err := host.NewMachine("credit", 0, host.Config{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(h.VMs()); n != 0 {
			t.Errorf("machine without Dom0 boots with %d VMs", n)
		}
	})
	t.Run("governor", func(t *testing.T) {
		h, err := host.NewMachine("credit", 0, host.Config{Profile: prof, Governor: &governor.Powersave{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RunUntil(sim.Second); err != nil {
			t.Fatal(err)
		}
		if h.CPU().Freq() != prof.Min() {
			t.Errorf("powersave machine at %v, want %v", h.CPU().Freq(), prof.Min())
		}
	})
	for _, tt := range []struct {
		name, scheduler, wantErr string
		cfg                      host.Config
	}{
		{"unknown", "cfs", "unknown scheduler", host.Config{Profile: prof}},
		{"no profile", "credit", "profile", host.Config{}},
		{"cpu set", "credit", "itself", host.Config{Profile: prof, CPU: mustCPU(t, prof)}},
		{"scheduler set", "credit", "itself", host.Config{Profile: prof, Scheduler: sched.NewCredit()}},
		{"pas with governor", "pas", "without a governor", host.Config{Profile: prof, Governor: &governor.Performance{}}},
		{"pas-credit2 with governor", "pas-credit2", "without a governor", host.Config{Profile: prof, Governor: &governor.Performance{}}},
		{"bad quantum", "credit", "quantum", host.Config{Profile: prof, Quantum: -1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := host.NewMachine(tt.scheduler, 10, tt.cfg)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("NewMachine = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}

func mustCPU(t *testing.T, prof *cpufreq.Profile) *cpufreq.CPU {
	t.Helper()
	cpu, err := cpufreq.NewCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}
