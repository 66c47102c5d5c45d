package multicore

import (
	"math"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	prof := cpufreq.Optiplex755()
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no profile", Config{Cores: 2}},
		{"zero cores", Config{Profile: prof}},
		{"bad domain", Config{Profile: prof, Cores: 1, Domain: DVFSDomain(9)}},
		{"negative workers", Config{Profile: prof, Cores: 1, Workers: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestDomainString(t *testing.T) {
	if PerCore.String() != "per-core" || PerSocket.String() != "per-socket" {
		t.Error("domain strings wrong")
	}
	if DVFSDomain(0).String() != "unknown" {
		t.Error("unknown domain string wrong")
	}
}

// buildAsymmetric builds a 2-core cluster: core 0 hosts a thrashing
// 20%-credit VM, core 1 hosts a thrashing 70%-credit VM.
func buildAsymmetric(t *testing.T, domain DVFSDomain) *Cluster {
	t.Helper()
	c, err := New(Config{Profile: cpufreq.Optiplex755(), Cores: 2, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v20.SetWorkload(&workload.Hog{})
	if err := c.AddVM(0, v20); err != nil {
		t.Fatal(err)
	}
	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		t.Fatal(err)
	}
	v70.SetWorkload(&workload.Hog{})
	if err := c.AddVM(1, v70); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPerCoreDVFSSelectsIndependentFrequencies(t *testing.T) {
	c := buildAsymmetric(t, PerCore)
	if err := c.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	f0, err := c.CoreFreq(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := c.CoreFreq(1)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 (20% absolute demand) runs at the minimum; core 1 (70%
	// absolute) needs 2133 MHz (capacity 80%).
	if f0 != 1600 {
		t.Errorf("core 0 frequency = %v, want 1600", f0)
	}
	if f1 != 2133 {
		t.Errorf("core 1 frequency = %v, want 2133", f1)
	}
}

func TestPerSocketDVFSSharesTheHungriestFrequency(t *testing.T) {
	c := buildAsymmetric(t, PerSocket)
	if err := c.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	f0, err := c.CoreFreq(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := c.CoreFreq(1)
	if err != nil {
		t.Fatal(err)
	}
	if f0 != f1 {
		t.Fatalf("per-socket cores diverged: %v vs %v", f0, f1)
	}
	if f0 != 2133 {
		t.Errorf("socket frequency = %v, want 2133 (the hungriest core's need)", f0)
	}
}

func TestCreditsCompensatedOnEveryCore(t *testing.T) {
	// Under both policies each VM must receive exactly its absolute
	// credit — the PAS invariant carried to multi-core.
	for _, domain := range []DVFSDomain{PerCore, PerSocket} {
		domain := domain
		t.Run(domain.String(), func(t *testing.T) {
			c := buildAsymmetric(t, domain)
			if err := c.Run(30 * sim.Second); err != nil {
				t.Fatal(err)
			}
			h0, err := c.CoreHost(0)
			if err != nil {
				t.Fatal(err)
			}
			abs20, _ := h0.Recorder().Series("V20_absolute_pct").MeanBetween(10, 30)
			if math.Abs(abs20-20) > 1 {
				t.Errorf("V20 absolute load = %.2f%%, want ~20%%", abs20)
			}
			h1, err := c.CoreHost(1)
			if err != nil {
				t.Fatal(err)
			}
			abs70, _ := h1.Recorder().Series("V70_absolute_pct").MeanBetween(10, 30)
			if math.Abs(abs70-70) > 1.5 {
				t.Errorf("V70 absolute load = %.2f%%, want ~70%%", abs70)
			}
		})
	}
}

func TestPerCoreDVFSBeatsPerSocketOnEnergy(t *testing.T) {
	// The extension's headline: with asymmetric per-core loads, per-core
	// DVFS strictly dominates per-socket DVFS on energy.
	perCore := buildAsymmetric(t, PerCore)
	if err := perCore.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	perSocket := buildAsymmetric(t, PerSocket)
	if err := perSocket.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	jc, js := perCore.TotalJoules(), perSocket.TotalJoules()
	if jc >= js {
		t.Errorf("per-core energy %.1fJ not below per-socket %.1fJ", jc, js)
	}
}

// TestSettleHoldsCoreFrequency pins the coordinator's settle hold: once a
// core's frequency changes, the coordinator leaves that core alone for
// settleSteps coordination steps, however its load moves, and acts on
// the first step after.
func TestSettleHoldsCoreFrequency(t *testing.T) {
	if hold := sim.Time(settleSteps) * step; hold != core.SettleTime {
		t.Errorf("settle hold %v, want core.SettleTime (%v)", hold, core.SettleTime)
	}
	c, err := New(Config{Profile: cpufreq.Optiplex755(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := c.cores[0]
	// An idle core drops from 2667 MHz to the minimum at the first step.
	if err := c.Run(step); err != nil {
		t.Fatal(err)
	}
	if f, _, ok := cs.cpu.PendingSwitch(); !ok || f != 1600 {
		t.Fatalf("idle core: pending switch to %v (%v), want 1600", f, ok)
	}
	switched := c.step
	// Saturate it: a null-credit Hog takes every cycle.
	hog, err := vm.New(1, vm.Config{Name: "Hog", Credit: 0})
	if err != nil {
		t.Fatal(err)
	}
	hog.SetWorkload(&workload.Hog{})
	if err := c.AddVM(0, hog); err != nil {
		t.Fatal(err)
	}
	for c.step < switched+settleSteps-1 {
		if err := c.Run(step); err != nil {
			t.Fatal(err)
		}
		if _, _, pending := cs.cpu.PendingSwitch(); pending || cs.cpu.Freq() != 1600 {
			t.Fatalf("step %d: frequency %v (pending %v) moved inside the settle hold",
				c.step, cs.cpu.Freq(), pending)
		}
	}
	// The hold alone keeps it there: the load already asks for more.
	if want := c.desired(cs).Freq; want <= 1600 {
		t.Fatalf("step %d: saturated core wants %v, not above 1600", c.step, want)
	}
	if err := c.Run(step); err != nil {
		t.Fatal(err)
	}
	if f, _, ok := cs.cpu.PendingSwitch(); !ok || f <= 1600 {
		t.Errorf("step %d, hold over: pending switch to %v (%v), want a raise",
			c.step, f, ok)
	}
}

func TestAddVMAndAccessorErrors(t *testing.T) {
	c, err := New(Config{Profile: cpufreq.Optiplex755(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(1, vm.Config{Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(5, v); err == nil {
		t.Error("AddVM(out of range) succeeded")
	}
	if err := c.AddVM(-1, v); err == nil {
		t.Error("AddVM(-1) succeeded")
	}
	if _, err := c.CoreHost(9); err == nil {
		t.Error("CoreHost(9) succeeded")
	}
	if _, err := c.CoreFreq(9); err == nil {
		t.Error("CoreFreq(9) succeeded")
	}
	if c.Cores() != 1 {
		t.Errorf("Cores() = %d", c.Cores())
	}
}

func TestClusterClockAdvances(t *testing.T) {
	c, err := New(Config{Profile: cpufreq.Optiplex755(), Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 1500*sim.Millisecond {
		t.Errorf("Now = %v, want 1.5s", c.Now())
	}
	// Both cores advanced in lockstep.
	for i := 0; i < 2; i++ {
		h, err := c.CoreHost(i)
		if err != nil {
			t.Fatal(err)
		}
		if h.Now() != 1500*sim.Millisecond {
			t.Errorf("core %d clock = %v, want 1.5s", i, h.Now())
		}
	}
}
