package host_test

import (
	"math"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

func newVM(t *testing.T, id vm.ID, cfg vm.Config, wl workload.Workload) *vm.VM {
	t.Helper()
	v, err := vm.New(id, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	v.SetWorkload(wl)
	return v
}

func newHost(t *testing.T, cfg host.Config) *host.Host {
	t.Helper()
	h, err := host.New(cfg)
	if err != nil {
		t.Fatalf("host.New: %v", err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	prof := cpufreq.Optiplex755()
	s := sched.NewCredit()
	tests := []struct {
		name string
		cfg  host.Config
	}{
		{"no scheduler", host.Config{Profile: prof}},
		{"no cpu or profile", host.Config{Scheduler: s}},
		{"negative quantum", host.Config{Profile: prof, Scheduler: s, Quantum: -1}},
		{"sample below quantum", host.Config{Profile: prof, Scheduler: s,
			Quantum: sim.Millisecond, SampleInterval: sim.Microsecond}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := host.New(tt.cfg); err == nil {
				t.Error("host.New accepted invalid config")
			}
		})
	}
}

func TestIdleHost(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	if err := h.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if h.Now() != 5*sim.Second {
		t.Errorf("Now = %v, want 5s", h.Now())
	}
	if h.GlobalLoad() != 0 {
		t.Errorf("GlobalLoad = %v, want 0", h.GlobalLoad())
	}
	if h.CumulativeBusy() != 0 {
		t.Errorf("CumulativeBusy = %v, want 0", h.CumulativeBusy())
	}
	// The idle host still consumes energy (static power).
	if h.Energy().Joules() <= 0 {
		t.Error("idle host consumed no energy")
	}
	if got := h.Recorder().Series("global_load_pct").Len(); got != 5 {
		t.Errorf("recorded %d samples, want 5", got)
	}
}

func TestBusyVMRespectsCapAndRecords(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	v20 := newVM(t, 1, vm.Config{Name: "V20", Credit: 20}, &workload.Hog{})
	if err := h.AddVM(v20); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Fix-credit: a thrashing 20%-credit VM gets 20% of the CPU.
	got, _ := h.Recorder().Series("V20_global_pct").MeanBetween(2, 10)
	if math.Abs(got-20) > 1 {
		t.Errorf("V20 global load = %.2f%%, want ~20%%", got)
	}
	// At maximum frequency, absolute load equals global load.
	abs, _ := h.Recorder().Series("V20_absolute_pct").MeanBetween(2, 10)
	if math.Abs(abs-got) > 0.5 {
		t.Errorf("absolute %.2f%% != global %.2f%% at fmax", abs, got)
	}
	// VM load: the VM uses 100% of its credit.
	vl, _ := h.Recorder().Series("V20_vmload_pct").MeanBetween(2, 10)
	if math.Abs(vl-100) > 5 {
		t.Errorf("V20 vmload = %.2f%%, want ~100%%", vl)
	}
	if h.VMBusy(1) == 0 {
		t.Error("VMBusy(1) = 0")
	}
}

func TestHostGlobalLoadSignal(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	v50 := newVM(t, 1, vm.Config{Name: "V50", Credit: 50}, &workload.Hog{})
	if err := h.AddVM(v50); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.GlobalLoad(); math.Abs(got-0.5) > 0.02 {
		t.Errorf("GlobalLoad = %v, want ~0.5", got)
	}
}

func TestAddVMErrors(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	if err := h.AddVM(nil); err == nil {
		t.Error("AddVM(nil) succeeded")
	}
	v := newVM(t, 1, vm.Config{Credit: 20}, workload.Idle{})
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if err := h.AddVM(v); err == nil {
		t.Error("duplicate AddVM succeeded")
	}
	if h.VM(1) != v {
		t.Error("VM(1) lookup failed")
	}
	if h.VM(9) != nil {
		t.Error("VM(9) returned a VM")
	}
	if len(h.VMs()) != 1 {
		t.Errorf("VMs() returned %d, want 1", len(h.VMs()))
	}
}

func TestScheduledEventsFire(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	v := newVM(t, 1, vm.Config{Name: "V", Credit: 50}, workload.Idle{})
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	// Swap in a hog mid-run, the host-level phase-change mechanism.
	h.Schedule(2*sim.Second, func(sim.Time) { v.SetWorkload(&workload.Hog{}) })
	if err := h.Run(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	before, _ := h.Recorder().Series("V_global_pct").MeanBetween(0, 2)
	after, _ := h.Recorder().Series("V_global_pct").MeanBetween(2.5, 4)
	if before > 1 {
		t.Errorf("load before event = %.2f%%, want ~0", before)
	}
	if math.Abs(after-50) > 2 {
		t.Errorf("load after event = %.2f%%, want ~50%%", after)
	}
}

type countingAgent struct {
	interval sim.Time
	runs     int
}

func (a *countingAgent) Interval() sim.Time { return a.interval }
func (a *countingAgent) Run(sim.Time)       { a.runs++ }

func TestAgentsRunAtInterval(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	a := &countingAgent{interval: 500 * sim.Millisecond}
	if err := h.AddAgent(a); err != nil {
		t.Fatal(err)
	}
	if err := h.AddAgent(nil); err == nil {
		t.Error("AddAgent(nil) succeeded")
	}
	if err := h.AddAgent(&countingAgent{interval: 0}); err == nil {
		t.Error("AddAgent(zero interval) succeeded")
	}
	if err := h.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if a.runs != 6 {
		t.Errorf("agent ran %d times, want 6", a.runs)
	}
}

func TestGovernorDrivesFrequency(t *testing.T) {
	var g governor.Powersave
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
		Governor:  &g,
	})
	if err := h.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 1600 {
		t.Errorf("frequency under powersave = %v, want 1600", got)
	}
}

func TestFrequencyAffectsExecutionTime(t *testing.T) {
	// Equation (2) end to end: the same pi job takes 1/ratio longer at the
	// minimum frequency (Optiplex: cf = 1).
	runAt := func(f cpufreq.Freq) sim.Time {
		prof := cpufreq.Optiplex755()
		cpu, err := cpufreq.NewCPU(prof)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.SetFreq(f, 0); err != nil {
			t.Fatal(err)
		}
		h := newHost(t, host.Config{
			CPU:       cpu,
			Scheduler: sched.NewCredit(),
		})
		pi, err := workload.NewPiApp(workload.PiWorkFor(2667e6, 100, 5))
		if err != nil {
			t.Fatal(err)
		}
		v := newVM(t, 1, vm.Config{Name: "V", Credit: 100}, pi)
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
		if err := h.Run(30 * sim.Second); err != nil {
			t.Fatal(err)
		}
		at, ok := pi.CompletionTime()
		if !ok {
			t.Fatal("pi app did not finish")
		}
		return at
	}
	tMax := runAt(2667)
	tMin := runAt(1600)
	wantRatio := 2667.0 / 1600.0
	gotRatio := float64(tMin) / float64(tMax)
	if math.Abs(gotRatio-wantRatio) > 0.02 {
		t.Errorf("exec time ratio = %.4f, want %.4f", gotRatio, wantRatio)
	}
}

func TestEnergyScalesWithFrequency(t *testing.T) {
	run := func(g governor.Governor) float64 {
		h := newHost(t, host.Config{
			Profile:   cpufreq.Optiplex755(),
			Scheduler: sched.NewCredit(),
			Governor:  g,
		})
		v := newVM(t, 1, vm.Config{Name: "V", Credit: 20}, &workload.Hog{})
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
		if err := h.Run(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return h.Energy().Joules()
	}
	jMax := run(&governor.Performance{})
	jMin := run(&governor.Powersave{})
	if jMin >= jMax {
		t.Errorf("powersave energy %.1fJ not below performance %.1fJ", jMin, jMax)
	}
}
