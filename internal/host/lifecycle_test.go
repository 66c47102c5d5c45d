package host_test

import (
	"math"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

func TestPauseResumeViaScheduledEvents(t *testing.T) {
	// Failure injection: pause a VM mid-run through the event queue (the
	// way an operator or a failure model would) and verify it loses the
	// CPU only while paused.
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	v := newVM(t, 1, vm.Config{Name: "V", Credit: 50}, &workload.Hog{})
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	h.Schedule(2*sim.Second, func(sim.Time) { v.Pause() })
	h.Schedule(4*sim.Second, func(sim.Time) { v.Resume() })
	if err := h.Run(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Samples are labeled by the END of their 1s window: the sample at
	// t=3 covers [2,3).
	s := h.Recorder().Series("V_global_pct")
	running, _ := s.MeanBetween(1, 3)
	paused, _ := s.MeanBetween(3, 5)
	resumed, _ := s.MeanBetween(5, 7)
	if math.Abs(running-50) > 2 {
		t.Errorf("share before pause = %.1f%%, want ~50%%", running)
	}
	if paused > 1 {
		t.Errorf("share while paused = %.1f%%, want ~0%%", paused)
	}
	if math.Abs(resumed-50) > 2 {
		t.Errorf("share after resume = %.1f%%, want ~50%%", resumed)
	}
}

func TestRemoveVMMidRun(t *testing.T) {
	h := newHost(t, host.Config{
		Profile:   cpufreq.Optiplex755(),
		Scheduler: sched.NewCredit(),
	})
	v1 := newVM(t, 1, vm.Config{Name: "A", Credit: 40}, &workload.Hog{})
	v2 := newVM(t, 2, vm.Config{Name: "B", Credit: 0}, &workload.Hog{}) // uncapped slack eater
	if err := h.AddVM(v1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddVM(v2); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveVM(1); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveVM(1); err == nil {
		t.Error("double RemoveVM succeeded")
	}
	if err := h.RemoveVM(9); err == nil {
		t.Error("RemoveVM(unknown) succeeded")
	}
	before := v1.CPUTime()
	if err := h.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if v1.CPUTime() != before {
		t.Error("removed VM kept accumulating CPU time")
	}
	// The slack eater now owns the machine.
	got, _ := h.Recorder().Series("B_global_pct").MeanBetween(2.5, 4)
	if got < 98 {
		t.Errorf("survivor share = %.1f%%, want ~100%%", got)
	}
	if len(h.VMs()) != 1 {
		t.Errorf("VMs() = %d entries, want 1", len(h.VMs()))
	}
}

func TestPASAdaptsAfterVMRemoval(t *testing.T) {
	// When a thrashing VM disappears, PAS sees the absolute load drop and
	// scales the frequency down; the remaining VM keeps its compensated
	// absolute capacity.
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	pas, err := core.NewPAS(cpu, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{CPU: cpu, Scheduler: pas})
	if err != nil {
		t.Fatal(err)
	}
	pas.BindLoadSource(h)
	v20 := newVM(t, 1, vm.Config{Name: "V20", Credit: 20}, &workload.Hog{})
	v70 := newVM(t, 2, vm.Config{Name: "V70", Credit: 70}, &workload.Hog{})
	if err := h.AddVM(v20); err != nil {
		t.Fatal(err)
	}
	if err := h.AddVM(v70); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 2667 {
		t.Fatalf("frequency with both thrashing = %v, want 2667", got)
	}
	if err := h.RemoveVM(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 1600 {
		t.Errorf("frequency after removal = %v, want 1600", got)
	}
	abs, _ := h.Recorder().Series("V20_absolute_pct").MeanBetween(30, 40)
	if math.Abs(abs-20) > 1 {
		t.Errorf("V20 absolute after removal = %.1f%%, want 20%%", abs)
	}
}
