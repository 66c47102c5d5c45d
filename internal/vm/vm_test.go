package vm

import (
	"strings"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{Name: "V20", Credit: 20}, false},
		{"zero credit is null-credit", Config{Credit: 0}, false},
		{"full credit", Config{Credit: 100}, false},
		{"negative credit", Config{Credit: -1}, true},
		{"credit above 100", Config{Credit: 101}, true},
		{"negative weight", Config{Credit: 20, Weight: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	v, err := New(3, Config{Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "vm3" {
		t.Errorf("default name = %q, want vm3", v.Name())
	}
	if v.Runnable() {
		t.Error("new VM with no workload is runnable")
	}
	if _, err := New(1, Config{Credit: -5}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestWorkloadBindingAndAccounting(t *testing.T) {
	v, err := New(1, Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := workload.NewPiApp(1000)
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(pi)
	if !v.Runnable() {
		t.Fatal("VM with pending pi work not runnable")
	}
	got := v.Consume(400, sim.Second)
	if got != 400 {
		t.Errorf("Consume = %v, want 400", got)
	}
	v.AddCPUTime(10 * sim.Millisecond)
	v.AddCPUTime(-5) // ignored
	if v.CPUTime() != 10*sim.Millisecond {
		t.Errorf("CPUTime = %v, want 10ms", v.CPUTime())
	}
	if v.WorkDone() != 400 {
		t.Errorf("WorkDone = %v, want 400", v.WorkDone())
	}
	v.SetWorkload(nil)
	if v.Runnable() {
		t.Error("VM with nil workload is runnable")
	}
}

func TestTickForwardsToWorkload(t *testing.T) {
	v, err := New(1, Config{Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewWebApp(workload.WebAppConfig{
		Deterministic: true,
		Phases:        workload.ThreePhase(0, sim.Second, 100),
		MaxBacklog:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(w)
	v.Tick(sim.Second)
	if !v.Runnable() {
		t.Error("VM not runnable after arrivals")
	}
}

func TestStringFormat(t *testing.T) {
	v, err := New(1, Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	s := v.String()
	if !strings.Contains(s, "V20") || !strings.Contains(s, "20%") {
		t.Errorf("String() = %q, want name and credit", s)
	}
}
