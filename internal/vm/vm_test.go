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

// TestVMFactsMatchWorkload checks the facts a VM holds (Pending,
// NextChange, Runnable) after every operation that may move them,
// against two answers: the bound workload's own, which catches a
// missed refresh, and a twin workload driven directly by the same
// calls (every Tick included), which catches a refresh the VM skipped
// but should have made. Each case runs Ticks before, at and past the
// workload's promise, a partial and a draining Consume, a Pause/Resume
// with a Tick in between, and a swap to the next case's workload.
func TestVMFactsMatchWorkload(t *testing.T) {
	const cost = 50 * sim.WorkUnit
	webApp := func() workload.Workload {
		w, err := workload.NewWebApp(workload.WebAppConfig{
			RequestCost:   50,
			Phases:        workload.ThreePhase(20*sim.Millisecond, 2*sim.Second, 100),
			Deterministic: true,
			MaxBacklog:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	piApp := func() workload.Workload {
		p, err := workload.NewPiApp(400)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	kinds := []struct {
		name  string
		build func() workload.Workload
	}{
		{"idle", func() workload.Workload { return workload.Idle{} }},
		{"hog", func() workload.Workload { return &workload.Hog{} }},
		{"pi", piApp},
		{"webapp", webApp},
	}
	for i, k := range kinds {
		next := kinds[(i+1)%len(kinds)]
		t.Run(k.name+"-then-"+next.name, func(t *testing.T) {
			v, err := New(1, Config{Credit: 20})
			if err != nil {
				t.Fatal(err)
			}
			// bound is the workload the VM holds, twin its directly
			// driven copy.
			var bound, twin workload.Workload = workload.Idle{}, workload.Idle{}
			now := sim.Time(0)
			check := func(step string) {
				t.Helper()
				for _, w := range []struct {
					whose string
					wl    workload.Workload
				}{{"bound", bound}, {"twin", twin}} {
					if got, want := v.Pending(), w.wl.Pending(); got != want {
						t.Fatalf("%s: Pending = %v, %s workload says %v", step, got, w.whose, want)
					}
					if got, want := v.NextChange(), w.wl.NextChange(); got != want {
						t.Fatalf("%s: NextChange = %v, %s workload says %v", step, got, w.whose, want)
					}
					if got, want := v.Runnable(), !v.Paused() && w.wl.Pending() > 0; got != want {
						t.Fatalf("%s: Runnable = %v, want %v from the %s workload", step, got, want, w.whose)
					}
				}
			}
			bind := func(step string, build func() workload.Workload) {
				t.Helper()
				bound, twin = build(), build()
				v.SetWorkload(bound)
				check(step)
			}
			tick := func(step string, at sim.Time) {
				t.Helper()
				now = max(now, at) // a swapped-in promise may already be due
				twin.Tick(now)
				v.Tick(now)
				check(step)
			}
			// promise returns the twin's next change, or a second ahead
			// when it promises none.
			promise := func() sim.Time {
				if p := twin.NextChange(); p != sim.Never {
					return p
				}
				return now + sim.Second
			}
			consume := func(step string, limit sim.Work) {
				t.Helper()
				now += sim.Millisecond
				if got, want := v.Consume(limit, now), twin.Consume(limit, now); got != want {
					t.Fatalf("%s: Consume = %v, twin consumed %v", step, got, want)
				}
				check(step)
			}

			check("new")
			bind("bind", k.build)
			tick("tick before the promise", promise()-1)
			tick("tick at the promise", promise())
			tick("tick past the promise", promise()+25*sim.Millisecond)
			consume("partial consume", cost/2)
			v.Pause()
			check("pause")
			tick("tick while paused", promise()+5*sim.Millisecond)
			v.Resume()
			check("resume")
			consume("draining consume", 10*cost)
			bind("swap", next.build)
			tick("tick before the swapped promise", promise()-1)
			tick("tick at the swapped promise", promise())
			consume("consume after the swap", cost/2)
		})
	}
}
