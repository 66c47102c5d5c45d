package host_test

import (
	"fmt"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// resizeHorizon crosses many refill periods and batched stretches while
// staying inside the tier-1 time budget.
const resizeHorizon = 6 * sim.Second

// weightSetter is the resize surface of weight-based schedulers.
type weightSetter interface {
	SetWeight(id vm.ID, w int64) error
}

// buildResizeHost builds one registry scheduler under four
// always-runnable capped hogs — so every simulated instant sits inside
// a contended stretch the batched path folds into certified patterns —
// and schedules cap/weight resizes at quantum-unaligned instants inside
// those stretches. This is exactly the path a fleet autoscaler
// exercises; batched and reference sides must stay bit-exact through
// every resize.
func buildResizeHost(t *testing.T, schedName string, reference bool) *host.Host {
	t.Helper()
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	var s sched.Scheduler
	var pas *core.PAS
	switch schedName {
	case "credit":
		s = sched.NewCredit()
	case "credit2":
		s = sched.NewCredit2()
	case "sedf":
		s = sched.NewSEDF(sched.SEDFConfig{})
	case "pas":
		pas, err = core.NewPAS(cpu, nil)
		if err != nil {
			t.Fatal(err)
		}
		s = pas
	case "pas-credit2":
		p2, err := core.NewPASCredit2(cpu, nil)
		if err != nil {
			t.Fatal(err)
		}
		s = p2
	default:
		t.Fatalf("unknown scheduler %q", schedName)
	}
	h, err := host.New(host.Config{CPU: cpu, Scheduler: s, Reference: reference})
	if err != nil {
		t.Fatal(err)
	}
	if pas != nil {
		pas.BindLoadSource(h)
	}
	for i := 1; i <= 4; i++ {
		v, err := vm.New(vm.ID(i), vm.Config{
			Name:   fmt.Sprintf("V%d", i),
			Credit: float64(10 + 5*i),
			Weight: 1 + 7*i,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.SetWorkload(&workload.Hog{})
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
	}

	cs, _ := s.(sched.CapSetter)
	ws, _ := s.(weightSetter)
	type resize struct {
		at  sim.Time
		id  vm.ID
		pct float64 // new cap (CapSetter schedulers)
		w   int64   // new weight (weight schedulers)
	}
	// Quantum-unaligned instants, swings in both directions, including a
	// cap collapse and a later restore so tier membership flips mid-run.
	resizes := []resize{
		{at: 411*sim.Millisecond + 137, id: 1, pct: 80, w: 64},
		{at: 1229*sim.Millisecond + 411, id: 2, pct: 5, w: 1},
		{at: 2047*sim.Millisecond + 913, id: 3, pct: 42, w: 512},
		{at: 3511*sim.Millisecond + 57, id: 2, pct: 55, w: 4096},
		{at: 4801*sim.Millisecond + 733, id: 1, pct: 12, w: 9},
	}
	if schedName == "credit" {
		// Uncap V4 entirely mid-run, then re-cap it: membership moves
		// between the budgeted and uncapped round-robin tiers.
		resizes = append(resizes,
			resize{at: 1777*sim.Millisecond + 333, id: 4, pct: 0},
			resize{at: 3900*sim.Millisecond + 271, id: 4, pct: 25, w: 1},
		)
	}
	for _, r := range resizes {
		r := r
		h.Schedule(r.at, func(sim.Time) {
			var err error
			switch {
			case cs != nil:
				err = cs.SetCap(r.id, r.pct)
			case ws != nil:
				err = ws.SetWeight(r.id, r.w)
			default:
				t.Errorf("%s: no resize surface", schedName)
				return
			}
			if err != nil {
				t.Errorf("%s: resize VM %d at %v: %v", schedName, r.id, r.at, err)
			}
		})
	}
	return h
}

// TestResizeDuringBatchedPattern resizes VMs inside contended batched
// stretches for every registry scheduler and asserts the batched
// host stays bit-exact with the reference host — the regression guard
// for the autoscaler's cap/weight actions landing mid-pattern.
func TestResizeDuringBatchedPattern(t *testing.T) {
	for _, name := range []string{"credit", "credit2", "sedf", "pas", "pas-credit2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			batched := buildResizeHost(t, name, false)
			reference := buildResizeHost(t, name, true)
			if err := batched.RunUntil(resizeHorizon); err != nil {
				t.Fatal(err)
			}
			if err := reference.RunUntil(resizeHorizon); err != nil {
				t.Fatal(err)
			}
			// Four always-runnable hogs leave no idle or single-VM
			// stretches: every batched quantum went through a certified
			// contended pattern, so a zero count would make the test
			// vacuous.
			if batched.Engine().BatchedQuanta() == 0 {
				t.Fatalf("%s: pattern batching never engaged", name)
			}
			assertHostTraceEquivalence(t, batched, reference)
		})
	}
}
