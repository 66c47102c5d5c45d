package host_test

import (
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// newIntroHost builds a governor-less host on the default profile for the
// engine-introspection tests.
func newIntroHost(t *testing.T, s sched.Scheduler, vms ...*vm.VM) *host.Host {
	t.Helper()
	h, err := host.New(host.Config{Profile: cpufreq.Optiplex755(), Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vms {
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// hogVM builds a VM with an endless CPU hog.
func hogVM(t *testing.T, id vm.ID, credit float64) *vm.VM {
	t.Helper()
	v, err := vm.New(id, vm.Config{Credit: credit})
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(&workload.Hog{})
	return v
}

// TestEngineIntrospection verifies BatchedQuanta/SteppedQuanta and the
// BoundarySources breakdown across the three host occupancy regimes: an
// idle host batches whole action horizons, a single-runnable host batches
// with the scheduler refill shortening stretches, and a contended host
// batches through the pattern path under Credit and Credit2 alike — since
// Credit2 certifies its closed-form smallest-vruntime merge, no stock
// scheduler leaves a machine-declined-dominated path behind.
func TestEngineIntrospection(t *testing.T) {
	const horizon = 5 * sim.Second

	sum := func(m map[string]int64) int64 {
		var s int64
		for _, v := range m {
			s += v
		}
		return s
	}

	t.Run("idle", func(t *testing.T) {
		idle, err := vm.New(1, vm.Config{Credit: 20})
		if err != nil {
			t.Fatal(err)
		}
		h := newIntroHost(t, sched.NewCredit(), idle)
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		eng := h.Engine()
		// Only the quantum containing each 30 ms credit refill runs the
		// reference path; everything else batches.
		if eng.BatchedQuanta() == 0 || eng.SteppedQuanta() >= eng.BatchedQuanta()/10 {
			t.Fatalf("idle host: batched %d stepped %d", eng.BatchedQuanta(), eng.SteppedQuanta())
		}
		src := eng.BoundarySources()
		// The scheduler refill inside the 100 ms meter horizon makes the
		// machine shorten (and, one quantum before each refill, decline)
		// — but the engine-side action boundaries must show up too.
		if src["machine-shortened"] == 0 || src["action"] == 0 {
			t.Fatalf("idle host sources: %v", src)
		}
	})

	t.Run("single-runnable", func(t *testing.T) {
		h := newIntroHost(t, sched.NewCredit(), hogVM(t, 1, 20))
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		eng := h.Engine()
		if eng.BatchedQuanta() == 0 {
			t.Fatal("single-runnable host never batched")
		}
		src := eng.BoundarySources()
		// The 30 ms credit refill lies inside the 100 ms meter horizon,
		// so the machine shortens batches rather than declining them.
		if src["machine-shortened"] == 0 {
			t.Fatalf("want refill-shortened batches: %v", src)
		}
		if got := sum(src); got == 0 {
			t.Fatalf("no horizons attributed: %v", src)
		}
	})

	t.Run("contended-credit", func(t *testing.T) {
		h := newIntroHost(t, sched.NewCredit(),
			hogVM(t, 1, 20), hogVM(t, 2, 30), hogVM(t, 3, 40))
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		eng := h.Engine()
		if eng.BatchedQuanta() == 0 {
			t.Fatal("contended Credit host never batched")
		}
		if eng.BatchedQuanta() <= eng.SteppedQuanta() {
			t.Fatalf("contended Credit host mostly stepped: batched %d stepped %d",
				eng.BatchedQuanta(), eng.SteppedQuanta())
		}
	})

	t.Run("contended-credit2", func(t *testing.T) {
		h := newIntroHost(t, sched.NewCredit2(),
			hogVM(t, 1, 20), hogVM(t, 2, 30))
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		eng := h.Engine()
		// Credit2 certifies its pick pattern in closed form, so a
		// contended host batches whole meter horizons: batching dominates
		// and the breakdown names engine-side boundaries, not the
		// machine, as the limiter.
		if eng.BatchedQuanta() == 0 {
			t.Fatal("contended Credit2 host never batched")
		}
		if eng.BatchedQuanta() <= eng.SteppedQuanta() {
			t.Fatalf("contended Credit2 host mostly stepped: batched %d stepped %d",
				eng.BatchedQuanta(), eng.SteppedQuanta())
		}
		src := eng.BoundarySources()
		if src["machine-declined"] != 0 {
			t.Fatalf("hog-only Credit2 host declined %d horizons: %v", src["machine-declined"], src)
		}
		if src["action"] == 0 {
			t.Fatalf("want action-bounded (meter) horizons under Credit2: %v", src)
		}
	})

	t.Run("contended-sedf", func(t *testing.T) {
		// Three extratime hogs under the integer-microsecond SEDF: the
		// frozen EDF order folds between deadline boundaries (slice
		// phases, then extratime rotations), so batching dominates and
		// machine-declined stays at zero — the introspection face of the
		// exact-accounting certification.
		s := sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true})
		h := newIntroHost(t, s, hogVM(t, 1, 20), hogVM(t, 2, 30), hogVM(t, 3, 40))
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		eng := h.Engine()
		if eng.BatchedQuanta() == 0 {
			t.Fatal("contended SEDF host never batched")
		}
		if eng.BatchedQuanta() <= eng.SteppedQuanta() {
			t.Fatalf("contended SEDF host mostly stepped: batched %d stepped %d",
				eng.BatchedQuanta(), eng.SteppedQuanta())
		}
		src := eng.BoundarySources()
		if src["machine-declined"] != 0 {
			t.Fatalf("hog-only SEDF host declined %d horizons: %v", src["machine-declined"], src)
		}
	})

	t.Run("contended-credit2-draining", func(t *testing.T) {
		// A finite pi job among the hogs: while it drains, the host's
		// pending-work quota cuts patterns short of the offer, so the
		// certified-pattern expiry surfaces as machine-shortened horizons
		// — never as a machine-declined-dominated breakdown.
		pi, err := workload.NewPiApp(2e9)
		if err != nil {
			t.Fatal(err)
		}
		vpi, err := vm.New(3, vm.Config{Credit: 40})
		if err != nil {
			t.Fatal(err)
		}
		vpi.SetWorkload(pi)
		h := newIntroHost(t, sched.NewCredit2(),
			hogVM(t, 1, 20), hogVM(t, 2, 30), vpi)
		if err := h.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		src := h.Engine().BoundarySources()
		if src["machine-shortened"] == 0 {
			t.Fatalf("want quota-shortened pattern horizons under Credit2: %v", src)
		}
		if total := sum(src); src["machine-declined"]*5 > total {
			t.Fatalf("machine-declined dominates a contended Credit2 host: %v", src)
		}
		if h.Engine().BatchedQuanta() <= h.Engine().SteppedQuanta() {
			t.Fatalf("draining Credit2 host mostly stepped: batched %d stepped %d",
				h.Engine().BatchedQuanta(), h.Engine().SteppedQuanta())
		}
	})
}
