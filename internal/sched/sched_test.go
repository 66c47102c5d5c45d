package sched

import (
	"math"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

const quantum = sim.Millisecond

// mustVM builds a VM or fails the test.
func mustVM(t *testing.T, id vm.ID, cfg vm.Config) *vm.VM {
	t.Helper()
	v, err := vm.New(id, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	return v
}

// busyVM returns a VM with an infinite CPU hog attached.
func busyVM(t *testing.T, id vm.ID, cfg vm.Config) *vm.VM {
	t.Helper()
	v := mustVM(t, id, cfg)
	v.SetWorkload(&workload.Hog{})
	return v
}

// runQuanta drives the scheduler for total simulated time and returns the
// busy time granted to each VM.
func runQuanta(s Scheduler, total sim.Time) map[vm.ID]sim.Time {
	busy := make(map[vm.ID]sim.Time)
	for now := sim.Time(0); now < total; now += quantum {
		v := s.Pick(now)
		end := now + quantum
		if v != nil {
			v.Consume(1, end) // keep hogs accounted; value irrelevant
			s.Charge(v, quantum, end)
			busy[v.ID()] += quantum
		}
		s.Tick(end)
	}
	return busy
}

// share returns the VM's fraction of total.
func share(busy map[vm.ID]sim.Time, id vm.ID, total sim.Time) float64 {
	return float64(busy[id]) / float64(total)
}

func TestCreditProportionalUnderContention(t *testing.T) {
	s := NewCredit()
	dom0 := busyVM(t, 0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := busyVM(t, 2, vm.Config{Name: "V70", Credit: 70})
	for _, v := range []*vm.VM{dom0, v20, v70} {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	for _, tt := range []struct {
		id   vm.ID
		want float64
	}{{0, 0.10}, {1, 0.20}, {2, 0.70}} {
		if got := share(busy, tt.id, total); math.Abs(got-tt.want) > 0.01 {
			t.Errorf("VM %d share = %.3f, want %.2f", tt.id, got, tt.want)
		}
	}
}

func TestCreditCapIsHardLimit(t *testing.T) {
	// The fix-credit property (Scenario 1 of the paper): with V70 idle,
	// V20 still receives at most its 20% cap and the CPU idles.
	s := NewCredit()
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := mustVM(t, 2, vm.Config{Name: "V70", Credit: 70}) // idle
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v70); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); math.Abs(got-0.20) > 0.005 {
		t.Errorf("V20 share = %.3f, want 0.20 (hard cap)", got)
	}
	if busy[2] != 0 {
		t.Errorf("idle V70 ran %v", busy[2])
	}
}

func TestCreditNullCreditConsumesSlack(t *testing.T) {
	// A zero-credit VM has no guarantee but absorbs idle slices (the
	// paper's description of the Credit scheduler's null-credit case).
	s := NewCredit()
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	free := busyVM(t, 2, vm.Config{Name: "Free", Credit: 0})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(free); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); math.Abs(got-0.20) > 0.005 {
		t.Errorf("V20 share = %.3f, want 0.20", got)
	}
	if got := share(busy, 2, total); math.Abs(got-0.80) > 0.005 {
		t.Errorf("null-credit share = %.3f, want 0.80", got)
	}
}

func TestCreditPriorityTierFirst(t *testing.T) {
	// Dom0 (higher priority) must be served before same-budget guests
	// within every period: it never misses its allocation even under full
	// contention.
	s := NewCredit()
	dom0 := busyVM(t, 0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
	v90 := busyVM(t, 1, vm.Config{Name: "V90", Credit: 90})
	if err := s.Add(dom0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v90); err != nil {
		t.Fatal(err)
	}
	const total = sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 0, total); math.Abs(got-0.10) > 0.005 {
		t.Errorf("Dom0 share = %.3f, want 0.10", got)
	}
}

func TestCreditSetCapTakesEffect(t *testing.T) {
	s := NewCredit()
	v := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCap(1, 40); err != nil {
		t.Fatal(err)
	}
	if cap, err := s.Cap(1); err != nil || cap != 40 {
		t.Fatalf("Cap = %v, %v; want 40, nil", cap, err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); math.Abs(got-0.40) > 0.01 {
		t.Errorf("share after SetCap(40) = %.3f, want 0.40", got)
	}
}

func TestCreditCapAboveHundred(t *testing.T) {
	// PAS may set caps above 100% at low frequency; the VM is then
	// effectively unbounded by the cap (but still bounded by wall time).
	s := NewCredit()
	v := busyVM(t, 1, vm.Config{Name: "V", Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCap(1, 120); err != nil {
		t.Fatal(err)
	}
	const total = sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); got < 0.99 {
		t.Errorf("share with cap 120 = %.3f, want ~1", got)
	}
}

func TestCreditErrors(t *testing.T) {
	s := NewCredit()
	if err := s.Add(nil); err == nil {
		t.Error("Add(nil) succeeded")
	}
	v := busyVM(t, 1, vm.Config{Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := s.SetCap(9, 10); err == nil {
		t.Error("SetCap(unknown) succeeded")
	}
	if err := s.SetCap(1, -1); err == nil {
		t.Error("SetCap(-1) succeeded")
	}
	if _, err := s.Cap(9); err == nil {
		t.Error("Cap(unknown) succeeded")
	}
	if _, err := s.Budget(9); err == nil {
		t.Error("Budget(unknown) succeeded")
	}
}

func TestSEDFGuaranteesUnderContention(t *testing.T) {
	s := NewSEDF(SEDFConfig{DefaultExtratime: true})
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := busyVM(t, 2, vm.Config{Name: "V70", Credit: 70})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v70); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); got < 0.20-0.01 {
		t.Errorf("V20 share = %.3f, below its 0.20 guarantee", got)
	}
	if got := share(busy, 2, total); got < 0.70-0.01 {
		t.Errorf("V70 share = %.3f, below its 0.70 guarantee", got)
	}
	// Nothing idles: extratime hands out the remaining 10%.
	sum := share(busy, 1, total) + share(busy, 2, total)
	if sum < 0.999 {
		t.Errorf("total share = %.3f, want ~1 (work conserving)", sum)
	}
}

func TestSEDFDonatesUnusedSlices(t *testing.T) {
	// Scenario 2 of the paper: V70 idle, V20 with extratime receives its
	// slices — the variable-credit behaviour of Figure 6.
	s := NewSEDF(SEDFConfig{DefaultExtratime: true})
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := mustVM(t, 2, vm.Config{Name: "V70", Credit: 70})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v70); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); got < 0.99 {
		t.Errorf("V20 share with idle V70 = %.3f, want ~1", got)
	}
}

func TestSEDFWithoutExtratimeIsFixCredit(t *testing.T) {
	s := NewSEDF(SEDFConfig{DefaultExtratime: false})
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); math.Abs(got-0.20) > 0.01 {
		t.Errorf("V20 share without extratime = %.3f, want 0.20", got)
	}
}

func TestSEDFEDFOrdering(t *testing.T) {
	// A VM with a shorter period (earlier deadline) is served first.
	s := NewSEDF(SEDFConfig{})
	fast := busyVM(t, 1, vm.Config{Name: "fast"})
	slow := busyVM(t, 2, vm.Config{Name: "slow"})
	if err := s.AddWithParams(fast, SEDFParams{Slice: 5 * sim.Millisecond, Period: 20 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWithParams(slow, SEDFParams{Slice: 50 * sim.Millisecond, Period: 100 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := s.Pick(0); got != fast {
		t.Errorf("Pick = %v, want the earlier-deadline VM", got)
	}
	// Shares over time match the slice/period reservations.
	const total = 2 * sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); math.Abs(got-0.25) > 0.02 {
		t.Errorf("fast share = %.3f, want 0.25", got)
	}
	if got := share(busy, 2, total); math.Abs(got-0.50) > 0.02 {
		t.Errorf("slow share = %.3f, want 0.50", got)
	}
}

func TestSEDFParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    SEDFParams
	}{
		{"zero period", SEDFParams{Slice: sim.Millisecond}},
		{"negative slice", SEDFParams{Slice: -1, Period: sim.Second}},
		{"slice beyond period", SEDFParams{Slice: 2 * sim.Second, Period: sim.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Error("Validate accepted invalid params")
			}
		})
	}
}

func TestSEDFSetCap(t *testing.T) {
	s := NewSEDF(SEDFConfig{})
	v := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCap(1, 40); err != nil {
		t.Fatal(err)
	}
	got, err := s.Cap(1)
	if err != nil || math.Abs(got-40) > 0.01 {
		t.Errorf("Cap = %v, %v; want 40", got, err)
	}
	// Caps are clamped at 100 (a slice cannot exceed its period).
	if err := s.SetCap(1, 150); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Cap(1); got > 100 {
		t.Errorf("Cap = %v, want <= 100", got)
	}
	if err := s.SetCap(9, 10); err == nil {
		t.Error("SetCap(unknown) succeeded")
	}
}

func TestSEDFExtratimeAccounting(t *testing.T) {
	s := NewSEDF(SEDFConfig{DefaultExtratime: true})
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	runQuanta(s, sim.Second)
	extra, err := s.ExtratimeUsed(1)
	if err != nil {
		t.Fatal(err)
	}
	// Of 1 s total, ~200 ms is guaranteed slice, the rest is extratime.
	if extra < 700*sim.Millisecond {
		t.Errorf("ExtratimeUsed = %v, want ~800ms", extra)
	}
	if _, err := s.ExtratimeUsed(9); err == nil {
		t.Error("ExtratimeUsed(unknown) succeeded")
	}
}

func TestCredit2WeightProportional(t *testing.T) {
	s := NewCredit2()
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := busyVM(t, 2, vm.Config{Name: "V70", Credit: 70})
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v70); err != nil {
		t.Fatal(err)
	}
	const total = 3 * sim.Second
	busy := runQuanta(s, total)
	ratio := float64(busy[2]) / float64(busy[1])
	if math.Abs(ratio-3.5) > 0.1 { // 70/20
		t.Errorf("share ratio = %.3f, want 3.5", ratio)
	}
}

func TestCredit2WorkConserving(t *testing.T) {
	s := NewCredit2()
	v20 := busyVM(t, 1, vm.Config{Name: "V20", Credit: 20})
	v70 := mustVM(t, 2, vm.Config{Name: "V70", Credit: 70}) // idle
	if err := s.Add(v20); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v70); err != nil {
		t.Fatal(err)
	}
	const total = sim.Second
	busy := runQuanta(s, total)
	if got := share(busy, 1, total); got < 0.99 {
		t.Errorf("single busy VM share = %.3f, want ~1", got)
	}
}

func TestCredit2WakeUpClamp(t *testing.T) {
	// A VM idle for a long time must not monopolize the CPU on wake-up.
	s := NewCredit2()
	v1 := busyVM(t, 1, vm.Config{Name: "A", Weight: 1})
	v2 := mustVM(t, 2, vm.Config{Name: "B", Weight: 1})
	if err := s.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v2); err != nil {
		t.Fatal(err)
	}
	runQuanta(s, 2*sim.Second) // v1 runs alone, vclock advances
	v2.SetWorkload(&workload.Hog{})

	// After wake-up, measure shares over the next second only.
	busy := make(map[vm.ID]sim.Time)
	for now := 2 * sim.Second; now < 3*sim.Second; now += quantum {
		v := s.Pick(now)
		if v != nil {
			s.Charge(v, quantum, now+quantum)
			busy[v.ID()] += quantum
		}
		s.Tick(now + quantum)
	}
	frac := float64(busy[2]) / float64(sim.Second)
	if frac > 0.6 {
		t.Errorf("woken VM consumed %.3f of the next second, want ~0.5", frac)
	}
}

func TestCredit2Errors(t *testing.T) {
	s := NewCredit2()
	if err := s.Add(nil); err == nil {
		t.Error("Add(nil) succeeded")
	}
	v := busyVM(t, 1, vm.Config{Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if _, err := s.Weight(9); err == nil {
		t.Error("Weight(unknown) succeeded")
	}
	if w, err := s.Weight(1); err != nil || w != 20 {
		t.Errorf("Weight = %v, %v; want 20, nil", w, err)
	}
	// Weights beyond the exact-arithmetic bound are rejected, not
	// silently clamped (clamping would distort configured share ratios).
	if err := s.Add(busyVM(t, 2, vm.Config{Weight: 5000})); err == nil {
		t.Error("Add with weight 5000 succeeded; want rejection beyond 4096")
	}
	if err := s.Add(busyVM(t, 3, vm.Config{Weight: 4096})); err != nil {
		t.Errorf("Add with weight 4096 failed: %v", err)
	}
}

// TestWeightForCredit pins the one credit-to-weight rounding (PAS-credit2's
// weights and a cap resize on a plain Credit2 machine): round to nearest,
// half away from zero, clamped to the weights Credit2 accepts.
func TestWeightForCredit(t *testing.T) {
	for _, tt := range []struct {
		pct  float64
		want int64
	}{
		{20, 20},
		{20.4, 20},
		{20.5, 21},
		{99.6, 100},
		{1, credit2MinWeight},
		{0.4, credit2MinWeight},
		{0, credit2MinWeight},
		{-5, credit2MinWeight},
		{4096.4, credit2MaxWeight},
		{1e6, credit2MaxWeight},
	} {
		if got := WeightForCredit(tt.pct); got != tt.want {
			t.Errorf("WeightForCredit(%v) = %d, want %d", tt.pct, got, tt.want)
		}
	}
	// Every contracted credit maps to a weight SetWeight takes.
	s := NewCredit2()
	if err := s.Add(busyVM(t, 1, vm.Config{Credit: 20})); err != nil {
		t.Fatal(err)
	}
	for pct := 0.0; pct <= 100; pct += 0.25 {
		if err := s.SetWeight(1, WeightForCredit(pct)); err != nil {
			t.Fatalf("SetWeight(WeightForCredit(%v)): %v", pct, err)
		}
	}
}

func TestVMsReturnsCopy(t *testing.T) {
	s := NewCredit()
	v := busyVM(t, 1, vm.Config{Credit: 20})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	got := s.VMs()
	got[0] = nil
	if s.VMs()[0] == nil {
		t.Error("VMs exposes internal slice")
	}
}

func TestRRQueueFairness(t *testing.T) {
	var q rrQueue
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		// Serve the candidate nearest the cursor, as Pick does.
		s, j := q.start(3), -1
		for k := 0; k < 3; k++ {
			if j < 0 || cyclicDist(k, s, 3) < cyclicDist(j, s, 3) {
				j = k
			}
		}
		q.last = j
		counts[j]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("rr slot %d served %d times, want 100", i, c)
		}
	}
}
