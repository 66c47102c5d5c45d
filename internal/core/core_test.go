package core_test

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

func TestAbsoluteLoad(t *testing.T) {
	// Section 4's example: a 33% global load at 1600/2667 MHz is 20%
	// absolute (cf = 1).
	got := core.AbsoluteLoad(33.33, 1600.0/2667.0, 1)
	if math.Abs(got-20) > 0.01 {
		t.Errorf("AbsoluteLoad = %v, want ~20", got)
	}
}

func TestCompensatedCredit(t *testing.T) {
	// The paper's running example: 20% credit, frequency halved -> 40%.
	got, err := core.CompensatedCredit(20, 0.5, 1)
	if err != nil || math.Abs(got-40) > 1e-9 {
		t.Errorf("CompensatedCredit(20, 0.5, 1) = %v, %v; want 40", got, err)
	}
	// Figure 1's x-axis pairs: credits 10..100 at 2133 MHz become
	// 13 25 38 50 63 75 88 100 113 125 (rounded).
	ratio := 2133.0 / 2667.0
	want := []float64{13, 25, 38, 50, 63, 75, 88, 100, 113, 125}
	for i, init := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		got, err := core.CompensatedCredit(init, ratio, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(math.Round(got)-want[i]) > 1 {
			t.Errorf("compensated(%v) = %v, want ~%v (Fig. 1)", init, got, want[i])
		}
	}
	if _, err := core.CompensatedCredit(20, 0, 1); err == nil {
		t.Error("CompensatedCredit(ratio=0) succeeded")
	}
	if _, err := core.CompensatedCredit(20, 0.5, 0); err == nil {
		t.Error("CompensatedCredit(cf=0) succeeded")
	}
}

func TestProportionalityEquations(t *testing.T) {
	// Equation 1 example from Section 4.2: 10% load at Fmax=3000 becomes
	// 20% at Fi=1500.
	got, err := core.LoadAtFrequency(10, 0.5, 1)
	if err != nil || math.Abs(got-20) > 1e-9 {
		t.Errorf("LoadAtFrequency = %v, %v; want 20", got, err)
	}
	// Equation 2: execution time doubles at half frequency.
	tm, err := core.ExecTimeAtFrequency(100, 0.5, 1)
	if err != nil || math.Abs(tm-200) > 1e-9 {
		t.Errorf("ExecTimeAtFrequency = %v, %v; want 200", tm, err)
	}
	// Equation 3 example: doubling credits from 10% to 20% halves time.
	tc, err := core.ExecTimeAtCredit(100, 10, 20)
	if err != nil || math.Abs(tc-50) > 1e-9 {
		t.Errorf("ExecTimeAtCredit = %v, %v; want 50", tc, err)
	}
	if _, err := core.LoadAtFrequency(10, -1, 1); err == nil {
		t.Error("LoadAtFrequency(ratio<0) succeeded")
	}
	if _, err := core.ExecTimeAtFrequency(10, 0.5, -1); err == nil {
		t.Error("ExecTimeAtFrequency(cf<0) succeeded")
	}
	if _, err := core.ExecTimeAtCredit(10, 0, 20); err == nil {
		t.Error("ExecTimeAtCredit(cInit=0) succeeded")
	}
}

func TestComputeNewFreq(t *testing.T) {
	prof := cpufreq.Optiplex755()
	tests := []struct {
		abs  float64
		want cpufreq.Freq
	}{
		{0, 1600},
		{21, 1600},   // phase 1 of the scenario: capacity 60 absorbs 21
		{59.9, 1600}, // just under the 1600 MHz capacity
		{60.1, 1867},
		{75, 2133},
		{85, 2400},
		{95, 2667},
		{150, 2667}, // overload: the scan falls through to Freq[fmax]
	}
	for _, tt := range tests {
		if got := core.ComputeNewFreq(prof, nil, tt.abs); got != tt.want {
			t.Errorf("ComputeNewFreq(%v) = %v, want %v", tt.abs, got, tt.want)
		}
	}
}

func TestComputeNewFreqRespectsCF(t *testing.T) {
	prof := cpufreq.Optiplex755()
	// With cf = 0.8 at the minimum frequency its capacity is 48%, so an
	// absolute load of 50 needs the next level.
	cf := []float64{0.8, 1, 1, 1, 1}
	if got := core.ComputeNewFreq(prof, cf, 50); got != 1867 {
		t.Errorf("ComputeNewFreq with cf = %v, want 1867", got)
	}
	// A short table applies to the states it covers ({0.8} covers the
	// minimum frequency) and pads the rest with cf = 1.
	if got := core.ComputeNewFreq(prof, []float64{0.8}, 50); got != 1867 {
		t.Errorf("ComputeNewFreq with short cf table = %v, want 1867", got)
	}
	if got := core.ComputeNewFreq(prof, []float64{0.8}, 65); got != 1867 {
		t.Errorf("ComputeNewFreq(65) with short cf table = %v, want 1867", got)
	}
}

func TestQuickCompensationInvariant(t *testing.T) {
	// Property (the heart of the paper): compensated credit times the
	// capacity ratio always reproduces the initial credit, i.e. the VM's
	// absolute capacity is invariant under frequency changes.
	f := func(creditRaw, ratioRaw, cfRaw uint8) bool {
		credit := float64(creditRaw%100) + 1   // 1..100
		ratio := float64(ratioRaw%90+10) / 100 // 0.10..0.99
		cf := float64(cfRaw%40+60) / 100       // 0.60..0.99
		comp, err := core.CompensatedCredit(credit, ratio, cf)
		if err != nil {
			return false
		}
		back := comp * ratio * cf
		return math.Abs(back-credit) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickComputeNewFreqIsSufficientAndMinimal(t *testing.T) {
	// Property: the chosen frequency's capacity exceeds the load unless
	// even the maximum cannot hold it; and no lower ladder step would
	// suffice.
	prof := cpufreq.Elite8300()
	cf := prof.EfficiencyTable()
	f := func(absRaw uint8) bool {
		abs := float64(absRaw) / 2 // 0..127.5
		got := core.ComputeNewFreq(prof, cf, abs)
		idx, err := prof.Index(got)
		if err != nil {
			return false
		}
		capacity := prof.Ratio(got) * 100 * cf[idx]
		if capacity <= abs && got != prof.Max() {
			return false
		}
		for i := 0; i < idx; i++ {
			lower := prof.States[i].Freq
			if prof.Ratio(lower)*100*cf[i] > abs {
				return false // a lower frequency would have sufficed
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestChooseFreq checks Listing 1.1 on a live CPU. The Global load is read
// at the CPU's running P-state (its ratio and cf) and inflated by the
// margin; the Target is the lowest P-state whose capacity exceeds that
// (the maximum if none does), with its own ratio and cf, which is what
// Compensate is handed next.
func TestChooseFreq(t *testing.T) {
	for _, tt := range []struct {
		name string
		prof *cpufreq.Profile
		cf   bool
	}{
		{"optiplex755", cpufreq.Optiplex755(), false},
		{"elite8300-cf", cpufreq.Elite8300(), true},
		{"xeon-e5-2620-cf", cpufreq.XeonE5_2620(), true},
	} {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			prof := tt.prof
			var cf []float64
			if tt.cf {
				cf = prof.EfficiencyTable()
			}
			capacity := func(i int) float64 {
				return prof.Ratio(prof.States[i].Freq) * 100 * core.CFAt(cf, i)
			}
			cpu, err := cpufreq.NewCPU(prof)
			if err != nil {
				t.Fatal(err)
			}
			now := sim.Time(0)
			for r, s := range prof.States {
				if err := cpu.SetFreq(s.Freq, now); err != nil {
					t.Fatal(err)
				}
				now += prof.TransitionLatency
				cpu.Advance(now)
				if cpu.Freq() != s.Freq {
					t.Fatalf("CPU runs %v, want %v", cpu.Freq(), s.Freq)
				}
				for _, margin := range []float64{0, core.CapacityMargin, 0.2} {
					for g := 0; g <= 20; g++ {
						load := float64(g) / 20
						got := core.ChooseFreq(cpu, cf, load, margin)
						need := core.AbsoluteLoad(load*100, prof.Ratio(s.Freq), core.CFAt(cf, r)) * (1 + margin)
						i, err := prof.Index(got.Freq)
						if err != nil {
							t.Fatalf("at %v, load %v: off-ladder choice: %v", s.Freq, load, err)
						}
						if capacity(i) <= need && got.Freq != prof.Max() {
							t.Errorf("at %v, load %v, margin %v: %v holds %v of %v",
								s.Freq, load, margin, got.Freq, capacity(i), need)
						}
						if i > 0 && capacity(i-1) > need {
							t.Errorf("at %v, load %v, margin %v: chose %v, %v suffices",
								s.Freq, load, margin, got.Freq, prof.States[i-1].Freq)
						}
						if got.Ratio != prof.Ratio(got.Freq) || got.CF != core.CFAt(cf, i) {
							t.Errorf("at %v, load %v: target %+v carries the wrong ratio or cf",
								s.Freq, load, got)
						}
					}
				}
			}
		})
	}
	// The margin is what lifts a load just under a capacity boundary to
	// the next P-state: 59% at 2667 MHz fits 1600 MHz (capacity 59.99%)
	// only without it.
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	if got := core.ChooseFreq(cpu, nil, 0.59, 0).Freq; got != 1600 {
		t.Errorf("ChooseFreq(0.59, no margin) = %v, want 1600", got)
	}
	if got := core.ChooseFreq(cpu, nil, 0.59, core.CapacityMargin).Freq; got != 1867 {
		t.Errorf("ChooseFreq(0.59, CapacityMargin) = %v, want 1867", got)
	}
}

// TestCompensate checks Listing 1.2's credit loop: every VM with a positive
// contract is capped at its equation (4) credit, a null-credit VM keeps
// its cap, and the two can't-happen errors panic.
func TestCompensate(t *testing.T) {
	build := func(t *testing.T) *sched.Credit {
		t.Helper()
		credit := sched.NewCredit()
		for id, c := range map[vm.ID]float64{1: 20, 2: 70, 3: 0} {
			v, err := vm.New(id, vm.Config{Credit: c})
			if err != nil {
				t.Fatal(err)
			}
			if err := credit.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		return credit
	}
	mustPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("Compensate did not panic")
			}
		}()
		f()
	}
	t.Run("caps contracted VMs", func(t *testing.T) {
		credit := build(t)
		if err := credit.SetCap(3, 15); err != nil {
			t.Fatal(err)
		}
		const ratio, cf = 1600.0 / 2667.0, 0.9
		contracts := map[vm.ID]float64{1: 20, 2: 70, 3: 0}
		if n := core.Compensate(credit, contracts, ratio, cf); n != 2 {
			t.Errorf("Compensate capped %d VMs, want 2", n)
		}
		for id, init := range map[vm.ID]float64{1: 20, 2: 70} {
			want, err := core.CompensatedCredit(init, ratio, cf)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := credit.Cap(id); err != nil || got != want {
				t.Errorf("VM %d cap = %v, %v; want %v", id, got, err, want)
			}
		}
		if got, err := credit.Cap(3); err != nil || got != 15 {
			t.Errorf("null-credit VM cap = %v, %v; want 15 untouched", got, err)
		}
	})
	t.Run("unknown VM panics", func(t *testing.T) {
		credit := build(t)
		mustPanic(t, func() { core.Compensate(credit, map[vm.ID]float64{9: 20}, 1, 1) })
	})
	t.Run("non-positive ratio panics", func(t *testing.T) {
		credit := build(t)
		mustPanic(t, func() { core.Compensate(credit, map[vm.ID]float64{1: 20}, 0, 1) })
	})
}

func TestNewPASValidation(t *testing.T) {
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewPAS(nil, nil); err == nil {
		t.Error("NewPAS without CPU succeeded")
	}
	if _, err := core.NewPAS(cpu, []float64{1, 1}); err == nil {
		t.Error("NewPAS with mis-sized CF table succeeded")
	}
	if _, err := core.NewPASCredit2(nil, nil); err == nil {
		t.Error("NewPASCredit2 without CPU succeeded")
	}
	if _, err := core.NewPASCredit2(cpu, []float64{1, 1}); err == nil {
		t.Error("NewPASCredit2 with mis-sized CF table succeeded")
	}
}

// pasHost builds the canonical V20/V70/Dom0 host under PAS control.
func pasHost(t *testing.T) (*host.Host, *core.PAS, *vm.VM, *vm.VM) {
	t.Helper()
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

	dom0, err := vm.New(0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*vm.VM{dom0, v20, v70} {
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
	}
	return h, pas, v20, v70
}

func TestPASCompensatesFrequencyReduction(t *testing.T) {
	// Scenario 1 under PAS (Figures 9 and 10): V20 thrashing, V70 lazy.
	// PAS lowers the frequency to 1600 MHz and raises V20's enforced cap
	// to 20/(1600/2667) = 33.3%, so V20's absolute load stays at 20%.
	h, pas, v20, _ := pasHost(t)
	v20.SetWorkload(&workload.Hog{})
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 1600 {
		t.Errorf("PAS frequency = %v, want 1600 (underloaded host)", got)
	}
	cap, err := pas.EffectiveCap(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-33.34) > 0.2 {
		t.Errorf("V20 effective cap = %.2f%%, want ~33.3%% (Fig. 9)", cap)
	}
	if init, _ := pas.Cap(1); init != 20 {
		t.Errorf("V20 contracted credit = %v, want 20", init)
	}
	abs, _ := h.Recorder().Series("V20_absolute_pct").MeanBetween(5, 30)
	if math.Abs(abs-20) > 1 {
		t.Errorf("V20 absolute load = %.2f%%, want ~20%% (Fig. 10)", abs)
	}
	if pas.Recomputes() == 0 {
		t.Error("PAS never recomputed")
	}
}

func TestPASRestoresCreditsUnderContention(t *testing.T) {
	// Phase 2 (V70 wakes up): the host saturates, PAS raises the
	// frequency back to the maximum and credits return to 20/70.
	h, pas, v20, v70 := pasHost(t)
	v20.SetWorkload(&workload.Hog{})
	v70.SetWorkload(&workload.Hog{})
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 2667 {
		t.Errorf("PAS frequency under contention = %v, want 2667", got)
	}
	for _, tt := range []struct {
		id   vm.ID
		want float64
	}{{1, 20}, {2, 70}} {
		cap, err := pas.EffectiveCap(tt.id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cap-tt.want) > 0.5 {
			t.Errorf("VM %d effective cap = %.2f%%, want %v%%", tt.id, cap, tt.want)
		}
	}
	// Shares match the contracted credits.
	g20, _ := h.Recorder().Series("V20_global_pct").MeanBetween(10, 30)
	g70, _ := h.Recorder().Series("V70_global_pct").MeanBetween(10, 30)
	if math.Abs(g20-20) > 1.5 || math.Abs(g70-70) > 1.5 {
		t.Errorf("shares = %.1f/%.1f, want 20/70", g20, g70)
	}
}

func TestPASNeverGrantsMoreThanContracted(t *testing.T) {
	// The third design principle: "a VM is never given more computing
	// capacity than its allocated credit". Even with everything else
	// idle, a thrashing V20 gets 20% absolute — unlike SEDF's 85%+.
	h, _, v20, _ := pasHost(t)
	v20.SetWorkload(&workload.Hog{})
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	s := h.Recorder().Series("V20_absolute_pct")
	for i, v := range s.V {
		if s.T[i] < 2 { // skip the startup transient
			continue
		}
		if v > 22 {
			t.Fatalf("V20 absolute load %.2f%% at t=%.0fs exceeds its credit", v, s.T[i])
		}
	}
}

func TestPASSetCapRebasesContract(t *testing.T) {
	h, pas, v20, _ := pasHost(t)
	v20.SetWorkload(&workload.Hog{})
	if err := h.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := pas.SetCap(1, 30); err != nil {
		t.Fatal(err)
	}
	// At 1600 MHz the new 30% contract is enforced as 30/0.6 = 50%.
	cap, err := pas.EffectiveCap(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-50) > 0.5 {
		t.Errorf("effective cap after SetCap(30) = %.2f%%, want ~50%%", cap)
	}
	if err := pas.SetCap(9, 10); err == nil {
		t.Error("SetCap(unknown) succeeded")
	}
	if err := pas.SetCap(1, -1); err == nil {
		t.Error("SetCap(-1) succeeded")
	}
	if _, err := pas.Cap(9); err == nil {
		t.Error("Cap(unknown) succeeded")
	}
}

func TestPASWithoutLoadSourceIsPlainCredit(t *testing.T) {
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
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v20.SetWorkload(&workload.Hog{})
	if err := h.AddVM(v20); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 2667 {
		t.Errorf("frequency without load source = %v, want unchanged 2667", got)
	}
	if pas.Recomputes() != 0 {
		t.Errorf("Recomputes = %d without load source, want 0", pas.Recomputes())
	}
}

// TestCredit2FamilyBooksCreditWeight: Credit2 books a credit VM's weight
// once, as sched.WeightForCredit of its credit, and PAS-credit2 books
// nothing on top. A 20.5% VM therefore weighs 21 under both: racing a VM
// of explicit weight 21, it wins an equal share of the processor.
func TestCredit2FamilyBooksCreditWeight(t *testing.T) {
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	pasCredit2, err := core.NewPASCredit2(cpu, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{sched.NewCredit2(), pasCredit2} {
		credited, err := vm.New(1, vm.Config{Name: "credited", Credit: 20.5})
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := vm.New(2, vm.Config{Name: "weighted", Weight: 21})
		if err != nil {
			t.Fatal(err)
		}
		ran := map[*vm.VM]int{}
		for _, v := range []*vm.VM{credited, weighted} {
			v.SetWorkload(&workload.Hog{})
			if err := s.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for now := sim.Time(0); now < 420*sim.Millisecond; now += sim.Millisecond {
			v := s.Pick(now)
			ran[v]++
			s.Charge(v, sim.Millisecond, now+sim.Millisecond)
			s.Tick(now + sim.Millisecond)
		}
		if d := ran[credited] - ran[weighted]; d < -1 || d > 1 {
			t.Errorf("%s: the 20.5%% VM ran %d quanta against weight 21's %d, want an equal share",
				s.Name(), ran[credited], ran[weighted])
		}
	}
}

func TestUserLevelCreditManagerCompensates(t *testing.T) {
	// Variant 1 of Section 4.1: the governor lowers the frequency; the
	// user-level daemon compensates the credits a polling period later.
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	credit := sched.NewCredit()
	h, err := host.New(host.Config{CPU: cpu, Scheduler: credit, Governor: governor.NewPaperOndemand(nil)})
	if err != nil {
		t.Fatal(err)
	}
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v20.SetWorkload(&workload.Hog{})
	if err := h.AddVM(v20); err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewCreditManager(cpu, credit, nil, sim.Second,
		map[vm.ID]float64{1: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddAgent(mgr); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 1600 {
		t.Fatalf("governor kept frequency at %v, want 1600", got)
	}
	cap, err := credit.Cap(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-33.34) > 0.2 {
		t.Errorf("user-level compensated cap = %.2f%%, want ~33.3%%", cap)
	}
	abs, _ := h.Recorder().Series("V20_absolute_pct").MeanBetween(10, 30)
	if math.Abs(abs-20) > 1.5 {
		t.Errorf("V20 absolute load = %.2f%%, want ~20%%", abs)
	}
}

func TestUserLevelDVFSManagerFullLoop(t *testing.T) {
	// Variant 2 of Section 4.1: the daemon manages both frequency and
	// credits, no kernel governor involved.
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	credit := sched.NewCredit()
	h, err := host.New(host.Config{CPU: cpu, Scheduler: credit})
	if err != nil {
		t.Fatal(err)
	}
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v20.SetWorkload(&workload.Hog{})
	if err := h.AddVM(v20); err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewDVFSCreditManager(cpu, credit, h, nil, sim.Second,
		map[vm.ID]float64{1: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddAgent(mgr); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.CPU().Freq(); got != 1600 {
		t.Errorf("daemon-managed frequency = %v, want 1600", got)
	}
	abs, _ := h.Recorder().Series("V20_absolute_pct").MeanBetween(10, 30)
	if math.Abs(abs-20) > 1.5 {
		t.Errorf("V20 absolute load = %.2f%%, want ~20%%", abs)
	}
}

func TestUserLevelManagerValidation(t *testing.T) {
	cpu, err := cpufreq.NewCPU(cpufreq.Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	credit := sched.NewCredit()
	v1, err := vm.New(1, vm.Config{Name: "V1", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := credit.Add(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewCreditManager(cpu, credit, nil, sim.Second,
		map[vm.ID]float64{1: 20}); err != nil {
		t.Errorf("NewCreditManager(known VM): %v", err)
	}
	if _, err := core.NewCreditManager(nil, credit, nil, sim.Second, nil); err == nil {
		t.Error("NewCreditManager(nil cpu) succeeded")
	}
	if _, err := core.NewCreditManager(cpu, nil, nil, sim.Second, nil); err == nil {
		t.Error("NewCreditManager(nil caps) succeeded")
	}
	if _, err := core.NewCreditManager(cpu, credit, nil, 0, nil); err == nil {
		t.Error("NewCreditManager(zero interval) succeeded")
	}
	if _, err := core.NewCreditManager(cpu, credit, []float64{1}, sim.Second, nil); err == nil {
		t.Error("NewCreditManager(short cf) succeeded")
	}
	if _, err := core.NewCreditManager(cpu, credit, nil, sim.Second,
		map[vm.ID]float64{1: -5}); err == nil {
		t.Error("NewCreditManager(negative credit) succeeded")
	}
	// A contract for a VM the cap setter does not know would make every
	// poll's compensation pass panic; it is refused up front.
	if _, err := core.NewCreditManager(cpu, credit, nil, sim.Second,
		map[vm.ID]float64{1: 20, 9: 20}); !errors.Is(err, sched.ErrUnknownVM) {
		t.Errorf("NewCreditManager(unknown VM) = %v, want ErrUnknownVM", err)
	}
	if _, err := core.NewDVFSCreditManager(cpu, credit, nil, nil, sim.Second, nil); err == nil {
		t.Error("NewDVFSCreditManager(nil loads) succeeded")
	}
}
