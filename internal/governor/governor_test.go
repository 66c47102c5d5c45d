package governor

import (
	"slices"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// stat builds a Stats snapshot for the Optiplex profile.
func stat(now sim.Time, busy sim.Time, cur cpufreq.Freq) Stats {
	return Stats{
		Now:     now,
		CumBusy: busy,
		Cur:     cur,
		Prof:    optiplex,
	}
}

var optiplex = cpufreq.Optiplex755()

func TestPerformanceGovernor(t *testing.T) {
	var g Performance
	f, ok := g.Tick(stat(0, 0, 1600))
	if !ok || f != 2667 {
		t.Errorf("Tick = %v, %v; want 2667, true", f, ok)
	}
	// Once at max, no further decisions.
	if _, ok := g.Tick(stat(sim.Second, 0, 2667)); ok {
		t.Error("performance governor kept issuing decisions")
	}
	if g.Name() != "performance" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestPowersaveGovernor(t *testing.T) {
	var g Powersave
	f, ok := g.Tick(stat(0, 0, 2667))
	if !ok || f != 1600 {
		t.Errorf("Tick = %v, %v; want 1600, true", f, ok)
	}
	if _, ok := g.Tick(stat(sim.Second, 0, 1600)); ok {
		t.Error("powersave governor kept issuing decisions")
	}
}

// TestLinuxOndemandJumpsToMaxOnHighLoad pins the 80% up-threshold: a
// sample at exactly 80% load jumps to the maximum, one at 79% only scales
// to fit.
func TestLinuxOndemandJumpsToMaxOnHighLoad(t *testing.T) {
	for _, tt := range []struct {
		busy sim.Time
		want cpufreq.Freq
	}{
		{8 * sim.Millisecond, 2667},
		{7900 * sim.Microsecond, 2133}, // 79% of 2133 needs 2107 MHz
	} {
		g := NewLinuxOndemand()
		f, ok := g.Tick(stat(10*sim.Millisecond, tt.busy, 2133))
		if !ok || f != tt.want {
			t.Errorf("Tick(%v busy of 10ms at 2133) = %v, %v; want %v, true", tt.busy, f, ok, tt.want)
		}
	}
}

func TestLinuxOndemandScalesDownToFit(t *testing.T) {
	// 20% at 2667: the lowest frequency keeping load under 80% is 1600
	// (load there would be 33%).
	f, ok := NewLinuxOndemand().Tick(stat(10*sim.Millisecond, 2*sim.Millisecond, 2667))
	if !ok || f != 1600 {
		t.Errorf("Tick(20%% at max) = %v, %v; want 1600, true", f, ok)
	}
	// 60% at 2667 needs 60*2667/80 = 2000 -> floor 2133.
	f, ok = NewLinuxOndemand().Tick(stat(10*sim.Millisecond, 6*sim.Millisecond, 2667))
	if !ok || f != 2133 {
		t.Errorf("Tick(60%% at max) = %v, %v; want 2133, true", f, ok)
	}
}

// TestLinuxOndemandDefaultSamplingIsAggressive pins the 10 ms kernel
// sampling interval: no decision 1 µs before it, one at it, and the next
// window ends 10 ms later.
func TestLinuxOndemandDefaultSamplingIsAggressive(t *testing.T) {
	g := NewLinuxOndemand()
	if got := g.NextDecision(stat(0, 0, 1600)); got != 10*sim.Millisecond {
		t.Errorf("first NextDecision = %v, want 10ms", got)
	}
	if _, ok := g.Tick(stat(10*sim.Millisecond-1, 9*sim.Millisecond, 1600)); ok {
		t.Error("decision before the 10ms sampling interval elapsed")
	}
	if _, ok := g.Tick(stat(10*sim.Millisecond, 9*sim.Millisecond, 1600)); !ok {
		t.Error("no decision at the 10ms sampling interval")
	}
	if got := g.NextDecision(stat(10*sim.Millisecond, 9*sim.Millisecond, 2667)); got != 20*sim.Millisecond {
		t.Errorf("NextDecision after a sample = %v, want 20ms", got)
	}
}

func TestConservativeStepsOneLevel(t *testing.T) {
	// High load at 1600: one step up, not a jump to max.
	f, ok := NewConservative().Tick(stat(100*sim.Millisecond, 95*sim.Millisecond, 1600))
	if !ok || f != 1867 {
		t.Errorf("step up = %v, %v; want 1867, true", f, ok)
	}
	// Low load at 2667: one step down.
	f, ok = NewConservative().Tick(stat(100*sim.Millisecond, 5*sim.Millisecond, 2667))
	if !ok || f != 2400 {
		t.Errorf("step down = %v, %v; want 2400, true", f, ok)
	}
	// Mid load: no move.
	if _, ok := NewConservative().Tick(stat(100*sim.Millisecond, 50*sim.Millisecond, 2133)); ok {
		t.Error("conservative moved on mid load")
	}
}

// TestConservativeConstants pins the 100 ms sampling interval and the
// 80% up / 20% down thresholds, both strict: a load at a threshold holds
// the frequency, one a point beyond it moves one step.
func TestConservativeConstants(t *testing.T) {
	g := NewConservative()
	if _, ok := g.Tick(stat(100*sim.Millisecond-1, 95*sim.Millisecond, 1600)); ok {
		t.Error("decision before the 100ms sampling interval elapsed")
	}
	if f, ok := g.Tick(stat(100*sim.Millisecond, 95*sim.Millisecond, 1600)); !ok || f != 1867 {
		t.Errorf("Tick at 100ms = %v, %v; want 1867, true", f, ok)
	}
	for _, tt := range []struct {
		busy sim.Time
		want cpufreq.Freq // 0: no decision
	}{
		{81 * sim.Millisecond, 2400},
		{80 * sim.Millisecond, 0},
		{20 * sim.Millisecond, 0},
		{19 * sim.Millisecond, 1867},
	} {
		f, ok := NewConservative().Tick(stat(100*sim.Millisecond, tt.busy, 2133))
		if ok != (tt.want != 0) || f != tt.want {
			t.Errorf("Tick(%v busy of 100ms at 2133) = %v, %v; want %v", tt.busy, f, ok, tt.want)
		}
	}
}

func TestConservativeAtLadderEdges(t *testing.T) {
	// Already at max with high load: no decision.
	if _, ok := NewConservative().Tick(stat(100*sim.Millisecond, 95*sim.Millisecond, 2667)); ok {
		t.Error("stepped above the ladder")
	}
	if _, ok := NewConservative().Tick(stat(100*sim.Millisecond, 5*sim.Millisecond, 1600)); ok {
		t.Error("stepped below the ladder")
	}
}

// paperSample is one second of a PaperOndemand test: the busy time in
// it and the frequency the governor sees at its end.
type paperSample struct {
	busy sim.Time
	cur  cpufreq.Freq
}

// paperTicks feeds a PaperOndemand one sample per second and returns
// every answer (0 for no decision).
func paperTicks(g *PaperOndemand, samples []paperSample) []cpufreq.Freq {
	out := make([]cpufreq.Freq, len(samples))
	var cum sim.Time
	for i, smp := range samples {
		cum += smp.busy
		if f, ok := g.Tick(stat(sim.Time(i+1)*sim.Second, cum, smp.cur)); ok {
			out[i] = f
		}
	}
	return out
}

// TestPaperOndemandScalesDownOnSustainedLowLoad pins the two stable
// samples: a lower target must repeat on two consecutive samples before
// the governor takes it, and a different lower target starts the count
// again.
func TestPaperOndemandScalesDownOnSustainedLowLoad(t *testing.T) {
	for _, tt := range []struct {
		name    string
		samples []paperSample
		want    []cpufreq.Freq
	}{
		{"sustained 20%", []paperSample{{200 * sim.Millisecond, 2667}, {200 * sim.Millisecond, 2667}},
			[]cpufreq.Freq{0, 1600}},
		// 60% wants 1867 MHz, then the 40% and 33% averages 1600 MHz.
		{"changed target", []paperSample{
			{600 * sim.Millisecond, 2667},
			{200 * sim.Millisecond, 2667},
			{200 * sim.Millisecond, 2667},
		}, []cpufreq.Freq{0, 0, 1600}},
	} {
		if got := paperTicks(NewPaperOndemand(nil), tt.samples); !slices.Equal(got, tt.want) {
			t.Errorf("%s: decisions %v, want %v", tt.name, got, tt.want)
		}
	}
}

// TestPaperOndemandRaisesImmediately pins the 1 s sampling interval and
// the immediate raise: one saturated second at the minimum frequency
// raises it at 1 s, not 1 µs earlier.
func TestPaperOndemandRaisesImmediately(t *testing.T) {
	g := NewPaperOndemand(nil)
	if got := g.NextDecision(stat(0, 0, 1600)); got != sim.Second {
		t.Errorf("first NextDecision = %v, want 1s", got)
	}
	if _, ok := g.Tick(stat(sim.Second-1, sim.Second-1, 1600)); ok {
		t.Error("decision before the 1s sampling interval elapsed")
	}
	if f, ok := g.Tick(stat(sim.Second, sim.Second, 1600)); !ok || f != 2667 {
		t.Errorf("saturated sample: got %v, %v; want 2667, true", f, ok)
	}
	if got := g.NextDecision(stat(sim.Second, sim.Second, 2667)); got != 2*sim.Second {
		t.Errorf("NextDecision after a sample = %v, want 2s", got)
	}
}

// TestPaperOndemandConstants pins the remaining settings one by one:
// the 80% saturation threshold, the 10% headroom and the three-sample
// average.
func TestPaperOndemandConstants(t *testing.T) {
	for _, tt := range []struct {
		name    string
		samples []paperSample
		want    []cpufreq.Freq
	}{
		// Raw utilization at or above 80% jumps to the maximum; at 79%
		// the 63% absolute load, with headroom, wants 1867 MHz.
		{"saturation at 80%", []paperSample{{800 * sim.Millisecond, 2133}}, []cpufreq.Freq{2667}},
		{"no saturation at 79%", []paperSample{{790 * sim.Millisecond, 2133}, {790 * sim.Millisecond, 2133}},
			[]cpufreq.Freq{0, 1867}},
		// 54.3% with 10% headroom is 59.7%, inside 1600 MHz's 60%
		// capacity; 54.8% is 60.3%, outside it.
		{"headroom keeps 1600", []paperSample{{543 * sim.Millisecond, 2667}, {543 * sim.Millisecond, 2667}},
			[]cpufreq.Freq{0, 1600}},
		{"headroom excludes 1600", []paperSample{{548 * sim.Millisecond, 2667}, {548 * sim.Millisecond, 2667}},
			[]cpufreq.Freq{0, 1867}},
		// A 79% absolute sample at 2667 MHz, then 47% ones at 1600 MHz:
		// the average of the last three wants 1867 MHz while the 79%
		// sample is among them (samples 2 and 3), and 1600 MHz once it
		// is not (sample 4).
		{"three-sample average", []paperSample{
			{790 * sim.Millisecond, 2667},
			{783 * sim.Millisecond, 1600},
			{783 * sim.Millisecond, 1600},
			{783 * sim.Millisecond, 1600},
		}, []cpufreq.Freq{0, 1867, 1867, 0}},
	} {
		if got := paperTicks(NewPaperOndemand(nil), tt.samples); !slices.Equal(got, tt.want) {
			t.Errorf("%s: decisions %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestPaperOndemandIsStableAroundBoundary(t *testing.T) {
	// A load hovering just under a capacity boundary must not flap, thanks
	// to the averaging, headroom and down-stability.
	g := NewPaperOndemand(nil)
	busy := sim.Time(0)
	changes := 0
	cur := cpufreq.Freq(2667)
	for i := 1; i <= 60; i++ {
		// ~52-54% utilization at max: absolute 52-54, fluctuating.
		d := 520 + 20*(i%2)
		busy += sim.Time(d) * sim.Millisecond
		if f, ok := g.Tick(stat(sim.Time(i)*sim.Second, busy, cur)); ok && f != cur {
			changes++
			cur = f
		}
	}
	if changes > 2 {
		t.Errorf("frequency changed %d times under steady load, want <= 2", changes)
	}
}

// TestPaperOndemandUsesCFTable: with cf = 0.5 at the minimum frequency
// its capacity is 30%, so a sustained 29% absolute load (31.9% with
// headroom) lowers the frequency to 1867, not 1600 as at cf = 1.
func TestPaperOndemandUsesCFTable(t *testing.T) {
	g := NewPaperOndemand([]float64{0.5, 1, 1, 1, 1})
	g.Tick(stat(sim.Second, 290*sim.Millisecond, 2667))
	if f, ok := g.Tick(stat(2*sim.Second, 580*sim.Millisecond, 2667)); !ok || f != 1867 {
		t.Errorf("Tick = %v, %v; want 1867, true", f, ok)
	}
}

// TestPaperOndemandReadsNonPositiveCFAsOne: the governor reads its CF
// table through core.CFAt, like PAS, so a non-positive entry counts as
// cf = 1 and its P-state stays selectable.
func TestPaperOndemandReadsNonPositiveCFAsOne(t *testing.T) {
	for _, cf := range [][]float64{nil, {0, 1, 1, 1, 1}, {-1, 1, 1, 1, 1}} {
		g := NewPaperOndemand(cf)
		// 20% utilization at max is 20% absolute, well inside 1600 MHz's
		// 60% capacity at cf = 1. The first sample proposes the drop and
		// the second, agreeing, takes it.
		g.Tick(stat(sim.Second, 200*sim.Millisecond, 2667))
		if f, ok := g.Tick(stat(2*sim.Second, 400*sim.Millisecond, 2667)); !ok || f != 1600 {
			t.Errorf("CF %v: Tick = %v, %v; want 1600, true", cf, f, ok)
		}
	}
}

func TestClampedGovernorEnforcesFloor(t *testing.T) {
	inner := NewLinuxOndemand()
	g := &Clamped{Inner: inner, FloorIndex: 2} // floor = 2133 on the Optiplex
	// 20% load would send stock ondemand to 1600; the clamp raises it.
	f, ok := g.Tick(stat(10*sim.Millisecond, 2*sim.Millisecond, 2667))
	if !ok || f != 2133 {
		t.Errorf("clamped decision = %v, %v; want 2133, true", f, ok)
	}
	if g.Name() != "ondemand-clamped" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestClampedGovernorPassesHighDecisions(t *testing.T) {
	inner := NewLinuxOndemand()
	g := &Clamped{Inner: inner, FloorIndex: 1}
	// Saturated: stock ondemand says max; the clamp must not lower it.
	f, ok := g.Tick(stat(10*sim.Millisecond, 9500*sim.Microsecond, 1600))
	if !ok || f != 2667 {
		t.Errorf("clamped high decision = %v, %v; want 2667, true", f, ok)
	}
}

// TestClampedGovernorBoundsFloorIndex: an out-of-range floor index is
// clamped to the ladder, below it to the lowest P-state and above it to
// the highest. Each case gets its own inner governor, so each one samples.
func TestClampedGovernorBoundsFloorIndex(t *testing.T) {
	for _, tt := range []struct {
		idx  int
		want cpufreq.Freq
	}{{-3, 1600}, {99, 2667}} {
		g := &Clamped{Inner: NewLinuxOndemand(), FloorIndex: tt.idx}
		// 20% load would send stock ondemand to 1600.
		if f, ok := g.Tick(stat(10*sim.Millisecond, 2*sim.Millisecond, 2667)); !ok || f != tt.want {
			t.Errorf("FloorIndex %d: Tick = %v, %v; want %v, true", tt.idx, f, ok, tt.want)
		}
	}
}

func TestClampedGovernorForwardsNoDecision(t *testing.T) {
	inner := NewPaperOndemand(nil)
	g := &Clamped{Inner: inner, FloorIndex: 1}
	// Below the inner governor's sampling interval: no decision at all.
	if _, ok := g.Tick(stat(sim.Millisecond, 0, 2667)); ok {
		t.Error("clamped governor invented a decision")
	}
}
