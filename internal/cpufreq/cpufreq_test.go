package cpufreq

import (
	"math"
	"testing"
	"testing/quick"

	"pasched/internal/sim"
)

func TestPredefinedProfilesValid(t *testing.T) {
	profs := append(Table1Profiles(), Optiplex755(), Elite8300())
	for _, p := range profs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := func() *Profile { return Optiplex755() }

	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"too few states", func(p *Profile) { p.States = p.States[:1] }},
		{"not ascending", func(p *Profile) { p.States[1].Freq = p.States[0].Freq }},
		{"zero frequency", func(p *Profile) { p.States[0].Freq = 0 }},
		{"efficiency zero", func(p *Profile) { p.States[0].Efficiency = 0 }},
		{"efficiency above one", func(p *Profile) { p.States[0].Efficiency = 1.5 }},
		{"top efficiency not one", func(p *Profile) { p.States[len(p.States)-1].Efficiency = 0.99 }},
		{"non-positive voltage", func(p *Profile) { p.States[2].Voltage = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted an invalid profile")
			}
		})
	}
}

func TestValidateNilProfile(t *testing.T) {
	var p *Profile
	if err := p.Validate(); err == nil {
		t.Error("Validate(nil) succeeded, want error")
	}
}

func TestOptiplexLadderMatchesPaper(t *testing.T) {
	// The ladder on the right-hand axis of Figures 2-10.
	want := []Freq{1600, 1867, 2133, 2400, 2667}
	got := Optiplex755().Frequencies()
	if len(got) != len(want) {
		t.Fatalf("ladder %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ladder[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTable1MinEfficiencies(t *testing.T) {
	// Ground-truth efficiency at the minimum frequency must equal the
	// cf_min the paper reports in Table 1: the calibration procedure then
	// recovers these by measurement.
	want := map[string]float64{
		"Intel Xeon X3440":    0.94867,
		"Intel Xeon L5420":    0.99903,
		"Intel Xeon E5-2620":  0.80338,
		"AMD Opteron 6164 HE": 0.99508,
		"Intel Core i7-3770":  0.86206,
	}
	for _, p := range Table1Profiles() {
		eff, err := p.Efficiency(p.Min())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected profile %q", p.Name)
		}
		if math.Abs(eff-w) > 1e-9 {
			t.Errorf("%s: min efficiency = %v, want %v", p.Name, eff, w)
		}
	}
}

func TestIndexAndNearest(t *testing.T) {
	p := Optiplex755()
	if i, err := p.Index(2133); err != nil || i != 2 {
		t.Errorf("Index(2133) = %d, %v; want 2, nil", i, err)
	}
	if _, err := p.Index(2000); err == nil {
		t.Error("Index(2000) succeeded for unsupported frequency")
	}

	tests := []struct {
		in, want Freq
	}{
		{1500, 1600},
		{1600, 1600},
		{1700, 1600},
		{1750, 1867}, // closer to 1867 than 1600
		{2660, 2667},
		{3000, 2667},
		{2000, 2133}, // |2000-1867| == |2133-2000|: tie prefers higher
	}
	for _, tt := range tests {
		if got := p.Nearest(tt.in); got != tt.want {
			t.Errorf("Nearest(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFloorFor(t *testing.T) {
	p := Optiplex755()
	tests := []struct {
		in, want Freq
	}{
		{0, 1600},
		{1600, 1600},
		{1601, 1867},
		{2667, 2667},
		{9999, 2667},
	}
	for _, tt := range tests {
		if got := p.FloorFor(tt.in); got != tt.want {
			t.Errorf("FloorFor(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRatioAndThroughput(t *testing.T) {
	p := Optiplex755()
	if r := p.Ratio(2667); r != 1 {
		t.Errorf("Ratio(max) = %v, want 1", r)
	}
	wantRatio := 1600.0 / 2667.0
	if r := p.Ratio(1600); math.Abs(r-wantRatio) > 1e-12 {
		t.Errorf("Ratio(1600) = %v, want %v", r, wantRatio)
	}
	tp, err := p.Throughput(2667)
	if err != nil {
		t.Fatal(err)
	}
	if tp != 2667e6 {
		t.Errorf("Throughput(max) = %v, want 2667e6", tp)
	}
	// Optiplex has ideal efficiency: throughput scales exactly with f.
	tpLow, err := p.Throughput(1600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tpLow-1600e6) > 1 {
		t.Errorf("Throughput(1600) = %v, want 1600e6", tpLow)
	}
}

func TestThroughputReflectsEfficiency(t *testing.T) {
	p := XeonE5_2620()
	tp, err := p.Throughput(p.Min())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p.Min()) * 1e6 * 0.80338
	if math.Abs(tp-want) > 1 {
		t.Errorf("Throughput(min) = %v, want %v", tp, want)
	}
}

func TestPowerMonotonicInFreqAndUtil(t *testing.T) {
	p := Optiplex755()
	prevBusy := 0.0
	for _, f := range p.Frequencies() {
		idle, err := p.Power(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		busy, err := p.Power(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if busy <= idle {
			t.Errorf("Power(%v, busy) = %v not above idle %v", f, busy, idle)
		}
		if busy <= prevBusy {
			t.Errorf("busy power not increasing with frequency at %v", f)
		}
		prevBusy = busy
	}
}

func TestPowerClampsUtil(t *testing.T) {
	p := Optiplex755()
	lo, _ := p.Power(1600, -2)
	lo0, _ := p.Power(1600, 0)
	hi, _ := p.Power(1600, 5)
	hi1, _ := p.Power(1600, 1)
	if lo != lo0 || hi != hi1 {
		t.Errorf("Power does not clamp utilization: %v/%v, %v/%v", lo, lo0, hi, hi1)
	}
}

func TestPowerUnsupportedFreq(t *testing.T) {
	p := Optiplex755()
	if _, err := p.Power(1234, 0.5); err == nil {
		t.Error("Power(unsupported) succeeded")
	}
}

func TestCPUBootsAtMax(t *testing.T) {
	c, err := NewCPU(Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	if c.Freq() != 2667 {
		t.Errorf("boot frequency = %v, want 2667", c.Freq())
	}
	if c.Ratio() != 1 || c.Efficiency() != 1 {
		t.Errorf("boot ratio/eff = %v/%v, want 1/1", c.Ratio(), c.Efficiency())
	}
}

func TestNewCPURejectsInvalidProfile(t *testing.T) {
	p := Optiplex755()
	p.States = p.States[:1]
	if _, err := NewCPU(p); err == nil {
		t.Error("NewCPU accepted invalid profile")
	}
}

func TestCPUTransitionLatency(t *testing.T) {
	prof := Optiplex755()
	c, err := NewCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Level is the cached ladder position of Freq, so it must agree with
	// the profile's search before, during and after the transition.
	checkLevel := func(when string) {
		t.Helper()
		want, err := prof.Index(c.Freq())
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Level(); got != want {
			t.Errorf("%s Level() = %d, want Index(%v) = %d", when, got, c.Freq(), want)
		}
	}
	checkLevel("initial")
	now := sim.Time(0)
	if err := c.SetFreq(1600, now); err != nil {
		t.Fatal(err)
	}
	checkLevel("pending")
	// Before the latency elapses the old frequency is still in force.
	c.Advance(now + prof.TransitionLatency/2)
	if c.Freq() != 2667 {
		t.Errorf("mid-transition Freq() = %v, want 2667", c.Freq())
	}
	checkLevel("mid-transition")
	c.Advance(now + prof.TransitionLatency)
	if c.Freq() != 1600 {
		t.Errorf("post-transition Freq() = %v, want 1600", c.Freq())
	}
	checkLevel("post-transition")
	if c.Transitions() != 1 {
		t.Errorf("Transitions() = %d, want 1", c.Transitions())
	}
}

func TestCPUSetFreqNoopAndErrors(t *testing.T) {
	c, err := NewCPU(Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFreq(2667, 0); err != nil {
		t.Fatalf("SetFreq(current): %v", err)
	}
	c.Advance(sim.Second)
	if c.Transitions() != 0 {
		t.Errorf("no-op SetFreq counted a transition")
	}
	if err := c.SetFreq(1234, 0); err == nil {
		t.Error("SetFreq(unsupported) succeeded")
	}
}

func TestCPUResidencyAccounting(t *testing.T) {
	c, err := NewCPU(Optiplex755())
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(2 * sim.Second)
	if err := c.SetFreq(1600, 2*sim.Second); err != nil {
		t.Fatal(err)
	}
	c.Advance(2*sim.Second + sim.Millisecond) // transition done (100us)
	c.Advance(5 * sim.Second)
	gotMax := c.Residency(2667)
	gotMin := c.Residency(1600)
	if gotMax < 2*sim.Second || gotMax > 2*sim.Second+2*sim.Millisecond {
		t.Errorf("residency(2667) = %v, want ~2s", gotMax)
	}
	if gotMin < 2900*sim.Millisecond || gotMin > 3*sim.Second {
		t.Errorf("residency(1600) = %v, want ~3s", gotMin)
	}
	if got := c.Residency(1700); got != 0 {
		t.Errorf("residency(1700), off the ladder, = %v, want 0", got)
	}

	// Across a transition the old frequency keeps accruing until the
	// switch completes, and the new one from then on.
	if err := c.SetFreq(2133, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	c.Advance(5*sim.Second + 50*sim.Microsecond) // still in flight
	if got := c.Freq(); got != 1600 {
		t.Fatalf("frequency mid-transition = %v, want 1600", got)
	}
	c.Advance(5*sim.Second + 100*sim.Microsecond) // completes
	c.Advance(5*sim.Second + 300*sim.Microsecond)
	if got := c.Residency(1600); got != gotMin+100*sim.Microsecond {
		t.Errorf("residency(1600) after the transition = %v, want %v", got, gotMin+100*sim.Microsecond)
	}
	if got := c.Residency(2133); got != 200*sim.Microsecond {
		t.Errorf("residency(2133) = %v, want 200us", got)
	}
	if got := c.Residency(2667); got != gotMax {
		t.Errorf("residency(2667) moved to %v, want %v", got, gotMax)
	}
}

func TestQuickNearestIsSupported(t *testing.T) {
	p := Elite8300()
	supported := make(map[Freq]bool)
	for _, f := range p.Frequencies() {
		supported[f] = true
	}
	f := func(raw uint16) bool {
		return supported[p.Nearest(Freq(raw))]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickRatioBounds(t *testing.T) {
	// Property: for every profile and supported frequency, 0 < ratio <= 1
	// and ratio==1 only at the max frequency.
	for _, p := range append(Table1Profiles(), Optiplex755(), Elite8300()) {
		for _, f := range p.Frequencies() {
			r := p.Ratio(f)
			if r <= 0 || r > 1 {
				t.Errorf("%s: Ratio(%v) = %v out of (0,1]", p.Name, f, r)
			}
			if r == 1 && f != p.Max() {
				t.Errorf("%s: Ratio(%v) = 1 below max", p.Name, f)
			}
		}
	}
}
