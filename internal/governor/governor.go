// Package governor implements the DVFS governors discussed in Sections 2.2
// and 5.4 of the paper:
//
//   - Performance, Powersave, Conservative: the standard Linux cpufreq
//     governors.
//   - LinuxOndemand: the stock Ondemand governor, which the paper found
//     "quite aggressive and unstable" (Figure 3).
//   - PaperOndemand: the paper's own governor, "less aggressive and more
//     stable, and consequently saves less energy" (Figure 4). It averages
//     three successive utilization samples (the paper's footnote 5) and
//     selects frequencies on the absolute load with hysteresis.
//
// Governors are passive policies: the host calls Tick every scheduling
// quantum with cumulative counters, and the governor answers with a target
// frequency when its internal sampling period has elapsed. Each governor
// runs at fixed settings: the kernel defaults for the stock governors, and
// the paper's for its own.
package governor

import (
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// Stats is the signal a governor observes. All counters are cumulative
// since the start of the simulation so that governors can compute
// utilizations over their own sampling windows by differencing.
type Stats struct {
	// Now is the current simulated time.
	Now sim.Time
	// CumBusy is the total busy CPU time so far.
	CumBusy sim.Time
	// CumWork is the total executed work so far, in exact integer
	// sim.Work.
	CumWork sim.Work
	// Cur is the current processor frequency.
	Cur cpufreq.Freq
	// Prof is the processor's architecture profile.
	Prof *cpufreq.Profile
}

// Governor decides the processor frequency from observed utilization.
// Implementations are not safe for concurrent use.
type Governor interface {
	// Name identifies the policy, e.g. "ondemand".
	Name() string
	// Tick observes the current statistics. It returns the desired
	// frequency and true when the governor wants the frequency (re)set;
	// (0, false) means no decision this quantum.
	Tick(stats Stats) (cpufreq.Freq, bool)
	// NextDecision returns the earliest time at or after which Tick may
	// return a decision or mutate governor state, given the current
	// statistics; sim.Never means no pending decision. Until then Tick
	// is a pure no-op, so the simulation engine skips the per-quantum
	// Tick calls inside a batched step.
	NextDecision(st Stats) sim.Time
}

// Performance pins the processor at the maximum frequency.
type Performance struct {
	applied bool
}

// Name implements Governor.
func (g *Performance) Name() string { return "performance" }

// Tick implements Governor.
func (g *Performance) Tick(st Stats) (cpufreq.Freq, bool) {
	if g.applied && st.Cur == st.Prof.Max() {
		return 0, false
	}
	g.applied = true
	return st.Prof.Max(), true
}

// NextDecision implements Governor.
func (g *Performance) NextDecision(st Stats) sim.Time {
	if g.applied && st.Cur == st.Prof.Max() {
		return sim.Never
	}
	return st.Now
}

// Powersave pins the processor at the minimum frequency.
type Powersave struct {
	applied bool
}

// Name implements Governor.
func (g *Powersave) Name() string { return "powersave" }

// Tick implements Governor.
func (g *Powersave) Tick(st Stats) (cpufreq.Freq, bool) {
	if g.applied && st.Cur == st.Prof.Min() {
		return 0, false
	}
	g.applied = true
	return st.Prof.Min(), true
}

// NextDecision implements Governor.
func (g *Powersave) NextDecision(st Stats) sim.Time {
	if g.applied && st.Cur == st.Prof.Min() {
		return sim.Never
	}
	return st.Now
}

// Clamped wraps a governor and bounds its decisions to a floor P-state.
// It models hypervisor power policies that do not use the deepest
// P-states (e.g. "balanced" policies on commercial hypervisors): the
// wrapped governor's decisions below the floor are raised to the floor.
type Clamped struct {
	// Inner is the wrapped governor. Required.
	Inner Governor
	// FloorIndex is the lowest P-state index the policy may select.
	FloorIndex int
}

// Name implements Governor.
func (c *Clamped) Name() string { return c.Inner.Name() + "-clamped" }

// Tick implements Governor.
func (c *Clamped) Tick(st Stats) (cpufreq.Freq, bool) {
	f, ok := c.Inner.Tick(st)
	if !ok {
		return 0, false
	}
	idx := c.FloorIndex
	if idx < 0 {
		idx = 0
	}
	if idx >= st.Prof.Levels() {
		idx = st.Prof.Levels() - 1
	}
	if floor := st.Prof.States[idx].Freq; f < floor {
		f = floor
	}
	return f, true
}

// NextDecision implements Governor by delegating to the wrapped governor.
func (c *Clamped) NextDecision(st Stats) sim.Time { return c.Inner.NextDecision(st) }

// utilSampler computes utilization over fixed sampling intervals from the
// cumulative busy counter.
type utilSampler struct {
	interval sim.Time
	lastT    sim.Time
	lastBusy sim.Time
}

// sample returns (utilization, true) when a full interval has elapsed.
func (s *utilSampler) sample(st Stats) (float64, bool) {
	if st.Now-s.lastT < s.interval {
		return 0, false
	}
	util := float64(st.CumBusy-s.lastBusy) / float64(st.Now-s.lastT)
	s.lastT = st.Now
	s.lastBusy = st.CumBusy
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return util, true
}

// next returns the earliest time the sampler can produce a sample.
func (s *utilSampler) next() sim.Time { return s.lastT + s.interval }

// The stock ondemand governor's settings: the kernel's default
// sampling_rate in the Xen 4.1 era and its default up_threshold.
const (
	ondemandInterval    = 10 * sim.Millisecond
	ondemandUpThreshold = 80 // percent load
)

// LinuxOndemand models the stock Ondemand governor: it samples utilization
// over short windows and, on every sample, either jumps straight to the
// maximum frequency (load at or above the up-threshold) or drops to the
// lowest frequency that would keep the observed load below the threshold.
// The short memoryless window is what makes it oscillate under bursty web
// load (Figure 3).
type LinuxOndemand struct {
	sampler utilSampler
}

// NewLinuxOndemand returns a stock-ondemand governor.
func NewLinuxOndemand() *LinuxOndemand {
	return &LinuxOndemand{sampler: utilSampler{interval: ondemandInterval}}
}

// Name implements Governor.
func (g *LinuxOndemand) Name() string { return "ondemand" }

// Tick implements Governor.
func (g *LinuxOndemand) Tick(st Stats) (cpufreq.Freq, bool) {
	util, ok := g.sampler.sample(st)
	if !ok {
		return 0, false
	}
	load := util * 100
	if load >= ondemandUpThreshold {
		return st.Prof.Max(), true
	}
	// Scale down to the lowest frequency that keeps the load under the
	// threshold: load scales by cur/f when moving to frequency f.
	needed := float64(st.Cur) * load / ondemandUpThreshold
	return st.Prof.FloorFor(cpufreq.Freq(needed + 1)), true
}

// NextDecision implements Governor: the sampler's next window end.
func (g *LinuxOndemand) NextDecision(Stats) sim.Time { return g.sampler.next() }

// The conservative governor's settings: a 100 ms window, and the
// kernel's default up (80 %) and down (20 %) thresholds.
const (
	conservativeInterval      = 100 * sim.Millisecond
	conservativeUpThreshold   = 80 // percent load
	conservativeDownThreshold = 20 // percent load
)

// Conservative models the Linux conservative governor: it moves one ladder
// step at a time, up when load exceeds the up-threshold and down when load
// falls below the down-threshold.
type Conservative struct {
	sampler utilSampler
}

// NewConservative returns a conservative governor.
func NewConservative() *Conservative {
	return &Conservative{sampler: utilSampler{interval: conservativeInterval}}
}

// Name implements Governor.
func (g *Conservative) Name() string { return "conservative" }

// Tick implements Governor.
func (g *Conservative) Tick(st Stats) (cpufreq.Freq, bool) {
	util, ok := g.sampler.sample(st)
	if !ok {
		return 0, false
	}
	load := util * 100
	idx, err := st.Prof.Index(st.Cur)
	if err != nil {
		return 0, false
	}
	switch {
	case load > conservativeUpThreshold && idx < st.Prof.Levels()-1:
		return st.Prof.States[idx+1].Freq, true
	case load < conservativeDownThreshold && idx > 0:
		return st.Prof.States[idx-1].Freq, true
	}
	return 0, false
}

// NextDecision implements Governor: the sampler's next window end.
func (g *Conservative) NextDecision(Stats) sim.Time { return g.sampler.next() }
