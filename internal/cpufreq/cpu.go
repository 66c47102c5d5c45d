package cpufreq

import (
	"fmt"

	"pasched/internal/sim"
)

// CPU is a single simulated processor core with a current P-state. It is
// the object governors and the PAS scheduler act on, playing the role of
// the cpufreq driver: it validates requested frequencies, applies the
// transition latency, and keeps transition statistics.
type CPU struct {
	prof        *Profile
	cur         Freq
	curIdx      int      // ladder position of cur
	pending     Freq     // target of an in-flight transition, 0 if none
	pendingIdx  int      // ladder position of pending
	switchAt    sim.Time // when the in-flight transition completes
	transitions int
	residency   []sim.Time // accumulated time per ladder position
	lastUpdate  sim.Time
	rateFreq    Freq     // frequency the cached WorkRate was computed for
	rate        sim.Work // cached exact work rate at rateFreq, per microsecond
}

// NewCPU returns a CPU running profile prof at its maximum frequency (the
// state a machine boots governors from). It returns an error if the profile
// is invalid.
func NewCPU(prof *Profile) (*CPU, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &CPU{
		prof:      prof,
		cur:       prof.Max(),
		curIdx:    prof.Levels() - 1,
		residency: make([]sim.Time, prof.Levels()),
	}, nil
}

// Profile returns the architecture profile of the CPU.
func (c *CPU) Profile() *Profile { return c.prof }

// Freq returns the frequency the core is currently running at. An in-flight
// transition keeps the old frequency until it completes.
func (c *CPU) Freq() Freq { return c.cur }

// Level returns the ladder position of Freq(): Profile().Index(Freq())
// without the search, since the CPU only ever runs ladder frequencies.
func (c *CPU) Level() int { return c.curIdx }

// Transitions returns the number of completed frequency switches.
func (c *CPU) Transitions() int { return c.transitions }

// Residency returns the accumulated simulated time spent at frequency f, as
// of the last Advance call; 0 for a frequency outside the ladder.
func (c *CPU) Residency(f Freq) sim.Time {
	i, err := c.prof.Index(f)
	if err != nil {
		return 0
	}
	return c.residency[i]
}

// SetFreq requests a switch to frequency f at time now. The switch
// completes after the profile's transition latency; requesting the current
// frequency is a no-op. Unsupported frequencies return an error.
func (c *CPU) SetFreq(f Freq, now sim.Time) error {
	idx, err := c.prof.Index(f)
	if err != nil {
		return fmt.Errorf("cpufreq: set frequency: %w", err)
	}
	if f == c.cur && c.pending == 0 {
		return nil
	}
	if c.pending != 0 && f == c.pending {
		return nil
	}
	c.pending, c.pendingIdx = f, idx
	c.switchAt = now + c.prof.TransitionLatency
	return nil
}

// PendingSwitch reports an in-flight frequency transition: the target
// frequency, the time it completes, and whether one exists. The
// simulation engine stops batched steps at the completion time so the
// quantum that observes the new frequency runs with reference semantics.
func (c *CPU) PendingSwitch() (Freq, sim.Time, bool) {
	if c.pending == 0 {
		return 0, 0, false
	}
	return c.pending, c.switchAt, true
}

// Advance accounts residency up to time now and completes any due pending
// transition. The host calls it once per scheduling quantum before using
// the CPU's throughput.
func (c *CPU) Advance(now sim.Time) {
	if now > c.lastUpdate {
		c.residency[c.curIdx] += now - c.lastUpdate
		c.lastUpdate = now
	}
	if c.pending != 0 && now >= c.switchAt {
		if c.pending != c.cur {
			c.cur, c.curIdx = c.pending, c.pendingIdx
			c.transitions++
		}
		c.pending = 0
	}
}

// Throughput returns the current compute capacity in work units per
// simulated second (see Profile.Throughput).
func (c *CPU) Throughput() float64 {
	tp, err := c.prof.Throughput(c.cur)
	if err != nil {
		// The current frequency is always a member of the ladder; an
		// error here would mean corrupted internal state.
		return float64(c.prof.Max()) * 1e6
	}
	return tp
}

// WorkRate returns the current exact integer compute capacity in
// sim.Work per microsecond (see Profile.WorkRate). The per-frequency
// value is cached: frequencies change rarely while the host reads the
// rate every quantum.
func (c *CPU) WorkRate() sim.Work {
	if c.cur != c.rateFreq {
		r, err := c.prof.WorkRate(c.cur)
		if err != nil {
			// The current frequency is always a member of the ladder.
			r = sim.Work(int64(c.prof.Max())) * sim.WorkUnit
		}
		c.rateFreq, c.rate = c.cur, r
	}
	return c.rate
}

// Ratio returns the paper's ratio for the current frequency:
// Freq()/Profile().Max().
func (c *CPU) Ratio() float64 { return c.prof.Ratio(c.cur) }

// Efficiency returns the ground-truth efficiency at the current frequency.
func (c *CPU) Efficiency() float64 {
	eff, err := c.prof.Efficiency(c.cur)
	if err != nil {
		return 1
	}
	return eff
}

// Power returns the present power draw in watts at utilization util.
func (c *CPU) Power(util float64) float64 {
	p, err := c.prof.Power(c.cur, util)
	if err != nil {
		return c.prof.StaticPower
	}
	return p
}
