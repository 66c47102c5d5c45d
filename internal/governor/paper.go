package governor

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// PaperOndemand is the paper's own ondemand governor ("we implemented our
// own (ondemand) governor, which is less aggressive and more stable, and
// consequently saves less energy", Section 5.4). Its differences from the
// stock governor:
//
//   - it samples over longer windows and averages the last three samples,
//     the paper's definition of the Global load (footnote 5);
//   - it reasons in absolute load (the load the current consumption would
//     represent at the maximum frequency, Section 4) so that decisions are
//     comparable across frequencies;
//   - it selects the lowest frequency whose capacity absorbs the absolute
//     load with a headroom margin, and only lowers the frequency after the
//     decision has been stable for several consecutive samples.
type PaperOndemand struct {
	cfg       PaperOndemandConfig
	lastT     sim.Time
	lastBusy  sim.Time
	ring      []float64 // absolute-load samples, percent
	idx       int
	filled    int
	downRuns  int
	downWants cpufreq.Freq
	cf        []float64
}

// PaperOndemandConfig configures the paper's governor.
type PaperOndemandConfig struct {
	// SamplingInterval defaults to 1 s.
	SamplingInterval sim.Time
	// Samples is the number of successive utilizations averaged;
	// default 3, matching the paper's footnote.
	Samples int
	// Headroom is the required spare capacity fraction above the
	// absolute load before a frequency is considered sufficient.
	// Zero selects the default of 0.10; to run without headroom use a
	// very small positive value.
	Headroom float64
	// UpThreshold is the raw utilization percentage that is treated as
	// saturation: at or above it the governor jumps straight to the
	// maximum frequency, like the stock ondemand governor. This matters
	// because a host full of hard-capped VMs saturates below 100% and
	// its *measured* absolute load (work delivered, not demanded) always
	// fits the current capacity. Zero selects the default of 80 (the
	// kernel default).
	UpThreshold float64
	// DownStability is the number of consecutive samples a lower target
	// must persist before the governor lowers the frequency; raising is
	// immediate. Default 2.
	DownStability int
	// CF is the per-P-state calibration factor table (the paper's CF[]);
	// nil assumes cf=1 everywhere. When set, its length must equal the
	// profile's number of P-states.
	CF []float64
}

// NewPaperOndemand returns the paper's smoothed governor.
func NewPaperOndemand(cfg PaperOndemandConfig) (*PaperOndemand, error) {
	if cfg.SamplingInterval == 0 {
		cfg.SamplingInterval = sim.Second
	}
	if cfg.SamplingInterval < 0 {
		return nil, fmt.Errorf("governor: negative sampling interval %v", cfg.SamplingInterval)
	}
	if cfg.Samples == 0 {
		cfg.Samples = 3
	}
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("governor: samples must be >= 1, got %d", cfg.Samples)
	}
	if cfg.Headroom < 0 {
		return nil, fmt.Errorf("governor: negative headroom %v", cfg.Headroom)
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 0.10
	}
	if cfg.UpThreshold == 0 {
		cfg.UpThreshold = 80
	}
	if cfg.UpThreshold <= 0 || cfg.UpThreshold > 100 {
		return nil, fmt.Errorf("governor: up-threshold %v outside (0,100]", cfg.UpThreshold)
	}
	if cfg.DownStability < 1 {
		cfg.DownStability = 2
	}
	return &PaperOndemand{
		cfg:  cfg,
		ring: make([]float64, cfg.Samples),
		cf:   cfg.CF,
	}, nil
}

// Name implements Governor.
func (g *PaperOndemand) Name() string { return "paper-ondemand" }

// NextDecision implements DecisionHorizon: the end of the current
// sampling window.
func (g *PaperOndemand) NextDecision(Stats) sim.Time {
	return g.lastT + g.cfg.SamplingInterval
}

// Tick implements Governor.
func (g *PaperOndemand) Tick(st Stats) (cpufreq.Freq, bool) {
	if st.Now-g.lastT < g.cfg.SamplingInterval {
		return 0, false
	}
	util := float64(st.CumBusy-g.lastBusy) / float64(st.Now-g.lastT)
	g.lastT = st.Now
	g.lastBusy = st.CumBusy
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	// Convert the interval utilization to absolute load using the paper's
	// formula: Absolute = Global * Freq/Freq[max] * cf.
	idx, err := st.Prof.Index(st.Cur)
	if err != nil {
		return 0, false
	}
	abs := core.AbsoluteLoad(util*100, st.Prof.Ratio(st.Cur), core.CFAt(g.cf, idx))
	g.ring[g.idx] = abs
	g.idx = (g.idx + 1) % len(g.ring)
	if g.filled < len(g.ring) {
		g.filled++
	}
	avg := 0.0
	for i := 0; i < g.filled; i++ {
		avg += g.ring[i]
	}
	avg /= float64(g.filled)

	// Saturation escape: a capped host saturates below 100% utilization
	// and its measured absolute load (delivered work, not demanded)
	// always fits the current capacity, so the capacity rule alone would
	// never raise the frequency. Jump to the maximum like the stock
	// governor's up-threshold rule.
	if util*100 >= g.cfg.UpThreshold {
		g.downRuns = 0
		if st.Cur == st.Prof.Max() {
			return 0, false
		}
		return st.Prof.Max(), true
	}

	// The lowest frequency whose capacity absorbs the averaged absolute
	// load plus headroom: Listing 1.1 with a stability margin.
	target := core.ComputeNewFreq(st.Prof, g.cf, avg*(1+g.cfg.Headroom))
	switch {
	case target > st.Cur:
		g.downRuns = 0
		return target, true
	case target < st.Cur:
		if target != g.downWants {
			g.downWants = target
			g.downRuns = 1
			return 0, false
		}
		g.downRuns++
		if g.downRuns >= g.cfg.DownStability {
			g.downRuns = 0
			return target, true
		}
		return 0, false
	default:
		g.downRuns = 0
		return 0, false
	}
}
