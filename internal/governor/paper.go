package governor

import (
	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// The paper's governor settings (Section 5.4).
const (
	// paperInterval is the sampling window.
	paperInterval = sim.Second
	// paperSamples is the number of successive utilizations averaged,
	// the paper's footnote 5.
	paperSamples = 3
	// paperHeadroom is the spare capacity fraction required above the
	// averaged absolute load before a frequency is sufficient.
	paperHeadroom = 0.10
	// paperUpThreshold is the raw utilization percentage treated as
	// saturation (the kernel's ondemand default): at or above it the
	// governor jumps straight to the maximum frequency. A host full of
	// hard-capped VMs saturates below 100%, and its *measured* absolute
	// load (work delivered, not demanded) always fits the current
	// capacity.
	paperUpThreshold = 80
	// paperDownStability is the number of consecutive samples that must
	// agree on a lower target before the governor lowers the frequency;
	// raising is immediate.
	paperDownStability = 2
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
	sampler   utilSampler
	ring      [paperSamples]float64 // absolute-load samples, percent
	idx       int
	filled    int
	downRuns  int
	downWants cpufreq.Freq
	cf        []float64
}

// NewPaperOndemand returns the paper's smoothed governor. cf is the
// per-P-state calibration factor table (the paper's CF[]) in ladder
// order; nil assumes cf = 1 everywhere.
func NewPaperOndemand(cf []float64) *PaperOndemand {
	return &PaperOndemand{sampler: utilSampler{interval: paperInterval}, cf: cf}
}

// Name implements Governor.
func (g *PaperOndemand) Name() string { return "paper-ondemand" }

// NextDecision implements Governor: the sampler's next window end.
func (g *PaperOndemand) NextDecision(Stats) sim.Time { return g.sampler.next() }

// Tick implements Governor.
func (g *PaperOndemand) Tick(st Stats) (cpufreq.Freq, bool) {
	util, ok := g.sampler.sample(st)
	if !ok {
		return 0, false
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
	if util*100 >= paperUpThreshold {
		g.downRuns = 0
		if st.Cur == st.Prof.Max() {
			return 0, false
		}
		return st.Prof.Max(), true
	}

	// The lowest frequency whose capacity absorbs the averaged absolute
	// load plus headroom: Listing 1.1 with a stability margin.
	target := core.ComputeNewFreq(st.Prof, g.cf, avg*(1+paperHeadroom))
	switch {
	case target > st.Cur:
		g.downRuns = 0
		return target, true
	case target < st.Cur:
		if target != g.downWants {
			g.downWants = target
			g.downRuns = 0
		}
		g.downRuns++
		if g.downRuns < paperDownStability {
			return 0, false
		}
		g.downRuns = 0
		return target, true
	default:
		g.downRuns = 0
		return 0, false
	}
}
