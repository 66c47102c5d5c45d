package fleet

import (
	"math"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
)

// refEstimate is the ladder-walk estimator powerTable replaces, kept as
// its reference: the PAS operating point from core.ComputeNewFreq over
// the profile's efficiency table, the utilization division and clamp,
// then Profile.Power.
func refEstimate(prof *cpufreq.Profile, margin, absLoadPct float64) float64 {
	f := core.ComputeNewFreq(prof, prof.EfficiencyTable(), absLoadPct*(1+margin))
	util := 0.0
	if eff, err := prof.Efficiency(f); err == nil && eff > 0 {
		util = absLoadPct / 100 / (prof.Ratio(f) * eff)
	}
	if util > 1 {
		util = 1
	}
	w, err := prof.Power(f, util)
	if err != nil {
		return 0
	}
	return w
}

// TestPowerTableBitExact holds the table estimator to the reference
// bit for bit (math.Float64bits) on every shipped profile and three
// margins — none, the policy's dvfsMargin and a wide 0.2, since watts
// takes the scale as an argument — at the loads where a rounding slip
// would show: each ladder threshold divided by 1+margin and one ulp
// either side, zero, the tiny negative residues paired float
// reserve/release leaves behind, and a dense sweep past 100% where the
// utilization clamp engages.
func TestPowerTableBitExact(t *testing.T) {
	profiles := cpufreq.Table1Profiles()
	for _, mc := range DefaultEstate(3) {
		profiles = append(profiles, mc.Spec.Profile)
	}
	for _, margin := range []float64{0, dvfsMargin, 0.2} {
		for _, prof := range profiles {
			scale := 1 + margin
			loads := []float64{0, math.Copysign(0, -1), -1e-13, -1e-15, 1e-13, 100, 1000}
			for i, s := range prof.States {
				thr := prof.Ratio(s.Freq) * 100 * prof.EfficiencyTable()[i]
				at := thr / scale
				loads = append(loads, at, math.Nextafter(at, math.Inf(-1)), math.Nextafter(at, math.Inf(1)))
			}
			for k := 0; k <= 15000; k++ {
				loads = append(loads, float64(k)/100)
			}
			tab := newPowerTable(prof)
			for _, load := range loads {
				got, want := tab.watts(load, scale), refEstimate(prof, margin, load)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s margin %v load %v (%#x): table %v (%#x) != reference %v (%#x)",
						prof.Name, margin, load, math.Float64bits(load),
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
