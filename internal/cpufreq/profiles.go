package cpufreq

import "pasched/internal/sim"

// The predefined profiles below model the machines used in the paper's
// evaluation. The frequency ladders come from the paper's figures (Optiplex
// 755) and from the public specifications of the named parts; the
// efficiency curves are synthetic substitutes for real microarchitectural
// behaviour, shaped so that the paper's own calibration procedure (Section
// 5.2) recovers the cf_min values reported in Table 1. The Architecture
// section of README.md records this substitution.

// voltageRamp builds a linear voltage ramp from vMin at the lowest state to
// vMax at the highest state.
func voltageRamp(n int, vMin, vMax float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = vMax
		return out
	}
	for i := range out {
		out[i] = vMin + (vMax-vMin)*float64(i)/float64(n-1)
	}
	return out
}

// efficiencyRamp builds an efficiency curve rising linearly (in ladder
// index) from effMin at the lowest state to 1 at the highest state.
func efficiencyRamp(n int, effMin float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := range out {
		out[i] = effMin + (1-effMin)*float64(i)/float64(n-1)
	}
	out[n-1] = 1
	return out
}

func buildProfile(name string, freqs []Freq, effMin, vMin, vMax float64, static, dyn float64) *Profile {
	n := len(freqs)
	volts := voltageRamp(n, vMin, vMax)
	effs := efficiencyRamp(n, effMin)
	states := make([]PState, n)
	for i := range freqs {
		states[i] = PState{Freq: freqs[i], Voltage: volts[i], Efficiency: effs[i]}
	}
	return &Profile{
		Name:              name,
		States:            states,
		TransitionLatency: 100 * sim.Microsecond,
		StaticPower:       static,
		DynCoeff:          dyn,
		IdleFactor:        0.25,
	}
}

// Optiplex755 models the DELL Optiplex 755 (Intel Core 2 Duo E6750,
// 2.66 GHz) used for the main evaluation (Section 5.1), in single-processor
// mode. The five-step ladder 1600..2667 MHz is the one visible on the right
// axis of Figures 2-10. Its efficiency is ideal (cf = 1 at every
// frequency), matching the paper's observation that cf is "very close to 1"
// on this machine.
func Optiplex755() *Profile {
	return buildProfile("DELL Optiplex 755 (Core 2 Duo 2.66GHz)",
		[]Freq{1600, 1867, 2133, 2400, 2667},
		1.0, 0.95, 1.20, 18, 10)
}

// Elite8300 models the HP Compaq Elite 8300 (Intel Core i7-3770, 3.4 GHz)
// used for the cross-platform comparison of Table 2. Its measured cf_min is
// 0.86206 (Table 1, i7-3770 column).
func Elite8300() *Profile {
	return buildProfile("HP Compaq Elite 8300 (Core i7-3770 3.4GHz)",
		[]Freq{1600, 2100, 2600, 3100, 3400},
		0.86206, 0.90, 1.15, 15, 11)
}

// XeonX3440 models the Intel Xeon X3440 (Grid'5000), cf_min 0.94867
// (Table 1). Many Grid'5000 parts expose only two frequencies; the paper
// reports cf at the minimal one.
func XeonX3440() *Profile {
	return buildProfile("Intel Xeon X3440",
		[]Freq{1200, 2530},
		0.94867, 0.95, 1.10, 20, 12)
}

// XeonL5420 models the Intel Xeon L5420, cf_min 0.99903 (Table 1).
func XeonL5420() *Profile {
	return buildProfile("Intel Xeon L5420",
		[]Freq{2000, 2500},
		0.99903, 0.95, 1.10, 22, 12)
}

// XeonE5_2620 models the Intel Xeon E5-2620, the architecture on which the
// paper observed the strongest deviation from proportionality: cf_min
// 0.80338 (Table 1).
func XeonE5_2620() *Profile {
	return buildProfile("Intel Xeon E5-2620",
		[]Freq{1200, 1600, 2000},
		0.80338, 0.90, 1.05, 25, 13)
}

// Opteron6164HE models the AMD Opteron 6164 HE, cf_min 0.99508 (Table 1).
func Opteron6164HE() *Profile {
	return buildProfile("AMD Opteron 6164 HE",
		[]Freq{800, 1700},
		0.99508, 0.90, 1.10, 24, 11)
}

// CoreI7_3770 models the Intel Core i7-3770 standalone part from Table 1,
// cf_min 0.86206. It shares silicon with Elite8300 but is exposed under the
// processor's name for Table-1 reporting.
func CoreI7_3770() *Profile {
	return buildProfile("Intel Core i7-3770",
		[]Freq{1600, 2100, 2600, 3100, 3400},
		0.86206, 0.90, 1.15, 15, 11)
}

// Table1Profiles returns the five processors of Table 1 in the paper's
// column order.
func Table1Profiles() []*Profile {
	return []*Profile{
		XeonX3440(),
		XeonL5420(),
		XeonE5_2620(),
		Opteron6164HE(),
		CoreI7_3770(),
	}
}
