// Package core implements the paper's contribution: the Power-Aware
// Scheduler (PAS, Section 4), an extension of the Xen Credit scheduler
// that coordinates DVFS and CPU-credit enforcement so that
//
//   - the processor frequency can be lowered whenever the host's absolute
//     load allows, saving energy, and
//   - every VM always receives exactly the computing capacity its initial
//     credit represents at the maximum frequency — never less (the
//     fix-credit failure of Scenario 1) and never more (the
//     variable-credit failure of Scenario 2).
//
// The package exposes the paper's proportionality equations (1)-(4) as
// pure functions, the computeNewFreq / updateDvfsAndCredits algorithms of
// Listings 1.1 and 1.2 (ChooseFreq and Compensate, written once and shared
// by every caller), the in-scheduler PAS (the implementation the paper
// reports results for) with its Credit2 variant, and the two user-level
// variants of Section 4.1.
package core

import (
	"fmt"

	"pasched/internal/cpufreq"
)

// AbsoluteLoad converts an observed global load at the current frequency
// into the paper's Absolute load — the load the same consumption would
// represent at the maximum frequency (Section 4):
//
//	Absolute_load = Global_load * CurrentFreq/Freq[max] * cf
//
// globalLoad, the result, ratio and cf are all dimensionless; loads may be
// expressed in [0,1] or percent as long as callers stay consistent.
func AbsoluteLoad(globalLoad, ratio, cf float64) float64 {
	return globalLoad * ratio * cf
}

// CompensatedCredit is equation (4): the credit to assign to a VM at a
// reduced frequency so its computing capacity equals what its initial
// credit bought at the maximum frequency:
//
//	C_j = C_init / (ratio_i * cf_i)
//
// It returns an error when ratio or cf is not positive.
func CompensatedCredit(initCredit, ratio, cf float64) (float64, error) {
	if ratio <= 0 {
		return 0, fmt.Errorf("core: frequency ratio must be positive, got %v", ratio)
	}
	if cf <= 0 {
		return 0, fmt.Errorf("core: calibration factor must be positive, got %v", cf)
	}
	return initCredit / (ratio * cf), nil
}

// LoadAtFrequency is equation (1) rearranged: given a load observed at the
// maximum frequency, it predicts the load at frequency index i:
//
//	L_i = L_max / (ratio_i * cf_i)
func LoadAtFrequency(loadAtMax, ratio, cf float64) (float64, error) {
	if ratio <= 0 || cf <= 0 {
		return 0, fmt.Errorf("core: ratio and cf must be positive, got %v, %v", ratio, cf)
	}
	return loadAtMax / (ratio * cf), nil
}

// ExecTimeAtFrequency is equation (2) rearranged: given an execution time
// at the maximum frequency, it predicts the execution time at a reduced
// frequency (same credit):
//
//	T_i = T_max / (ratio_i * cf_i)
func ExecTimeAtFrequency(timeAtMax, ratio, cf float64) (float64, error) {
	if ratio <= 0 || cf <= 0 {
		return 0, fmt.Errorf("core: ratio and cf must be positive, got %v, %v", ratio, cf)
	}
	return timeAtMax / (ratio * cf), nil
}

// ExecTimeAtCredit is equation (3) rearranged: given an execution time at
// credit cInit, it predicts the execution time at credit cj (same
// frequency):
//
//	T_j = T_init * C_init / C_j
func ExecTimeAtCredit(timeAtInit, cInit, cj float64) (float64, error) {
	if cInit <= 0 || cj <= 0 {
		return 0, fmt.Errorf("core: credits must be positive, got %v, %v", cInit, cj)
	}
	return timeAtInit * cInit / cj, nil
}

// ComputeNewFreq is the paper's Listing 1.1: it scans the frequency ladder
// from the lowest frequency upwards and returns the first frequency whose
// capacity exceeds the absolute load,
//
//	ratio_i * 100 * CF[i] > Absolute_load
//
// falling back to the maximum frequency. absLoadPct is in percent. cf is
// the per-P-state calibration table in ladder order; nil assumes cf = 1
// everywhere, and a short table is padded with 1s.
func ComputeNewFreq(prof *cpufreq.Profile, cf []float64, absLoadPct float64) cpufreq.Freq {
	return prof.States[computeNewLevel(prof, cf, absLoadPct)].Freq
}

// computeNewLevel is ComputeNewFreq's scan, returning the ladder position
// of the chosen frequency.
func computeNewLevel(prof *cpufreq.Profile, cf []float64, absLoadPct float64) int {
	for i, s := range prof.States {
		if prof.Ratio(s.Freq)*100*CFAt(cf, i) > absLoadPct {
			return i
		}
	}
	return len(prof.States) - 1
}

// CFAt returns the calibration factor for ladder position i of the
// table cf, defaulting to 1 for a nil or short table and for a
// non-positive entry.
func CFAt(cf []float64, i int) float64 {
	if cf == nil || i >= len(cf) || cf[i] <= 0 {
		return 1
	}
	return cf[i]
}
