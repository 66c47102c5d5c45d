// Package calib implements the measurement procedures of Section 5.2 of
// the paper: the verification of the two proportionality assumptions the
// PAS scheduler rests on, and the measurement of the per-frequency
// calibration factors cf_i reported in Table 1.
//
// The procedures deliberately go through the full simulated host — they
// run workloads, read busy-time counters, and compute ratios exactly the
// way the paper's experiments do on real hardware — rather than reading
// the architecture profile's ground-truth efficiency directly. The
// unit tests then check that measurement recovers ground truth.
package calib

import (
	"fmt"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// measureDuration is the steady-state window measured for load-based
// calibration runs.
const measureDuration = 20 * sim.Second

// CFResult is the outcome of a cf measurement on one architecture: the
// ladder of frequencies and the measured calibration factor per frequency
// (cf at the maximum frequency is 1 by definition).
type CFResult struct {
	Profile *cpufreq.Profile
	Freqs   []cpufreq.Freq
	CF      []float64
}

// CFMin returns the calibration factor at the minimum frequency — the
// value the paper reports in Table 1.
func (r *CFResult) CFMin() float64 {
	if len(r.CF) == 0 {
		return 1
	}
	return r.CF[0]
}

// MeasureCF measures cf_i for every frequency of the profile using the
// paper's procedure: run the same workload at every frequency, measure the
// load L(freq), and compute cf from equation (1):
//
//	cf_i = (L_max / L_i) * (F_max / F_i)
//
// The workload is a fixed-rate web load sized to absLoadPct percent of the
// maximum-frequency capacity (default 25 when <= 0), low enough not to
// saturate the lowest frequency on any architecture.
func MeasureCF(prof *cpufreq.Profile, absLoadPct float64) (*CFResult, error) {
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	if absLoadPct <= 0 {
		absLoadPct = 25
	}
	freqs := prof.Frequencies()
	loads := make([]float64, len(freqs))
	for i, f := range freqs {
		l, err := measureLoadAt(prof, f, absLoadPct)
		if err != nil {
			return nil, err
		}
		if l <= 0 {
			return nil, fmt.Errorf("calib: zero load measured at %v on %q", f, prof.Name)
		}
		loads[i] = l
	}
	lmax := loads[len(loads)-1]
	cf := make([]float64, len(freqs))
	for i, f := range freqs {
		cf[i] = (lmax / loads[i]) / prof.Ratio(f)
	}
	return &CFResult{Profile: prof, Freqs: freqs, CF: cf}, nil
}

// measureLoadAt runs the calibration web load with the processor pinned at
// frequency f and returns the measured global load in [0,1]. It reads the
// host's busy time, so the host keeps no recorder series.
func measureLoadAt(prof *cpufreq.Profile, f cpufreq.Freq, absLoadPct float64) (float64, error) {
	h, err := host.NewMachine("credit", 0, host.Config{Profile: prof, SampleInterval: -1})
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	if err := h.CPU().SetFreq(f, 0); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	// A short request cost keeps the queue smooth; deterministic arrivals
	// remove sampling noise.
	const cost = 0.002 * 2667e6
	wl, err := workload.NewWebApp(workload.WebAppConfig{
		RequestCost:   cost,
		Deterministic: true,
		Phases:        workload.ThreePhase(0, 1<<62, workload.ExactRate(maxTp, absLoadPct, cost)),
		MaxBacklog:    -1,
	})
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	v, err := vm.New(1, vm.Config{Name: "calib", Credit: 0}) // uncapped
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	v.SetWorkload(wl)
	if err := h.AddVM(v); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	// Warm up for a second, then measure a steady window.
	if err := h.Run(sim.Second); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	busy0 := h.CumulativeBusy()
	if err := h.Run(measureDuration); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	return float64(h.CumulativeBusy()-busy0) / float64(measureDuration), nil
}

// ExecTimeResult is one row of an execution-time calibration: the
// configuration and the measured completion time of the pi workload.
type ExecTimeResult struct {
	Freq    cpufreq.Freq
	Credit  float64
	Seconds float64
}

// MeasurePiTime runs a pi computation of the given work inside a VM capped
// at creditPct, with the processor pinned at frequency f, and returns the
// measured execution time in simulated seconds. maxDuration bounds the
// run; an unfinished computation is an error. Only the completion time is
// read, so the host keeps no recorder series.
func MeasurePiTime(prof *cpufreq.Profile, f cpufreq.Freq, creditPct, work float64,
	maxDuration sim.Time) (float64, error) {
	h, err := host.NewMachine("credit", 0, host.Config{Profile: prof, SampleInterval: -1})
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	if err := h.CPU().SetFreq(f, 0); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	pi, err := workload.NewPiApp(work)
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	v, err := vm.New(1, vm.Config{Name: "pi", Credit: creditPct})
	if err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	v.SetWorkload(pi)
	if err := h.AddVM(v); err != nil {
		return 0, fmt.Errorf("calib: %w", err)
	}
	for !pi.Done() && h.Now() < maxDuration {
		if err := h.Run(sim.Second); err != nil {
			return 0, fmt.Errorf("calib: %w", err)
		}
	}
	at, ok := pi.CompletionTime()
	if !ok {
		return 0, fmt.Errorf("calib: pi workload did not finish within %v at %v/%v%%",
			maxDuration, f, creditPct)
	}
	return at.Seconds(), nil
}

// VerifyFreqProportionality validates equation (2): it measures pi
// execution times at every frequency (full credit) and returns, per
// frequency, the measured ratio T_max/T_i next to the predicted
// ratio_i*cf_i. work sizes the job; it should take a few simulated seconds
// at full speed.
func VerifyFreqProportionality(prof *cpufreq.Profile, work float64) ([]ProportionalityRow, error) {
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	tMax, err := MeasurePiTime(prof, prof.Max(), 100, work, sim.Hour)
	if err != nil {
		return nil, err
	}
	rows := make([]ProportionalityRow, 0, prof.Levels())
	for _, f := range prof.Frequencies() {
		ti, err := MeasurePiTime(prof, f, 100, work, sim.Hour)
		if err != nil {
			return nil, err
		}
		eff, err := prof.Efficiency(f)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ProportionalityRow{
			Label:     f.String(),
			Measured:  tMax / ti,
			Predicted: prof.Ratio(f) * eff,
		})
	}
	return rows, nil
}

// VerifyCreditProportionality validates equation (3): it measures pi
// execution times at the maximum frequency for each credit in credits and
// returns the measured time ratio T_init/T_j next to the predicted credit
// ratio C_j/C_init, with the first credit as the reference.
func VerifyCreditProportionality(prof *cpufreq.Profile, work float64,
	credits []float64) ([]ProportionalityRow, error) {
	if len(credits) < 2 {
		return nil, fmt.Errorf("calib: need at least two credits, got %d", len(credits))
	}
	tInit, err := MeasurePiTime(prof, prof.Max(), credits[0], work, sim.Hour)
	if err != nil {
		return nil, err
	}
	rows := make([]ProportionalityRow, 0, len(credits))
	for _, c := range credits {
		tj, err := MeasurePiTime(prof, prof.Max(), c, work, sim.Hour)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ProportionalityRow{
			Label:     fmt.Sprintf("%g%%", c),
			Measured:  tInit / tj,
			Predicted: c / credits[0],
		})
	}
	return rows, nil
}

// ProportionalityRow is one measured-vs-predicted ratio of a
// proportionality verification.
type ProportionalityRow struct {
	Label     string
	Measured  float64
	Predicted float64
}

// CompensationPoint is one x-position of Figure 1: the initial credit, the
// compensated credit at the reduced frequency (equation 4), and the two
// measured execution times that the compensation is supposed to equalize.
type CompensationPoint struct {
	InitCredit      float64
	NewCredit       float64
	TimeAtMax       float64 // seconds, initial credit at maximum frequency
	TimeCompensated float64 // seconds, compensated credit at reduced frequency
}

// CompensationCurve reproduces Figure 1: for every credit in credits it
// measures the pi execution time at the maximum frequency, computes the
// compensated credit for frequency f (equation 4 with the profile's
// ground-truth cf), and measures the execution time at f with that credit.
func CompensationCurve(prof *cpufreq.Profile, f cpufreq.Freq, work float64,
	credits []float64) ([]CompensationPoint, error) {
	eff, err := prof.Efficiency(f)
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	ratio := prof.Ratio(f)
	points := make([]CompensationPoint, 0, len(credits))
	for _, c := range credits {
		tMax, err := MeasurePiTime(prof, prof.Max(), c, work, sim.Hour)
		if err != nil {
			return nil, err
		}
		nc := c / (ratio * eff)
		capped := nc
		if capped > 100 {
			capped = 100 // the scheduler cannot grant more than the machine
		}
		tComp, err := MeasurePiTime(prof, f, capped, work, sim.Hour)
		if err != nil {
			return nil, err
		}
		points = append(points, CompensationPoint{
			InitCredit:      c,
			NewCredit:       nc,
			TimeAtMax:       tMax,
			TimeCompensated: tComp,
		})
	}
	return points, nil
}
