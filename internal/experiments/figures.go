package experiments

import (
	"fmt"

	"pasched/internal/calib"
	"pasched/internal/cpufreq"
	"pasched/internal/metrics"
	"pasched/internal/workload"
)

// Fig1 reproduces Figure 1: pi execution times with initial credits
// 10..100 at the maximum frequency (2667 MHz), against execution times at
// 2133 MHz with the equation-4 compensated credits. The two curves overlap
// while the compensated credit fits under 100%.
func Fig1() (*Result, error) {
	prof := cpufreq.Optiplex755()
	work := workload.PiWorkFor(2667e6, 100, 10) // 10 full-CPU seconds
	credits := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	points, err := calib.CompensationCurve(prof, 2133, work, credits)
	if err != nil {
		return nil, err
	}

	tb := metrics.NewTable("Figure 1: compensation of frequency reduction with credit allocation",
		"initial credit (%)", "new credit (%)", "T @ 2667MHz (s)", "T @ 2133MHz, compensated (s)")
	sMax := metrics.NewSeries("T(init credit) @ 2667MHz")
	sComp := metrics.NewSeries("T(new credit) @ 2133MHz")
	res := &Result{ID: "fig1", Title: "Compensation of Frequency Reduction with Credit Allocation"}
	for _, p := range points {
		tb.AddRow(metrics.Fmt(p.InitCredit, 0), metrics.Fmt(p.NewCredit, 0),
			metrics.Fmt(p.TimeAtMax, 1), metrics.Fmt(p.TimeCompensated, 1))
		sMax.Add(p.InitCredit, p.TimeAtMax)
		sComp.Add(p.InitCredit, p.TimeCompensated)
		if p.NewCredit <= 100 {
			rel := (p.TimeCompensated - p.TimeAtMax) / p.TimeAtMax * 100
			res.Checks = append(res.Checks, checkNear(
				fmt.Sprintf("overlap at credit %.0f (time delta %%)", p.InitCredit),
				"curves overlap", rel, 0, 3))
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Series = append(res.Series, sMax, sComp)
	res.Notes = append(res.Notes,
		"job sized to 10 full-CPU seconds (the paper's absolute durations depend on its pi implementation)",
		"above ~80% initial credit the compensated credit exceeds 100% and cannot be granted; the curves diverge there by construction")
	return res, nil
}

// figureScenario runs one Section 5.3 scenario and packages the usual
// series (loads and frequency) into a Result.
func figureScenario(id, title, scheduler, gov string, lk loadKind,
	absolute bool) (*Result, *scenario, error) {
	g, err := scenarioGovernor(gov)
	if err != nil {
		return nil, nil, err
	}
	sc, err := newScenario(scheduler, g, lk, 42)
	if err != nil {
		return nil, nil, err
	}
	if err := sc.run(); err != nil {
		return nil, nil, err
	}
	rec := sc.host.Recorder()
	suffix := "_global_pct"
	kind := "global"
	if absolute {
		suffix = "_absolute_pct"
		kind = "absolute"
	}
	res := &Result{ID: id, Title: title}
	v20 := rec.Series("V20" + suffix)
	v70 := rec.Series("V70" + suffix)
	freq := rec.Series("freq_mhz")
	// Figure series: loads in percent plus the frequency scaled to fit the
	// same chart (right axis in the paper).
	freqScaled := metrics.NewSeries("frequency (MHz/26.67, right axis)")
	for i := range freq.T {
		freqScaled.Add(freq.T[i], freq.V[i]/26.67)
	}
	v20c := metrics.NewSeries("V20 " + kind + " load (%)")
	v20c.T, v20c.V = v20.T, v20.V
	v70c := metrics.NewSeries("V70 " + kind + " load (%)")
	v70c.T, v70c.V = v70.T, v70.V
	res.Series = append(res.Series, v20c, v70c, freqScaled)
	return res, sc, nil
}

// phaseMeans summarizes a series over the three phase windows.
func phaseMeans(s *metrics.Series) (p1, p2, p3 float64) {
	p1, _ = s.MeanBetween(p1Lo, p1Hi)
	p2, _ = s.MeanBetween(p2Lo, p2Hi)
	p3, _ = s.MeanBetween(p3Lo, p3Hi)
	return p1, p2, p3
}

// Fig2 reproduces Figure 2: the execution profile with the Credit
// scheduler at the maximum frequency (Performance governor), exact load.
func Fig2() (*Result, error) {
	res, sc, err := figureScenario("fig2", "Load profile (at the maximum frequency)",
		"credit", "performance", loadExact, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	v20p1, v20p2, _ := phaseMeans(rec.Series("V20_global_pct"))
	_, v70p2, v70p3 := phaseMeans(rec.Series("V70_global_pct"))
	fMean := rec.Series("freq_mhz").Mean()
	res.Checks = append(res.Checks,
		checkNear("V20 global load, phase 1 (%)", "20", v20p1, 20, 1.5),
		checkNear("V20 global load, phase 2 (%)", "20", v20p2, 20, 1.5),
		checkNear("V70 global load, phase 2 (%)", "70", v70p2, 70, 2),
		checkNear("V70 global load, phase 3 (%)", "70", v70p3, 70, 2),
		checkNear("frequency pinned at max (MHz)", "2667", fMean, 2667, 1),
	)
	res.Notes = append(res.Notes,
		"exact and thrashing loads give the same figure here: the credit scheduler caps both at the allocated credit")
	return res, nil
}

// Fig3 reproduces Figure 3: the stock Ondemand governor with the Credit
// scheduler is aggressive and unstable — the frequency oscillates under
// the bursty web load.
func Fig3() (*Result, error) {
	res, sc, err := figureScenario("fig3", "Global loads with Ondemand governor / Credit scheduler / exact load",
		"credit", "ondemand", loadExact, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	trans := rec.Series("freq_mhz").Transitions(1)
	v20p1, _, _ := phaseMeans(rec.Series("V20_global_pct"))
	res.Checks = append(res.Checks,
		checkBetween("frequency transitions across 1s samples", "aggressive and unstable (oscillates)",
			float64(trans), 20, 1e9),
		checkNear("V20 global load, phase 1 (%)", "20", v20p1, 20, 1.5),
	)
	res.Notes = append(res.Notes,
		"oscillation count is per 1-second sample pairs; the underlying 100ms decisions flap even more")
	return res, nil
}

// Fig4 reproduces Figure 4: the paper's own governor shows the same
// overall behaviour without the oscillations.
func Fig4() (*Result, error) {
	res, sc, err := figureScenario("fig4", "Global loads with our governor / Credit scheduler / exact load",
		"credit", "paper", loadExact, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	trans := rec.Series("freq_mhz").Transitions(1)
	v20p1, v20p2, _ := phaseMeans(rec.Series("V20_global_pct"))
	_, v70p2, _ := phaseMeans(rec.Series("V70_global_pct"))
	res.Checks = append(res.Checks,
		checkBetween("frequency transitions across 1s samples", "stable (no oscillations)",
			float64(trans), 0, 12),
		checkNear("V20 global load, phase 1 (%)", "20", v20p1, 20, 1.5),
		checkNear("V20 global load, phase 2 (%)", "20", v20p2, 20, 1.5),
		checkNear("V70 global load, phase 2 (%)", "70", v70p2, 70, 2),
	)
	return res, nil
}

// Fig5 reproduces Figure 5: the absolute loads of the Figure 4 run expose
// the problem — V20's absolute load collapses to roughly half its credit
// while V70 is lazy and the frequency is scaled down, and recovers only
// when V70's activity raises the frequency.
func Fig5() (*Result, error) {
	res, sc, err := figureScenario("fig5", "Absolute loads with our governor / Credit scheduler / exact load",
		"credit", "paper", loadExact, true)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	a20p1, a20p2, _ := phaseMeans(rec.Series("V20_absolute_pct"))
	f1, _ := rec.Series("freq_mhz").MeanBetween(p1Lo, p1Hi)
	res.Checks = append(res.Checks,
		// 20% of the CPU at 1600/2667 MHz is 12% absolute; the paper reads
		// "close to 10%" off its figure.
		checkBetween("V20 absolute load, phase 1 (%)", "close to 10", a20p1, 10, 14),
		checkNear("V20 absolute load, phase 2 (%)", "climbs to 20", a20p2, 20, 1.5),
		checkNear("frequency, phase 1 (MHz)", "scaled down (1600)", f1, 1600, 30),
	)
	res.Notes = append(res.Notes,
		"V20 is only granted its allocated absolute credit (20%) when the processor frequency is at the maximum level — the incompatibility PAS fixes")
	return res, nil
}

// Fig6 reproduces Figure 6: SEDF hands V70's unused slices to V20, whose
// global load rises to ~35% in phase 1 (33% of the CPU at 1600 MHz is the
// 20% absolute it needs, plus scheduling slack).
func Fig6() (*Result, error) {
	res, sc, err := figureScenario("fig6", "Global loads with our governor / SEDF scheduler / exact load",
		"sedf", "paper", loadExact, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	v20p1, v20p2, _ := phaseMeans(rec.Series("V20_global_pct"))
	_, v70p2, _ := phaseMeans(rec.Series("V70_global_pct"))
	res.Checks = append(res.Checks,
		checkBetween("V20 global load, phase 1 (%)", "35", v20p1, 30, 38),
		checkNear("V20 global load, phase 2 (%)", "ends up with 20", v20p2, 20, 2),
		checkNear("V70 global load, phase 2 (%)", "70", v70p2, 70, 2),
	)
	return res, nil
}

// Fig7 reproduces Figure 7: in absolute terms the donated slices exactly
// compensate the lowered frequency — V20 holds 20% absolute throughout its
// active phase.
func Fig7() (*Result, error) {
	res, sc, err := figureScenario("fig7", "Absolute loads with our governor / SEDF scheduler / exact load",
		"sedf", "paper", loadExact, true)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	a20p1, a20p2, _ := phaseMeans(rec.Series("V20_absolute_pct"))
	res.Checks = append(res.Checks,
		checkNear("V20 absolute load, phase 1 (%)", "20 during the entire experiment", a20p1, 20, 1.5),
		checkNear("V20 absolute load, phase 2 (%)", "20 during the entire experiment", a20p2, 20, 1.5),
	)
	res.Notes = append(res.Notes,
		"SEDF solves the exact-load case by accident: unused slices compensate the frequency penalty")
	return res, nil
}

// Fig8 reproduces Figure 8: under a thrashing load SEDF lets V20 consume
// ~85%+ of the processor and the frequency is pinned at the maximum — the
// provider neither enforces the 20% SLA nor saves energy.
func Fig8() (*Result, error) {
	res, sc, err := figureScenario("fig8", "Global or absolute loads with our governor / SEDF scheduler / thrashing load",
		"sedf", "paper", loadThrashing, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	v20p1, v20p2, _ := phaseMeans(rec.Series("V20_global_pct"))
	f1, _ := rec.Series("freq_mhz").MeanBetween(p1Lo, p1Hi)
	res.Checks = append(res.Checks,
		checkBetween("V20 global load, phase 1 (%)", "85 (allowed to consume far beyond its credit)",
			v20p1, 85, 100),
		checkNear("frequency, phase 1 (MHz)", "kept at the highest level (2667)", f1, 2667, 30),
		checkNear("V20 global load, phase 2 (%)", "credits respected once V70 is active (~20-25)",
			v20p2, 24, 4),
	)
	res.Notes = append(res.Notes,
		"the paper reads ~85% for V20 because its Dom0 stack consumes more than our 1% background; the shape — V20 unbounded, frequency pinned — is the claim",
		"global and absolute loads coincide since the frequency never leaves the maximum")
	return res, nil
}

// Fig9 reproduces Figure 9: PAS under the same thrashing load grants V20 a
// compensated 33% cap at 1600 MHz in phase 1 and returns it to 20% at the
// maximum frequency in phase 2.
func Fig9() (*Result, error) {
	res, sc, err := figureScenario("fig9", "Global loads with the PAS scheduler / thrashing load",
		"pas", "none", loadThrashing, false)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	v20p1, v20p2, _ := phaseMeans(rec.Series("V20_global_pct"))
	_, v70p2, _ := phaseMeans(rec.Series("V70_global_pct"))
	cap1, _ := rec.Series("V20_cap_pct").MeanBetween(p1Lo, p1Hi)
	cap2, _ := rec.Series("V20_cap_pct").MeanBetween(p2Lo, p2Hi)
	f1, _ := rec.Series("freq_mhz").MeanBetween(p1Lo, p1Hi)
	f2, _ := rec.Series("freq_mhz").MeanBetween(p2Lo, p2Hi)
	res.Series = append(res.Series, rec.Series("V20_cap_pct"))
	res.Checks = append(res.Checks,
		checkNear("frequency, phase 1 (MHz)", "1600", f1, 1600, 30),
		checkNear("V20 enforced cap, phase 1 (%)", "33 (compensates the low frequency)", cap1, 33.3, 1),
		checkNear("V20 global load, phase 1 (%)", "33", v20p1, 33.3, 1.5),
		checkNear("frequency, phase 2 (MHz)", "reaches the maximum", f2, 2667, 40),
		checkNear("V20 enforced cap, phase 2 (%)", "20", cap2, 20, 1),
		checkNear("V20 global load, phase 2 (%)", "20", v20p2, 20, 1.5),
		checkNear("V70 global load, phase 2 (%)", "70", v70p2, 70, 2),
	)
	return res, nil
}

// Fig10 reproduces Figure 10: in absolute terms PAS keeps every VM at
// exactly its contracted credit for the whole run, while the frequency
// stays low whenever the host is underloaded.
func Fig10() (*Result, error) {
	res, sc, err := figureScenario("fig10", "Absolute loads with the PAS scheduler / thrashing load",
		"pas", "none", loadThrashing, true)
	if err != nil {
		return nil, err
	}
	rec := sc.host.Recorder()
	a20p1, a20p2, _ := phaseMeans(rec.Series("V20_absolute_pct"))
	_, a70p2, a70p3 := phaseMeans(rec.Series("V70_absolute_pct"))
	f1, _ := rec.Series("freq_mhz").MeanBetween(p1Lo, p1Hi)
	res.Checks = append(res.Checks,
		checkNear("V20 absolute load, phase 1 (%)", "20 (consistent with credit allocations)", a20p1, 20, 1),
		checkNear("V20 absolute load, phase 2 (%)", "20", a20p2, 20, 1),
		checkNear("V70 absolute load, phase 2 (%)", "70", a70p2, 70, 2),
		checkNear("V70 absolute load, phase 3 (%)", "70", a70p3, 70, 2),
		checkNear("frequency, phase 1 (MHz)", "low while the host is underloaded", f1, 1600, 30),
	)
	res.Notes = append(res.Notes,
		"PAS = SEDF's exact-load benefit + credit enforcement under thrashing + frequency reductions")
	return res, nil
}
