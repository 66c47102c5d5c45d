package experiments

import (
	"fmt"

	"pasched/internal/calib"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/metrics"
	"pasched/internal/platform"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// Table1 reproduces Table 1: the measured cf at the minimal frequency on
// the five Grid'5000-era processors. The measurement runs the paper's
// Section 5.2 procedure against each architecture profile; the check is
// that measurement recovers the paper's values (which are this simulator's
// ground truth efficiencies).
func Table1() (*Result, error) {
	paper := map[string]float64{
		"Intel Xeon X3440":    0.94867,
		"Intel Xeon L5420":    0.99903,
		"Intel Xeon E5-2620":  0.80338,
		"AMD Opteron 6164 HE": 0.99508,
		"Intel Core i7-3770":  0.86206,
	}
	tb := metrics.NewTable("Table 1: cf_min on different processors",
		"processor", "paper cf_min", "measured cf_min")
	res := &Result{ID: "table1", Title: "cf_min on different processors"}
	for _, prof := range cpufreq.Table1Profiles() {
		r, err := calib.MeasureCF(prof, 20)
		if err != nil {
			return nil, err
		}
		want := paper[prof.Name]
		got := r.CFMin()
		tb.AddRow(prof.Name, metrics.Fmt(want, 5), metrics.Fmt(got, 5))
		res.Checks = append(res.Checks, checkNear(
			"cf_min "+prof.Name, metrics.Fmt(want, 5), got, want, 0.01))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"the profiles' efficiency curves are synthetic substitutes for real microarchitectural behaviour; the experiment demonstrates that the paper's measurement procedure recovers them from load observations alone")
	return res, nil
}

// table2Cell identifies one distinct Table 2 simulation. Under
// Performance a platform's stack is its scheduler plus the performance
// governor, so two platforms with the same scheduler and overhead (Xen/
// credit and Xen/PAS) measure the same run; under OnDemand the stack also
// depends on the platform's floor depth and PAS flag, so the platform
// name keys it.
type table2Cell struct {
	scheduler string
	mode      platform.GovernorMode
	platform  string // OnDemand only
	overhead  float64
}

// table2Stack returns a platform's stack for one Table 2 row on the
// Elite 8300 and the cell that measures it.
func table2Stack(p platform.Platform, mode platform.GovernorMode) (table2Cell, governor.Governor, error) {
	scheduler, gov, err := p.Stack(cpufreq.Elite8300(), mode)
	if err != nil {
		return table2Cell{}, nil, err
	}
	cell := table2Cell{scheduler: scheduler, mode: mode, overhead: p.Overhead}
	if mode == platform.OnDemand {
		cell.platform = p.Name
	}
	return cell, gov, nil
}

// table2Scenario measures the execution time of V20's job on one
// platform stack: V20 runs a pi job sized to 1559 s at 20% of the Elite
// 8300's full capacity, times the platform overhead; V70 is lazy, then
// fully active during [270 s, 770 s), then lazy again; Dom0 keeps a 1%
// background load.
func table2Scenario(cell table2Cell, gov governor.Governor) (float64, error) {
	prof := cpufreq.Elite8300()
	h, err := host.NewMachine(cell.scheduler, 10, host.Config{Profile: prof, Governor: gov})
	if err != nil {
		return 0, err
	}
	if err := addDom0Load(h); err != nil {
		return 0, err
	}
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		return 0, err
	}

	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		return 0, err
	}
	pi, err := workload.NewPiApp(workload.PiWorkFor(maxTp, 20, 1559) * cell.overhead)
	if err != nil {
		return 0, err
	}
	v20.SetWorkload(pi)

	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		return 0, err
	}
	for _, v := range []*vm.VM{v20, v70} {
		if err := h.AddVM(v); err != nil {
			return 0, err
		}
	}
	h.Schedule(270*sim.Second, func(sim.Time) { v70.SetWorkload(&workload.Hog{}) })
	h.Schedule(770*sim.Second, func(sim.Time) { v70.SetWorkload(workload.Idle{}) })

	const limit = 6000 * sim.Second
	for !pi.Done() && h.Now() < limit {
		if err := h.Run(sim.Second); err != nil {
			return 0, err
		}
	}
	at, ok := pi.CompletionTime()
	if !ok {
		return 0, fmt.Errorf("job unfinished after %v", limit)
	}
	return at.Seconds(), nil
}

// Table2 reproduces Table 2: V20's execution time on seven virtualization
// platforms under the Performance and OnDemand governors, with the
// degradation row computed as the paper does: (T_od - T_perf) / T_od.
// Each distinct cell (table2Cell) simulates once.
func Table2() (*Result, error) {
	plats := platform.Platforms()
	paperPerf := map[string]float64{
		"Hyper-V": 1601, "VMware": 1550, "Xen/credit": 1559, "Xen/PAS": 1559,
		"Xen/SEDF": 616, "KVM": 599, "Vbox": 625,
	}
	paperDeg := map[string]float64{
		"Hyper-V": 50, "VMware": 27, "Xen/credit": 40, "Xen/PAS": 0,
		"Xen/SEDF": 0, "KVM": 0, "Vbox": 0,
	}
	degBand := map[string][2]float64{
		"Hyper-V": {42, 58}, "VMware": {14, 32}, "Xen/credit": {28, 46},
		"Xen/PAS": {-1, 2}, "Xen/SEDF": {-1, 2}, "KVM": {-1, 2}, "Vbox": {-1, 2},
	}

	headers := append([]string{""}, func() []string {
		names := make([]string, len(plats))
		for i, p := range plats {
			names[i] = p.Name
		}
		return names
	}()...)
	tb := metrics.NewTable("Table 2: execution times on different virtualization platforms (s)", headers...)

	perfRow := []string{"Performance"}
	odRow := []string{"OnDemand"}
	degRow := []string{"Degradation(%)"}
	res := &Result{ID: "table2", Title: "Execution Times on Different Virtualization Platforms"}
	times := make(map[table2Cell]float64, 2*len(plats))
	measure := func(p platform.Platform, mode platform.GovernorMode) (float64, error) {
		cell, gov, err := table2Stack(p, mode)
		if err != nil {
			return 0, err
		}
		if t, ok := times[cell]; ok {
			return t, nil
		}
		t, err := table2Scenario(cell, gov)
		if err != nil {
			return 0, fmt.Errorf("table2: %s/%s: %w", p.Name, mode, err)
		}
		times[cell] = t
		return t, nil
	}
	var xenPerf float64
	var varPerfMax float64
	for _, p := range plats {
		tPerf, err := measure(p, platform.Performance)
		if err != nil {
			return nil, err
		}
		tOd, err := measure(p, platform.OnDemand)
		if err != nil {
			return nil, err
		}
		deg := (tOd - tPerf) / tOd * 100
		if deg < 0.05 && deg > -0.05 {
			deg = 0
		}
		perfRow = append(perfRow, metrics.Fmt(tPerf, 0))
		odRow = append(odRow, metrics.Fmt(tOd, 0))
		degRow = append(degRow, metrics.Fmt(deg, 0))
		if p.Name == "Xen/credit" {
			xenPerf = tPerf
		}
		if p.Family == platform.VariableCredit && tPerf > varPerfMax {
			varPerfMax = tPerf
		}
		band := degBand[p.Name]
		res.Checks = append(res.Checks, checkBetween(
			fmt.Sprintf("%s degradation (%%)", p.Name),
			metrics.Fmt(paperDeg[p.Name], 0), deg, band[0], band[1]))
		if p.Family == platform.FixCredit {
			res.Checks = append(res.Checks, checkNear(
				fmt.Sprintf("%s Performance time (s)", p.Name),
				metrics.Fmt(paperPerf[p.Name], 0), tPerf, paperPerf[p.Name], 25))
		}
	}
	tb.AddRow(perfRow...)
	tb.AddRow(odRow...)
	tb.AddRow(degRow...)
	res.Tables = append(res.Tables, tb)
	res.Checks = append(res.Checks, checkTrue(
		"variable-credit platforms are much faster under laziness",
		"616-625 vs 1550-1601 (~2.5x)",
		fmt.Sprintf("%.0f vs %.0f", varPerfMax, xenPerf),
		varPerfMax < 0.45*xenPerf))
	res.Notes = append(res.Notes,
		"per-platform overhead factors and DVFS floor depths are calibrated from the paper's Performance row and documented in EXPERIMENTS.md; the reproduced quantity is the degradation structure, not the exact seconds",
		"variable-credit platforms run faster here (~450s vs the paper's ~616s) because our Dom0 background load is lighter than the paper's full Joomla stack")
	return res, nil
}
