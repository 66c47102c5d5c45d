package experiments

import (
	"fmt"

	"pasched/internal/calib"
	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/metrics"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// Verify reproduces the Section 5.2 validation of the proportionality
// assumptions: equation (2) (frequency vs execution time, including the cf
// correction on a non-ideal architecture) and equation (3) (credit vs
// execution time).
func Verify() (*Result, error) {
	res := &Result{ID: "verify", Title: "Verification of the proportionality assumptions (Section 5.2)"}

	for _, prof := range []*cpufreq.Profile{cpufreq.Optiplex755(), cpufreq.XeonE5_2620()} {
		work := 4 * float64(prof.Max()) * 1e6
		rows, err := calib.VerifyFreqProportionality(prof, work)
		if err != nil {
			return nil, err
		}
		tb := metrics.NewTable(
			fmt.Sprintf("Equation 2 on %s: T_max/T_i vs ratio*cf", prof.Name),
			"frequency", "measured T_max/T_i", "predicted ratio*cf")
		for _, r := range rows {
			tb.AddRow(r.Label, metrics.Fmt(r.Measured, 4), metrics.Fmt(r.Predicted, 4))
			res.Checks = append(res.Checks, checkNear(
				fmt.Sprintf("eq2 %s @ %s", prof.Name, r.Label),
				"proportional", r.Measured, r.Predicted, 0.02))
		}
		res.Tables = append(res.Tables, tb)
	}

	prof := cpufreq.Optiplex755()
	credits := []float64{10, 20, 30, 50, 70, 100}
	rows, err := calib.VerifyCreditProportionality(prof,
		workload.PiWorkFor(2667e6, 100, 2), credits)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Equation 3: T_init/T_j vs C_j/C_init (at 2667 MHz)",
		"credit", "measured T_init/T_j", "predicted C_j/C_init")
	for _, r := range rows {
		tb.AddRow(r.Label, metrics.Fmt(r.Measured, 4), metrics.Fmt(r.Predicted, 4))
		res.Checks = append(res.Checks, checkNear(
			"eq3 credit "+r.Label, "proportional", r.Measured, r.Predicted, 0.02*r.Predicted+0.02))
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}

// implVariant identifies one of the three implementation choices of
// Section 4.1.
type implVariant int

const (
	implInScheduler implVariant = iota + 1
	implUserCredit
	implUserDVFSCredit
)

func (v implVariant) String() string {
	switch v {
	case implInScheduler:
		return "in-scheduler (PAS)"
	case implUserCredit:
		return "user level - credit management"
	case implUserDVFSCredit:
		return "user level - credit and DVFS management"
	default:
		return "unknown"
	}
}

// ablationRun runs one implementation variant against a square-wave V70
// (15 s busy / 15 s lazy) with a constantly thrashing V20, and returns the
// accumulated SLA deficit: the integral over time of how far each active
// VM's absolute load falls below its contracted credit.
func ablationRun(variant implVariant) (deficit float64, transitions int, err error) {
	const (
		dur    = 150 * sim.Second
		period = 30 * sim.Second
		halfOn = 15 * sim.Second
	)
	prof := cpufreq.Optiplex755()
	scheduler := "credit"
	var gov governor.Governor
	switch variant {
	case implInScheduler:
		scheduler = "pas"
	case implUserCredit:
		gov = governor.NewPaperOndemand(prof.EfficiencyTable())
	}
	h, err := host.NewMachine(scheduler, 0, host.Config{Profile: prof, Governor: gov})
	if err != nil {
		return 0, 0, err
	}

	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		return 0, 0, err
	}
	v20.SetWorkload(&workload.Hog{})
	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		return 0, 0, err
	}
	for _, v := range []*vm.VM{v20, v70} {
		if err := h.AddVM(v); err != nil {
			return 0, 0, err
		}
	}
	// The user-level managers drive the machine's own CPU and Credit
	// scheduler from outside the scheduler.
	initCredits := map[vm.ID]float64{1: 20, 2: 70}
	switch variant {
	case implUserCredit:
		mgr, err := core.NewCreditManager(h.CPU(), h.Scheduler().(*sched.Credit),
			prof.EfficiencyTable(), sim.Second, initCredits)
		if err != nil {
			return 0, 0, err
		}
		if err := h.AddAgent(mgr); err != nil {
			return 0, 0, err
		}
	case implUserDVFSCredit:
		mgr, err := core.NewDVFSCreditManager(h.CPU(), h.Scheduler().(*sched.Credit), h,
			prof.EfficiencyTable(), sim.Second, initCredits)
		if err != nil {
			return 0, 0, err
		}
		if err := h.AddAgent(mgr); err != nil {
			return 0, 0, err
		}
	}
	// V70's square wave: busy during the first half of every period.
	for t := sim.Time(0); t < dur; t += period {
		t := t
		h.Schedule(t, func(sim.Time) { v70.SetWorkload(&workload.Hog{}) })
		h.Schedule(t+halfOn, func(sim.Time) { v70.SetWorkload(workload.Idle{}) })
	}
	if err := h.RunUntil(dur); err != nil {
		return 0, 0, err
	}

	rec := h.Recorder()
	a20 := rec.Series("V20_absolute_pct")
	a70 := rec.Series("V70_absolute_pct")
	for i := range a20.T {
		t := a20.T[i]
		if t < 5 { // skip startup
			continue
		}
		if d := 20 - a20.V[i]; d > 0 {
			deficit += d
		}
		// V70 is entitled to 70% only while its square wave is busy; skip
		// the sample bins overlapping an on/off edge.
		inPeriod := t - float64(int(t/30))*30
		if inPeriod >= 1 && inPeriod < 14 {
			if d := 70 - a70.V[i]; d > 0 {
				deficit += d
			}
		}
	}
	return deficit, rec.Series("freq_mhz").Transitions(1), nil
}

// AblationImpl compares the three implementation choices of Section 4.1.
// The paper argues a user-level implementation "may lack reactivity"; the
// SLA deficit under a square-wave load quantifies exactly that.
func AblationImpl() (*Result, error) {
	res := &Result{ID: "ablation-impl", Title: "Implementation choices (Section 4.1): reactivity"}
	tb := metrics.NewTable("SLA deficit under a 15s/15s square-wave V70, thrashing V20 (150 s run)",
		"implementation", "SLA deficit (%*s)", "frequency transitions")
	deficits := make(map[implVariant]float64, 3)
	for _, v := range []implVariant{implInScheduler, implUserCredit, implUserDVFSCredit} {
		d, trans, err := ablationRun(v)
		if err != nil {
			return nil, err
		}
		deficits[v] = d
		tb.AddRow(v.String(), metrics.Fmt(d, 1), fmt.Sprintf("%d", trans))
	}
	res.Tables = append(res.Tables, tb)
	res.Checks = append(res.Checks,
		checkTrue("in-scheduler variant is the most reactive",
			"user level ... may lack reactivity (Section 4.1)",
			fmt.Sprintf("deficits: in-sched %.1f, user-credit %.1f, user-dvfs %.1f",
				deficits[implInScheduler], deficits[implUserCredit], deficits[implUserDVFSCredit]),
			deficits[implInScheduler] <= deficits[implUserCredit] &&
				deficits[implInScheduler] <= deficits[implUserDVFSCredit]),
	)
	res.Notes = append(res.Notes,
		"the deficit integrates, over all samples, how far each active VM's absolute load falls below its contracted credit; larger = more SLA violation time")
	return res, nil
}

// Energy quantifies the paper's energy claims on the thrashing scenario:
// the fix-credit scheduler saves energy but violates the SLA; SEDF keeps
// the SLA but pins the maximum frequency (no savings); PAS does both.
func Energy() (*Result, error) {
	rows := []struct{ name, scheduler, gov string }{
		{"Credit + Performance", "credit", "performance"},
		{"Credit + our ondemand", "credit", "paper"},
		{"SEDF + our ondemand", "sedf", "paper"},
		{"PAS", "pas", "none"},
	}
	res := &Result{ID: "energy", Title: "Energy and QoS per scheduler/governor pair (thrashing load)"}
	tb := metrics.NewTable("Energy over the Section 5.3 thrashing profile (700 s)",
		"configuration", "energy (J)", "avg power (W)", "savings vs Performance (%)",
		"V20 absolute load, phase 1 (%)")

	var baseline *energy.Meter
	type outcome struct {
		joules, savings, absP1 float64
	}
	outcomes := make(map[string]outcome, len(rows))
	for _, r := range rows {
		run, err := runScenario(r.scheduler, r.gov, loadThrashing, scenarioSeed)
		if err != nil {
			return nil, err
		}
		a20, err := run.series("V20_absolute_pct")
		if err != nil {
			return nil, err
		}
		m := run.energy
		if baseline == nil {
			baseline = m
		}
		sav := energy.Savings(baseline, m) * 100
		absP1, _ := a20.MeanBetween(p1Lo, p1Hi)
		outcomes[r.name] = outcome{joules: m.Joules(), savings: sav, absP1: absP1}
		tb.AddRow(r.name, metrics.Fmt(m.Joules(), 0), metrics.Fmt(m.AveragePower(), 1),
			metrics.Fmt(sav, 1), metrics.Fmt(absP1, 1))
	}
	res.Tables = append(res.Tables, tb)

	pas := outcomes["PAS"]
	credOd := outcomes["Credit + our ondemand"]
	sedf := outcomes["SEDF + our ondemand"]
	res.Checks = append(res.Checks,
		checkNear("PAS keeps V20 at its absolute credit (%)", "20", pas.absP1, 20, 1),
		checkBetween("PAS saves energy vs Performance (%)", "frequency lowered when possible",
			pas.savings, 3, 100),
		checkBetween("Credit+ondemand violates V20's SLA (absolute %)", "~12 (20% at 1600 MHz)",
			credOd.absP1, 10, 14),
		checkBetween("SEDF lets V20 exceed its credit (absolute %)", "~85+ under thrashing (Fig. 8)",
			sedf.absP1, 85, 100),
		checkTrue("SEDF saves less than PAS", "thrashing prevents frequency reduction (Section 3.2)",
			fmt.Sprintf("sedf %.1f%% vs pas %.1f%%", sedf.savings, pas.savings),
			sedf.savings < pas.savings),
	)
	return res, nil
}
