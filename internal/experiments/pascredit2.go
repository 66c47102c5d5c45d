package experiments

import (
	"fmt"

	"pasched/internal/energy"
	"pasched/internal/metrics"
)

// ExtPASCredit2 compares the paper's cap-based PAS against the
// Credit2-based PAS variant (ROADMAP follow-up to the Credit2
// certification): both drive DVFS from the absolute load at the 10 ms
// cadence, but enforcement differs — hard compensated caps versus
// weight-proportional work-conserving sharing. The thrashing Section 5.3
// profile separates the paper's two claims: both variants keep the
// frequency (and energy) tracking the absolute load, while only the
// cap-based PAS strictly enforces the contracted credit — the Credit2
// variant lets a thrashing VM absorb idle slack (variable-credit
// behaviour), serving more demand for more energy.
func ExtPASCredit2() (*Result, error) {
	type outcome struct {
		joules float64
		absP1  float64 // V20 absolute load while alone (phase 1)
		absP2  float64 // V20 absolute load under contention (phase 2)
		served float64 // total executed work, units
	}
	measure := func(scheduler string) (outcome, *energy.Meter, error) {
		run, err := runScenario(scheduler, "none", loadThrashing, scenarioSeed)
		if err != nil {
			return outcome{}, nil, err
		}
		a20, err := run.series("V20_absolute_pct")
		if err != nil {
			return outcome{}, nil, err
		}
		p1, _ := a20.MeanBetween(p1Lo, p1Hi)
		p2, _ := a20.MeanBetween(p2Lo, p2Hi)
		return outcome{
			joules: run.energy.Joules(),
			absP1:  p1,
			absP2:  p2,
			served: run.work.Units(),
		}, run.energy, nil
	}

	res := &Result{
		ID:    "ext-pas-credit2",
		Title: "Extension: cap-based PAS vs Credit2-based PAS (weights at the 10 ms cadence)",
	}
	caps, capMeter, err := measure("pas")
	if err != nil {
		return nil, err
	}
	weights, weightMeter, err := measure("pas-credit2")
	if err != nil {
		return nil, err
	}

	tb := metrics.NewTable("Section 5.3 thrashing profile (700 s), PAS DVFS policy under both enforcements",
		"enforcement", "energy (J)", "avg power (W)",
		"V20 absolute, alone (%)", "V20 absolute, contended (%)", "served work (units)")
	tb.AddRow("caps (PAS)", metrics.Fmt(caps.joules, 0), metrics.Fmt(capMeter.AveragePower(), 1),
		metrics.Fmt(caps.absP1, 1), metrics.Fmt(caps.absP2, 1), metrics.Fmt(caps.served, 0))
	tb.AddRow("credit2 weights (PAS-credit2)", metrics.Fmt(weights.joules, 0),
		metrics.Fmt(weightMeter.AveragePower(), 1),
		metrics.Fmt(weights.absP1, 1), metrics.Fmt(weights.absP2, 1), metrics.Fmt(weights.served, 0))
	res.Tables = append(res.Tables, tb)

	res.Checks = append(res.Checks,
		checkNear("cap-based PAS holds V20 at its credit (absolute %)", "20", caps.absP1, 20, 1.5),
		checkBetween("credit2-based PAS lets a lone thrashing V20 exceed its credit (absolute %)",
			"work-conserving: idle slack flows to the runnable VM", weights.absP1, 50, 100),
		checkTrue("weight enforcement serves at least as much demand",
			"variable-credit schedulers serve what caps would refuse (Section 3.2)",
			fmt.Sprintf("served: weights %.3g vs caps %.3g", weights.served, caps.served),
			weights.served >= caps.served),
		checkTrue("serving the extra demand costs energy",
			"thrashing load prevents frequency reduction (Section 3.2)",
			fmt.Sprintf("joules: weights %.0f vs caps %.0f", weights.joules, caps.joules),
			weights.joules >= caps.joules),
	)
	res.Notes = append(res.Notes,
		"both runs share the DVFS policy (Listing 1.1 at the 10 ms cadence); only the enforcement mechanism differs",
		"the same comparison runs at fleet scale via pasfleet -sched pas-credit2")
	return res, nil
}
