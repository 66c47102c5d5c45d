package experiments

import (
	"fmt"

	"pasched/internal/governor"
	"pasched/internal/metrics"
)

// AblationGovernors compares the governor families of Section 2.2 on the
// Section 5.3 exact-load scenario under the Credit scheduler: performance
// and powersave as the two extremes, conservative's one-step walks, the
// stock ondemand's aggressive jumps, and the paper's smoothed governor.
// It quantifies the stability/energy/QoS triangle the paper describes in
// prose.
func AblationGovernors() (*Result, error) {
	type row struct {
		name  string
		build func() (governor.Governor, error)
	}
	rows := []row{
		{"performance", func() (governor.Governor, error) { return &governor.Performance{}, nil }},
		{"powersave", func() (governor.Governor, error) { return &governor.Powersave{}, nil }},
		{"conservative", func() (governor.Governor, error) {
			return governor.NewConservative(governor.ConservativeConfig{})
		}},
		{"ondemand (stock)", func() (governor.Governor, error) {
			return governor.NewLinuxOndemand(governor.LinuxOndemandConfig{})
		}},
		{"our governor", func() (governor.Governor, error) {
			return governor.NewPaperOndemand(governor.PaperOndemandConfig{})
		}},
	}

	res := &Result{
		ID:    "ablation-governors",
		Title: "Section 2.2 governors on the exact-load scenario (Credit scheduler)",
	}
	tb := metrics.NewTable("Governor comparison over the 700 s profile",
		"governor", "mean freq (MHz)", "freq transitions", "V20 absolute, phase 1 (%)", "energy (J)")

	outcomes := make(map[string]struct {
		trans  int
		joules float64
		absP1  float64
	}, len(rows))
	for _, r := range rows {
		g, err := r.build()
		if err != nil {
			return nil, err
		}
		sc, err := newScenario("credit", g, loadExact, 42)
		if err != nil {
			return nil, err
		}
		if err := sc.run(); err != nil {
			return nil, err
		}
		rec := sc.host.Recorder()
		freqMean := rec.Series("freq_mhz").Mean()
		trans := rec.Series("freq_mhz").Transitions(1)
		absP1, _ := rec.Series("V20_absolute_pct").MeanBetween(p1Lo, p1Hi)
		joules := sc.host.Energy().Joules()
		outcomes[r.name] = struct {
			trans  int
			joules float64
			absP1  float64
		}{trans, joules, absP1}
		tb.AddRow(r.name, metrics.Fmt(freqMean, 0), fmt.Sprintf("%d", trans),
			metrics.Fmt(absP1, 1), metrics.Fmt(joules, 0))
	}
	res.Tables = append(res.Tables, tb)

	perf := outcomes["performance"]
	save := outcomes["powersave"]
	stock := outcomes["ondemand (stock)"]
	ours := outcomes["our governor"]
	cons := outcomes["conservative"]
	res.Checks = append(res.Checks,
		checkNear("performance keeps the SLA (V20 absolute %)", "20", perf.absP1, 20, 1.5),
		checkTrue("powersave is the cheapest and the worst for V20",
			"lowest frequency regardless of load",
			fmt.Sprintf("%.0fJ, V20 %.1f%%", save.joules, save.absP1),
			save.joules < perf.joules && save.absP1 < 15),
		checkTrue("stock ondemand oscillates far more than ours",
			"aggressive and unstable (Section 5.4)",
			fmt.Sprintf("%d vs %d transitions", stock.trans, ours.trans),
			stock.trans > 5*ours.trans),
		checkTrue("every dynamic governor undercuts performance's energy",
			"DVFS saves energy",
			fmt.Sprintf("cons %.0f, stock %.0f, ours %.0f < perf %.0f",
				cons.joules, stock.joules, ours.joules, perf.joules),
			cons.joules < perf.joules && stock.joules < perf.joules && ours.joules < perf.joules),
		checkTrue("no util-driven governor preserves V20's SLA",
			"the incompatibility PAS fixes (Section 3.2)",
			fmt.Sprintf("cons %.1f%%, stock %.1f%%, ours %.1f%%",
				cons.absP1, stock.absP1, ours.absP1),
			cons.absP1 < 15 && stock.absP1 < 15 && ours.absP1 < 15),
	)
	return res, nil
}
