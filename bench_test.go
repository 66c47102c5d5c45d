// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end,
// fails if the experiment's shape checks fail, and reports the headline
// quantities the paper reports (loads in percent, execution times in
// simulated seconds, degradations in percent) via b.ReportMetric.
//
// Run with:
//
//	go test -bench=. -benchmem
package pasched_test

import (
	"testing"

	"pasched"
	"pasched/internal/autoscale"
	"pasched/internal/experiments"
	"pasched/internal/fleet"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// runExperiment executes one experiment per benchmark iteration and
// returns the last result. Every iteration starts from a cold scenario
// memo, so it times the simulations rather than memo lookups.
func runExperiment(b *testing.B, id string) *pasched.ExperimentResult {
	b.Helper()
	var res *pasched.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ForgetScenarios()
		res, err = pasched.RunExperiment(id)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if !res.Passed() {
			b.Fatalf("experiment %s failed shape checks: %v", id, res.FailedChecks())
		}
	}
	return res
}

// reportTableCell reports the numeric value at (rowLabel, column) of the
// result's first table under the given metric name.
func reportTableCell(b *testing.B, res *pasched.ExperimentResult, row, col int, name string) {
	b.Helper()
	if len(res.Tables) == 0 || row >= len(res.Tables[0].Rows) || col >= len(res.Tables[0].Rows[row]) {
		return
	}
	var v float64
	if _, err := fmtSscan(res.Tables[0].Rows[row][col], &v); err != nil {
		return
	}
	b.ReportMetric(v, name)
}

func BenchmarkVerifyProportionality(b *testing.B) {
	b.Run("verify", func(b *testing.B) {
		res := runExperiment(b, "verify")
		b.ReportMetric(float64(len(res.Checks)), "checks")
	})
	// Contended-host smoke: three hard-capped hogs keep several VMs
	// runnable at once, so the engine's multi-runnable pattern batching
	// must engage. Reporting batched_quanta/op makes every CI benchmark
	// run observe the contended fast path — a zero here means contended
	// hosts silently fell back to quantum-by-quantum stepping. A
	// separate sub-benchmark keeps its timing out of the verify
	// experiment's ns/op.
	b.Run("contended-host", func(b *testing.B) {
		sys, err := pasched.NewSystem(pasched.WithCreditScheduler())
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			name   string
			credit float64
		}{{"V20", 20}, {"V30", 30}, {"V40", 40}} {
			v, err := sys.AddVM(cfg.name, cfg.credit)
			if err != nil {
				b.Fatal(err)
			}
			v.SetWorkload(pasched.CPUHog())
		}
		for i := 0; i < b.N; i++ {
			if err := sys.Run(pasched.Second); err != nil {
				b.Fatal(err)
			}
		}
		eng := sys.Host().Engine()
		perOp := float64(eng.BatchedQuanta()) / float64(b.N)
		b.ReportMetric(perOp, "batched_quanta/op")
		// ~963 of the 1000 quanta per simulated second batch when the
		// rotation path works; idle-only batching (budgets exhausted at
		// period ends) would still score ~100, so the floor must sit
		// well above that to actually guard the contended fast path.
		if perOp < 500 {
			b.Fatalf("contended host batched only %.0f quanta/op; the pattern path regressed", perOp)
		}
	})
}

func BenchmarkFig1Compensation(b *testing.B) {
	res := runExperiment(b, "fig1")
	// The execution time at 20% initial credit, both curves.
	reportTableCell(b, res, 1, 2, "T@2667MHz_credit20_s")
	reportTableCell(b, res, 1, 3, "T@2133MHz_compensated_s")
}

func BenchmarkFig2LoadProfile(b *testing.B) {
	runExperiment(b, "fig2")
}

func BenchmarkFig3StockOndemand(b *testing.B) {
	res := runExperiment(b, "fig3")
	reportCheck(b, res, "frequency transitions across 1s samples", "freq_transitions")
}

func BenchmarkFig4PaperGovernor(b *testing.B) {
	res := runExperiment(b, "fig4")
	reportCheck(b, res, "frequency transitions across 1s samples", "freq_transitions")
}

func BenchmarkFig5AbsoluteLoadsCredit(b *testing.B) {
	res := runExperiment(b, "fig5")
	reportCheck(b, res, "V20 absolute load, phase 1 (%)", "v20_abs_p1_pct")
}

func BenchmarkFig6SEDFGlobalLoads(b *testing.B) {
	res := runExperiment(b, "fig6")
	reportCheck(b, res, "V20 global load, phase 1 (%)", "v20_global_p1_pct")
}

func BenchmarkFig7SEDFAbsoluteLoads(b *testing.B) {
	res := runExperiment(b, "fig7")
	reportCheck(b, res, "V20 absolute load, phase 1 (%)", "v20_abs_p1_pct")
}

func BenchmarkFig8SEDFThrashing(b *testing.B) {
	res := runExperiment(b, "fig8")
	reportCheck(b, res, "V20 global load, phase 1 (%)", "v20_global_p1_pct")
}

func BenchmarkFig9PASGlobalLoads(b *testing.B) {
	res := runExperiment(b, "fig9")
	reportCheck(b, res, "V20 enforced cap, phase 1 (%)", "v20_cap_p1_pct")
}

func BenchmarkFig10PASAbsoluteLoads(b *testing.B) {
	res := runExperiment(b, "fig10")
	reportCheck(b, res, "V20 absolute load, phase 1 (%)", "v20_abs_p1_pct")
}

func BenchmarkTable1CFMeasurement(b *testing.B) {
	res := runExperiment(b, "table1")
	// cf_min of the most deviant part (E5-2620).
	reportCheck(b, res, "cf_min Intel Xeon E5-2620", "cf_min_e5_2620")
}

func BenchmarkTable2Platforms(b *testing.B) {
	res := runExperiment(b, "table2")
	reportCheck(b, res, "Hyper-V degradation (%)", "hyperv_degradation_pct")
	reportCheck(b, res, "Xen/credit degradation (%)", "xen_credit_degradation_pct")
	reportCheck(b, res, "Xen/PAS degradation (%)", "xen_pas_degradation_pct")
}

func BenchmarkAblationImplementation(b *testing.B) {
	runExperiment(b, "ablation-impl")
}

func BenchmarkEnergyAblation(b *testing.B) {
	runExperiment(b, "energy")
}

func BenchmarkAblationGovernors(b *testing.B) {
	runExperiment(b, "ablation-governors")
}

func BenchmarkExtMulticore(b *testing.B) {
	runExperiment(b, "ext-multicore")
}

func BenchmarkExtConsolidation(b *testing.B) {
	runExperiment(b, "ext-consolidation")
}

// benchFleet drives one fleet configuration per benchmark iteration,
// each over a fresh stream of the generated trace, and reports
// batching/SLA metrics plus allocations (allocs/op regressions in the
// arrival/interval hot paths surface in BENCH_ci.json).
func benchFleet(b *testing.B, gen fleet.GenConfig, cfg fleet.Config, horizon sim.Time) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var rep *fleet.Report
	for i := 0; i < b.N; i++ {
		src, err := fleet.GenerateStream(gen)
		if err != nil {
			b.Fatal(err)
		}
		fl, err := fleet.NewStream(cfg, src)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = fl.Run(horizon)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Summary.Arrived == 0 || rep.Summary.BatchedQuanta == 0 {
			b.Fatalf("vacuous fleet run: %+v", rep.Summary)
		}
	}
	b.ReportMetric(float64(rep.Summary.BatchedQuanta), "batched_quanta/op")
	b.ReportMetric(rep.Summary.OverallSLA*100, "overall_sla_pct")
}

// BenchmarkFleetRun measures the trace-driven datacenter simulator.
// Every iteration streams its trace from the generator inside Run, so
// the one-event lookahead and the per-event check are on every path.
//
// s1 and s8 drive the historical 200-machine, 1000-lifecycle scenario
// under the DVFS-aware policy with PAS machines — the configuration
// where placement, migration, power management and per-host batching
// all engage — on one shard and one worker, stepped on the benchmark's
// own goroutine (s1, the no-regression gate), and on eight shards run
// by eight workers (s8, the multi-core speedup; both produce
// bit-identical reports).
//
// serve repeats s1 with the request-level serving layer enabled,
// gating its hot-path overhead (client streams, attained-rate service,
// histogram folds) and allocations.
//
// large is the datacenter-scale class: 50k machines, 500k VM
// lifecycles, sharded with streaming discard so memory stays
// O(machines + live VMs). First-fit placement — the O(active-prefix)
// scan — keeps per-arrival cost feasible at this machine count.
func BenchmarkFleetRun(b *testing.B) {
	const horizon = 120 * sim.Second
	gen := fleet.GenConfig{Seed: 42, Arrivals: 1000, Horizon: horizon}
	machines := fleet.DefaultEstate(200)
	base := fleet.Config{
		Machines:         machines,
		Scheduler:        "pas",
		Policy:           fleet.NewDVFSAware(),
		ReportEvery:      30 * sim.Second,
		ConsolidateEvery: 60 * sim.Second,
		Seed:             42,
	}
	b.Run("s1", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 1, 1
		benchFleet(b, gen, cfg, horizon)
	})
	b.Run("s8", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 8, 8
		benchFleet(b, gen, cfg, horizon)
	})
	// serve layers the request-level serving model on s1: per-VM client
	// streams, attained-rate service and latency histogram folds all run
	// on the hot path, so this gates the serving layer's overhead and
	// allocations against the plain s1 numbers.
	b.Run("serve", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 1, 1
		cfg.Serving = fleet.ServingConfig{Enabled: true}
		benchFleet(b, gen, cfg, horizon)
	})
	// obs-record repeats s1 with the flight recorder enabled into a sink
	// that drops every window, gating the recording cost alone — per-lane
	// emission on refills, state changes and P-state transitions, the
	// attribution ledgers, and the barrier drain/merge — against the
	// plain s1 numbers. obs-retain additionally keeps the merged stream
	// in memory (Buffer), so the difference is the retention cost.
	b.Run("obs-record", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 1, 1
		cfg.Obs = fleet.ObsConfig{Enabled: true, Sink: discardEvents{}}
		benchFleet(b, gen, cfg, horizon)
	})
	b.Run("obs-retain", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 1, 1
		cfg.Obs = fleet.ObsConfig{Enabled: true, Buffer: true}
		benchFleet(b, gen, cfg, horizon)
	})
	// autoscale runs the full elastic loop on top of serve + obs: signal
	// builds at every barrier, ditto policy decisions, cap rebooking and
	// replica scale-out/in with arrival-stream repartitioning. Gates the
	// coordinator-side control-loop overhead and its allocations.
	b.Run("autoscale", func(b *testing.B) {
		cfg := base
		cfg.Shards, cfg.Workers = 1, 1
		cfg.Serving = fleet.ServingConfig{Enabled: true, RequestCost: workload.DefaultRequestCost}
		cfg.Obs = fleet.ObsConfig{Enabled: true, Buffer: true}
		cfg.Autoscale = fleet.AutoscaleConfig{
			Enabled: true,
			Policy:  "ditto",
			Params:  autoscale.Params{MaxCapPct: 30, MaxReplicas: 2, CappedHighPermille: 50},
		}
		benchFleet(b, gen, cfg, horizon)
	})
	b.Run("large", func(b *testing.B) {
		const largeHorizon = 300 * sim.Second
		benchFleet(b, fleet.GenConfig{
			Seed:         42,
			Arrivals:     500_000,
			Horizon:      largeHorizon,
			MeanLifetime: 30 * sim.Second,
		}, fleet.Config{
			Machines:         fleet.DefaultEstate(50_000),
			Scheduler:        "pas",
			Policy:           fleet.NewFirstFit(),
			ReportEvery:      60 * sim.Second,
			ConsolidateEvery: 120 * sim.Second,
			Shards:           8,
			Seed:             42,
			DiscardReport:    true,
		}, largeHorizon)
	})
}

// reportCheck reports a named check's measured value as a metric.
func reportCheck(b *testing.B, res *pasched.ExperimentResult, check, name string) {
	b.Helper()
	for _, c := range res.Checks {
		if c.Name == check {
			var v float64
			if _, err := fmtSscan(c.Measured, &v); err == nil {
				b.ReportMetric(v, name)
			}
			return
		}
	}
}
