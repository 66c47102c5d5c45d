// Serving: the request-level view of credit enforcement. Each VM in a
// deliberately contended estate carries an open-loop client population;
// reply latency derives from the VM's *attained* work rate, so the
// scheduler's enforcement policy becomes user-visible as percentiles.
// The same trace — identical offered request load — runs under the
// cap-enforcing schedulers (fix-credit, PAS) and the work-conserving
// ones (credit2, pas-credit2), head to head on a latency/energy front:
// caps and work conservation shape the latency distribution differently
// at equal load, and PAS buys its energy saving without giving up the
// enforced share.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"

	"pasched/internal/fleet"
	"pasched/internal/metrics"
	"pasched/internal/sim"
)

const (
	machines = 6
	arrivals = 120
	horizon  = 240 * sim.Second
	seed     = 31
)

func main() {
	// High base activity against a small estate: VMs demand ~90% of
	// their credit, so enforcement actually binds and the schedulers'
	// policies separate. A 2 s reporting interval keeps the serving
	// barriers (where attained work is folded into latencies) fine
	// enough to resolve the differences.
	gen := fleet.GenConfig{
		Seed:         seed,
		Arrivals:     arrivals,
		Horizon:      horizon,
		MeanLifetime: 120 * sim.Second,
		BaseActivity: 0.9,
		SegmentLen:   60 * sim.Second,
	}
	fmt.Printf("Trace: %d VM lifecycles over %v on %d machines, ~90%% activity — enforcement binds.\n\n",
		arrivals, horizon, machines)

	schedulers := []string{"credit", "pas", "credit2", "pas-credit2"}
	tb := metrics.NewTable("Request latency and energy per scheduler (equal offered load):",
		"scheduler", "offered", "completed", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)",
		"energy (kJ)", "SLA")
	reports := make(map[string]*fleet.Report, len(schedulers))
	for _, name := range schedulers {
		// Each run streams its own copy of the seeded trace.
		trace, err := fleet.GenerateStream(gen)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fleet.NewStream(fleet.Config{
			Machines:    fleet.DefaultEstate(machines),
			Scheduler:   name,
			Policy:      fleet.NewFirstFit(),
			ReportEvery: 2 * sim.Second,
			Seed:        seed,
			Serving:     fleet.ServingConfig{Enabled: true},
		}, trace)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := fl.Run(horizon)
		if err != nil {
			log.Fatal(err)
		}
		reports[name] = rep
		s := rep.Summary
		tb.AddRow(name,
			fmt.Sprintf("%d", s.RequestsOffered),
			fmt.Sprintf("%d", s.RequestsCompleted),
			fmt.Sprintf("%.2f", s.ReqP50Ms),
			fmt.Sprintf("%.2f", s.ReqP95Ms),
			fmt.Sprintf("%.2f", s.ReqP99Ms),
			fmt.Sprintf("%.2f", s.ReqMeanMs),
			fmt.Sprintf("%.1f", s.TotalJoules/1000),
			fmt.Sprintf("%.4f", s.OverallSLA))
	}
	fmt.Println(tb.Render())

	credit, pas := reports["credit"].Summary, reports["pas"].Summary
	credit2 := reports["credit2"].Summary
	fmt.Printf("Cap-enforcing vs work-conserving at equal load: credit p50 %.2f ms vs credit2 %.2f ms (p99 %.2f vs %.2f).\n",
		credit.ReqP50Ms, credit2.ReqP50Ms, credit.ReqP99Ms, credit2.ReqP99Ms)
	fmt.Printf("PAS vs fix-credit: %.1f%% energy saving at p99 %.2f vs %.2f ms.\n\n",
		(1-pas.TotalJoules/credit.TotalJoules)*100, pas.ReqP99Ms, credit.ReqP99Ms)

	// Per-class latency under PAS: the class mix spans credit sizes, so
	// enforcement lands unevenly across them.
	ct := metrics.NewTable("Per-class reply latency (PAS):",
		"VM class", "requests", "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean (ms)")
	for _, cl := range pas.ClassLatency {
		ct.AddRow(cl.Class,
			fmt.Sprintf("%d", cl.Requests),
			fmt.Sprintf("%.2f", cl.P50Ms),
			fmt.Sprintf("%.2f", cl.P95Ms),
			fmt.Sprintf("%.2f", cl.P99Ms),
			fmt.Sprintf("%.2f", cl.MeanMs))
	}
	fmt.Println(ct.Render())

	// The PAS interval curves (with the req_p* columns) and every
	// summary go to disk, mirroring the CI artifact.
	if err := writeFile("SERVING_intervals.csv", reports["pas"].WriteCSV); err != nil {
		log.Fatal(err)
	}
	summaries := make(map[string]fleet.Summary, len(reports))
	for name, rep := range reports {
		summaries[name] = rep.Summary
	}
	if err := writeJSON("SERVING_summary.json", summaries); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Wrote SERVING_intervals.csv (PAS curves) and SERVING_summary.json.")
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeJSON(path string, summaries map[string]fleet.Summary) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summaries)
	})
}
