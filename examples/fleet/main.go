// Fleet: the datacenter-scale consolidation scenario of Section 2.3,
// driven by a synthetic VM lifecycle trace. A heterogeneous estate of
// 1000 machines (three hardware classes with different frequency
// ladders, power curves and memory sizes) serves 5000 VM arrivals with
// diurnal demand and heavy-tailed lifetimes. The same trace runs under
// two placement policies (first-fit and the DVFS-aware packer) and two
// schedulers (PAS versus fix-credit pinned at maximum frequency),
// reporting cluster-level energy and SLA — the paper's claim, at fleet
// scale: DVFS with credit compensation saves energy without giving up
// the contractual CPU shares.
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
	machines = 1000
	arrivals = 5000
	horizon  = 600 * sim.Second
	seed     = 42
)

func main() {
	gen := fleet.GenConfig{
		Seed:     seed,
		Arrivals: arrivals,
		Horizon:  horizon,
	}
	fmt.Printf("Trace: %d VM lifecycles over %v across %d machines in 3 hardware classes.\n\n",
		arrivals, horizon, machines)

	type runCfg struct {
		label  string
		policy fleet.Policy
		sched  string
	}
	runs := []runCfg{
		{"first-fit / fix-credit", fleet.NewFirstFit(), "credit"},
		{"first-fit / PAS", fleet.NewFirstFit(), "pas"},
		{"dvfs-aware / fix-credit", fleet.NewDVFSAware(), "credit"},
		{"dvfs-aware / PAS", fleet.NewDVFSAware(), "pas"},
	}

	tb := metrics.NewTable("Cluster-level outcome per configuration:",
		"configuration", "energy (kJ)", "mean power (W)", "mean active", "migrations",
		"overall SLA", "VMs <95% SLA")
	reports := make([]*fleet.Report, len(runs))
	for i, rc := range runs {
		// Each run streams its own copy of the seeded trace.
		trace, err := fleet.GenerateStream(gen)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fleet.NewStream(fleet.Config{
			Machines:         fleet.DefaultEstate(machines),
			Scheduler:        rc.sched,
			Policy:           rc.policy,
			ReportEvery:      30 * sim.Second,
			ConsolidateEvery: 120 * sim.Second,
			Seed:             seed,
		}, trace)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := fl.Run(horizon)
		if err != nil {
			log.Fatal(err)
		}
		reports[i] = rep
		s := rep.Summary
		tb.AddRow(rc.label,
			fmt.Sprintf("%.0f", s.TotalJoules/1000),
			fmt.Sprintf("%.0f", s.MeanPowerW),
			fmt.Sprintf("%.1f", s.MeanActiveMachines),
			fmt.Sprintf("%d", s.Migrated),
			fmt.Sprintf("%.4f", s.OverallSLA),
			fmt.Sprintf("%d", s.VMsBelow95))
	}
	fmt.Println(tb.Render())

	ffFix, ffPAS := reports[0].Summary, reports[1].Summary
	daFix, daPAS := reports[2].Summary, reports[3].Summary
	fmt.Printf("PAS vs fix-credit energy saving: %.1f%% under first-fit, %.1f%% under dvfs-aware.\n",
		(1-ffPAS.TotalJoules/ffFix.TotalJoules)*100,
		(1-daPAS.TotalJoules/daFix.TotalJoules)*100)
	fmt.Printf("DVFS-aware vs first-fit placement (PAS): %.1f%% energy, SLA %.4f vs %.4f.\n\n",
		(1-daPAS.TotalJoules/ffPAS.TotalJoules)*100, daPAS.OverallSLA, ffPAS.OverallSLA)

	// The dvfs-aware/PAS interval curves and every summary go to disk,
	// mirroring what the CI job uploads as an artifact.
	if err := writeFile("FLEET_intervals.csv", reports[3].WriteCSV); err != nil {
		log.Fatal(err)
	}
	summaries := make([]fleet.Summary, len(reports))
	for i, rep := range reports {
		summaries[i] = rep.Summary
	}
	if err := writeJSON("FLEET_summary.json", summaries); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Wrote FLEET_intervals.csv (dvfs-aware/PAS curves) and FLEET_summary.json.")
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

func writeJSON(path string, summaries []fleet.Summary) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summaries)
	})
}
