// Pasvariants: cap-based versus weight-based credit enforcement under
// the same DVFS policy. Both systems run the paper's Power-Aware
// Scheduler loop — at every 10 ms tick the frequency drops to the lowest
// level whose capacity absorbs the absolute load — but they enforce the
// customers' credits differently:
//
//   - PAS (the paper's contribution) compensates each VM's hard cap for
//     the reduced frequency, so a thrashing VM gets exactly its
//     contracted capacity and nothing more;
//   - PAS-credit2 (the ROADMAP follow-up enabled by the Credit2
//     certification) sets Credit2 weights from the contracted credits
//     instead, once per VM and again only when it is re-contracted:
//     proportional sharing needs no frequency compensation, but being
//     work-conserving it lets a thrashing VM absorb whatever capacity
//     its neighbours leave idle.
//
// One overloaded customer (V20, offered 5x its 20% share) next to one
// lazy customer (V70, idle) makes the difference stark: caps hold V20 at
// 20% absolute while the host idles; weights hand V20 the idle slack,
// serving five times the work for correspondingly more energy.
package main

import (
	"fmt"
	"log"
	"os"

	"pasched"
	"pasched/internal/metrics"
)

const dur = 120 * pasched.Second

// run executes the scenario under one enforcement and reports V20's
// absolute load, the work served, the mean frequency and the energy.
func run(build func() (*pasched.System, error)) (absV20, served, freq, joules float64, err error) {
	sys, err := build()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	v20, err := sys.AddVM("V20", 20)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if _, err := sys.AddVM("V70", 70); err != nil {
		return 0, 0, 0, 0, err
	}
	// V20's customers hammer it at 5x its contracted capacity; V70's are
	// absent, so 70% of the machine is slack for the taking.
	maxTp := 2667e6
	wl, err := pasched.NewWebApp(pasched.WebAppConfig{
		Phases: []pasched.WebPhase{{
			Start: 0, End: dur,
			Rate: pasched.ExactRate(maxTp, 20, 0) * 5,
		}},
		MaxBacklog: -1,
		Seed:       7,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	v20.SetWorkload(wl)
	if err := sys.Run(dur); err != nil {
		return 0, 0, 0, 0, err
	}
	rec := sys.Recorder()
	absV20, _ = rec.Series("V20_absolute_pct").MeanBetween(10, 120)
	freq, _ = rec.Series("freq_mhz").MeanBetween(10, 120)
	return absV20, v20.WorkDone().Units(), freq, sys.Energy().Joules(), nil
}

func main() {
	configs := []struct {
		name  string
		build func() (*pasched.System, error)
	}{
		{"PAS (caps)", func() (*pasched.System, error) {
			return pasched.NewSystem(pasched.WithPAS())
		}},
		{"PAS-credit2 (weights)", func() (*pasched.System, error) {
			return pasched.NewSystem(pasched.WithPASCredit2())
		}},
	}
	tb := metrics.NewTable("Thrashing V20 (5x its 20% share) next to an idle V70, 120 s",
		"enforcement", "V20 absolute (%)", "V20 served work (units)", "mean freq (MHz)", "energy (J)")
	var capServed, weightServed float64
	for i, cfg := range configs {
		abs, served, freq, joules, err := run(cfg.build)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(cfg.name, metrics.Fmt(abs, 1), metrics.Fmt(served, 0),
			metrics.Fmt(freq, 0), metrics.Fmt(joules, 0))
		if i == 0 {
			capServed = served
		} else {
			weightServed = served
		}
	}
	fmt.Println(tb.Render())
	fmt.Printf("weight enforcement served %.1fx the capped work — the same DVFS policy,\n"+
		"opposite answers to \"may a customer exceed the share it paid for?\"\n",
		weightServed/capServed)
	if weightServed < capServed {
		fmt.Fprintln(os.Stderr, "unexpected: work-conserving enforcement served less than caps")
		os.Exit(1)
	}
}
