package fleet

import (
	"testing"

	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// TestOneMachineFleetMatchesMachine is the layer-differential oracle
// below the fleet: a one-machine fleet must reproduce, bit for bit, the
// machine the builder gives a single-host experiment, driven by hand
// through the same arrivals and departures. Two VMs with overlapping
// thrashing demand share an Optiplex 755: V20 departs before the
// horizon, V70 lives past it. Energy, executed work, the final P-state
// and every VM's attained work must match exactly, for every scheduler
// of the registry. Anything the fleet adds on the way — placement,
// lazy power-on, reporting barriers that split the host's run, the
// per-VM seeds, the departure fold — must leave the machine untouched.
func TestOneMachineFleetMatchesMachine(t *testing.T) {
	const (
		seed    = 42
		horizon = 90 * sim.Second
	)
	thrash := func(credit float64, start, end sim.Time) []workload.Phase {
		rate := 5 * workload.ExactRate(ReferenceThroughput, credit, workload.DefaultRequestCost)
		return []workload.Phase{{Start: start, End: end, Rate: rate}}
	}
	tr := &testTrace{
		Classes: map[string]VMClass{
			"v20": {Name: "v20", CreditPct: 20, MemoryMB: 1024},
			"v70": {Name: "v70", CreditPct: 70, MemoryMB: 2048},
		},
		Events: []VMEvent{
			{Name: "V20", Class: "v20", Arrive: 5 * sim.Second, Lifetime: 60 * sim.Second,
				Demand: thrash(20, 10*sim.Second, 50*sim.Second)},
			{Name: "V70", Class: "v70", Arrive: 20 * sim.Second, Lifetime: 200 * sim.Second,
				Demand: thrash(70, 30*sim.Second, 80*sim.Second)},
		},
		Horizon: horizon,
	}
	prof := cpufreq.Optiplex755()
	for _, s := range []string{"pas", "credit", "credit2", "sedf", "pas-credit2"} {
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			f, err := NewStream(Config{
				Machines: []MachineClass{{Name: "optiplex", Count: 1,
					Spec: consolidation.HostSpec{MemoryMB: 8192, Profile: prof}}},
				Scheduler: s,
				Seed:      seed,
			}, tr.source())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Run(horizon)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Host(0)
			if err != nil {
				t.Fatal(err)
			}

			// The reference: the same machine, driven by hand.
			ref, err := host.NewMachine(s, 10, host.Config{Profile: prof, SampleInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			wls := make([]*workload.WebApp, len(tr.Events))
			for i, ev := range tr.Events {
				if err := ref.RunUntil(ev.Arrive); err != nil {
					t.Fatal(err)
				}
				class := tr.Classes[ev.Class]
				wl, err := workload.NewWebApp(workload.WebAppConfig{
					Phases:     ev.demandPhases(class, horizon),
					MaxBacklog: -1,
					Seed:       vmSeed(seed, i, seedLaneWorkload),
				})
				if err != nil {
					t.Fatal(err)
				}
				guest, err := vm.New(vm.ID(i+1), vm.Config{Name: ev.Name, Credit: class.CreditPct})
				if err != nil {
					t.Fatal(err)
				}
				guest.SetWorkload(wl)
				if err := ref.AddVM(guest); err != nil {
					t.Fatal(err)
				}
				wls[i] = wl
			}
			v20 := tr.Events[0]
			if err := ref.RunUntil(v20.Arrive + v20.Lifetime); err != nil {
				t.Fatal(err)
			}
			if err := ref.RemoveVM(1); err != nil {
				t.Fatal(err)
			}
			if err := ref.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}

			if g, w := got.Energy().Total(), ref.Energy().Total(); g != w {
				t.Errorf("energy %v, machine %v", g, w)
			}
			if g, w := got.CumulativeWork(), ref.CumulativeWork(); g != w {
				t.Errorf("executed work %v, machine %v", g, w)
			}
			if g, w := got.CPU().Freq(), ref.CPU().Freq(); g != w {
				t.Errorf("final frequency %v, machine %v", g, w)
			}
			if len(rep.PerVM) != len(wls) {
				t.Fatalf("%d VM outcomes, want %d", len(rep.PerVM), len(wls))
			}
			for i, o := range rep.PerVM {
				if w := wls[i].CompletedWork().Units(); o.Name != tr.Events[i].Name || o.AttainedWork != w {
					t.Errorf("%s attained %v, machine's %s %v", o.Name, o.AttainedWork, tr.Events[i].Name, w)
				}
			}
			if rep.Summary.Departed != 1 || ref.CumulativeWork() == 0 {
				t.Fatalf("vacuous scenario: departed %d, work %v", rep.Summary.Departed, ref.CumulativeWork())
			}
		})
	}
}
