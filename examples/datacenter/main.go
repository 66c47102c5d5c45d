// Datacenter: the Section 2.3 context. A hosting center consolidates VMs
// onto as few machines as memory allows, switches the rest off, and then
// still runs DVFS (with PAS enforcing the credits) on the machines that
// remain — because memory-bound packing leaves their CPUs underloaded,
// consolidation and DVFS are complementary, not redundant.
package main

import (
	"fmt"
	"log"
	"strings"

	"pasched"
	"pasched/internal/consolidation"
	"pasched/internal/fleet"
	"pasched/internal/metrics"
)

func main() {
	machine := consolidation.HostSpec{
		MemoryMB: 8192,
		Profile:  pasched.Optiplex755(),
	}
	// A typical mixed estate: mostly idle services with contractual CPU
	// shares and real memory footprints.
	vms := []consolidation.VMSpec{
		{Name: "web-frontend", CreditPct: 30, MemoryMB: 3072, Activity: 0.9},
		{Name: "web-backend", CreditPct: 30, MemoryMB: 4096, Activity: 0.6},
		{Name: "database", CreditPct: 40, MemoryMB: 6144, Activity: 0.5},
		{Name: "batch", CreditPct: 20, MemoryMB: 2048, Activity: 1.0},
		{Name: "monitoring", CreditPct: 10, MemoryMB: 1024, Activity: 0.3},
		{Name: "build-ci", CreditPct: 25, MemoryMB: 4096, Activity: 0.2},
		{Name: "mail", CreditPct: 10, MemoryMB: 2048, Activity: 0.2},
		{Name: "backup", CreditPct: 15, MemoryMB: 3072, Activity: 0.1},
	}

	placement, err := consolidation.PackFFD(vms, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Consolidation: %d VMs packed onto %d machines (memory-bound FFD);\n",
		len(vms), placement.Hosts)
	fmt.Printf("machines beyond the %d placed ones are switched off.\n\n", placement.Hosts)

	const dur = 60 * pasched.Second
	baseline, err := consolidation.Simulate(placement, vms, machine, dur, false)
	if err != nil {
		log.Fatal(err)
	}
	withPAS, err := consolidation.Simulate(placement, vms, machine, dur, true)
	if err != nil {
		log.Fatal(err)
	}

	tbm := metrics.NewTable("Per-machine outcome over 60 s:",
		"machine", "VMs", "mean load (%)", "mean freq, PAS (MHz)", "J @ max freq", "J with PAS")
	for i := range withPAS.PerHost {
		b := baseline.PerHost[i]
		p := withPAS.PerHost[i]
		tbm.AddRow(
			fmt.Sprintf("m%d", i),
			fmt.Sprintf("%v", p.VMs),
			metrics.Fmt(p.MeanLoadPct, 1),
			metrics.Fmt(p.MeanFreqMHz, 0),
			metrics.Fmt(b.Joules, 0),
			metrics.Fmt(p.Joules, 0),
		)
	}
	fmt.Println(tbm.Render())
	saved := (baseline.TotalJoules - withPAS.TotalJoules) / baseline.TotalJoules * 100
	fmt.Printf("\nTotal: %.0f J at max frequency vs %.0f J with PAS — %.1f%% saved\n",
		baseline.TotalJoules, withPAS.TotalJoules, saved)
	fmt.Println("on machines that consolidation could not fill (memory was the bottleneck),")
	fmt.Println("while every VM keeps its contracted absolute CPU share.")

	dynamicPhase()
}

// dynamicPhase shows the live side of Section 2.3: the estate shrinks at
// night, the consolidation manager migrates the survivors together and
// powers machines off, and PAS keeps saving on what remains.
func dynamicPhase() {
	fmt.Println("\n--- Dynamic consolidation (live migration + power-off) ---")
	rep, err := nightRun(5 * pasched.Second)
	if err != nil {
		log.Fatal(err)
	}
	last := rep.Intervals[len(rep.Intervals)-1]
	fmt.Printf("after 90 s: %d/%d machines still on, %d live migrations, %d powered off\n",
		last.ActiveMachines, rep.Summary.Machines, rep.Summary.Migrated, rep.Summary.PowerOffs)
	fmt.Printf("energy consumed: %.0f J (machines switched off cost nothing;\n", rep.Summary.TotalJoules)
	fmt.Println("PAS keeps the surviving machine at a reduced frequency).")
}

// nightRun replays the night on four machines under PAS and first-fit,
// reporting every 5 s and consolidating every consolidateEvery (zero
// disables consolidation). Four daytime VMs fill the machines first, so
// first-fit spreads the four night-time services one per machine. When
// the daytime VMs leave at 10 s, the services are left spread out.
func nightRun(consolidateEvery pasched.Time) (*fleet.Report, error) {
	trace, err := fleet.ParseTraceStream(strings.NewReader(`
horizon,90
class,day,60,6144
class,svc,15,1500
vm,day0,0,10,day,0.4
vm,day1,0,10,day,0.4
vm,day2,0,10,day,0.4
vm,day3,0,10,day,0.4
vm,svc0,0,90,svc,0.4
vm,svc1,0,90,svc,0.4
vm,svc2,0,90,svc,0.4
vm,svc3,0,90,svc,0.4
`))
	if err != nil {
		return nil, err
	}
	machine := consolidation.HostSpec{MemoryMB: 8192, Profile: pasched.Optiplex755()}
	fl, err := fleet.NewStream(fleet.Config{
		Machines:         []fleet.MachineClass{{Name: "optiplex-755", Count: 4, Spec: machine}},
		Scheduler:        "pas",
		Policy:           fleet.NewFirstFit(),
		ReportEvery:      5 * pasched.Second,
		ConsolidateEvery: consolidateEvery,
	}, trace)
	if err != nil {
		return nil, err
	}
	return fl.Run(90 * pasched.Second)
}
