package host_test

import (
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// scenario builds one host twice — batched and reference — so the
// equivalence tests can compare their traces.
type scenario struct {
	name string
	// build constructs the host; reference toggles Config.Reference.
	build func(t *testing.T, reference bool) *host.Host
}

// webApp builds a deterministic web workload offering pct% of capacity
// during [start, end).
func webApp(t *testing.T, prof *cpufreq.Profile, pct float64, start, end sim.Time) *workload.WebApp {
	t.Helper()
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewWebApp(workload.WebAppConfig{
		Deterministic: true,
		Phases:        workload.ThreePhase(start, end, workload.ExactRate(maxTp, pct, workload.DefaultRequestCost)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func addVM(t *testing.T, h *host.Host, id vm.ID, name string, credit float64, wl workload.Workload) *vm.VM {
	t.Helper()
	v, err := vm.New(id, vm.Config{Name: name, Credit: credit})
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(wl)
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	return v
}

func equivalenceScenarios() []scenario {
	prof := cpufreq.Optiplex755()
	return []scenario{
		{
			// Fix-credit host: a hard-capped pi job (busy batches), a
			// three-phase web VM (idle and arrival-bounded stretches)
			// and long fully idle gaps.
			name: "credit",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewCredit(),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				pi, err := workload.NewPiApp(1e9)
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, pi)
				addVM(t, h, 2, "V40", 40, webApp(t, prof, 30, 10*sim.Second, 25*sim.Second))
				return h
			},
		},
		{
			// In-scheduler PAS: frequency and credits recompute every
			// 10 ms; batched stretches must stop at each recomputation.
			name: "pas",
			build: func(t *testing.T, reference bool) *host.Host {
				cpu, err := cpufreq.NewCPU(prof)
				if err != nil {
					t.Fatal(err)
				}
				pas, err := core.NewPAS(cpu, nil)
				if err != nil {
					t.Fatal(err)
				}
				h, err := host.New(host.Config{CPU: cpu, Scheduler: pas, Reference: reference})
				if err != nil {
					t.Fatal(err)
				}
				pas.BindLoadSource(h)
				addVM(t, h, 1, "V20", 20, webApp(t, prof, 20, 5*sim.Second, 20*sim.Second))
				addVM(t, h, 2, "V40", 40, &workload.Hog{})
				return h
			},
		},
		{
			// Variable-credit SEDF with extratime plus the paper's
			// governor: slice, extratime and governor-decision
			// boundaries all bound the batches.
			name: "sedf+paper-governor",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}),
					Governor:  governor.NewPaperOndemand(nil),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				pi, err := workload.NewPiApp(5e9)
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, pi)
				addVM(t, h, 2, "V40", 40, webApp(t, prof, 25, 8*sim.Second, 18*sim.Second))
				return h
			},
		},
		{
			// Contended fix-credit host: three hard-capped hogs plus a
			// web VM keep 2-4 VMs runnable at once, so batching must
			// fold Credit's weighted round-robin rotations between
			// refills (the BatchPattern path) instead of bailing out.
			name: "credit-contended",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewCredit(),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V30", 30, &workload.Hog{})
				addVM(t, h, 3, "V40", 40, &workload.Hog{})
				addVM(t, h, 4, "Vweb", 5, webApp(t, prof, 4, 10*sim.Second, 25*sim.Second))
				return h
			},
		},
		{
			// Contended host with strict priorities and a null-credit
			// VM: Dom0 monopolizes its tier, the capped tier rotates,
			// and the uncapped VM absorbs the leftover slack — three
			// different pattern modes inside one run.
			name: "credit-contended-tiers",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewCredit(),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				dom0, err := vm.New(0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
				if err != nil {
					t.Fatal(err)
				}
				dom0.SetWorkload(&workload.Hog{})
				if err := h.AddVM(dom0); err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V30", 30, &workload.Hog{})
				addVM(t, h, 3, "V0", 0, &workload.Hog{})
				return h
			},
		},
		{
			// Contended SEDF host: both VMs stay runnable, so batching
			// must fold the frozen EDF order (sequential slice phases,
			// then extratime rotations) between deadline boundaries.
			name: "sedf-contended",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V40", 40, &workload.Hog{})
				addVM(t, h, 3, "Vweb", 30, webApp(t, prof, 20, 8*sim.Second, 20*sim.Second))
				return h
			},
		},
		{
			// Contended in-scheduler PAS: two hogs rotate under the
			// compensated caps while the 10 ms recomputation keeps every
			// pattern short — batching, frequency changes and credit
			// recomputation all interleave.
			name: "pas-contended",
			build: func(t *testing.T, reference bool) *host.Host {
				cpu, err := cpufreq.NewCPU(prof)
				if err != nil {
					t.Fatal(err)
				}
				pas, err := core.NewPAS(cpu, nil)
				if err != nil {
					t.Fatal(err)
				}
				h, err := host.New(host.Config{CPU: cpu, Scheduler: pas, Reference: reference})
				if err != nil {
					t.Fatal(err)
				}
				pas.BindLoadSource(h)
				addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V40", 40, &workload.Hog{})
				addVM(t, h, 3, "Vweb", 30, webApp(t, prof, 25, 5*sim.Second, 22*sim.Second))
				return h
			},
		},
		{
			// Contended Credit2 host: three hogs plus a web VM race on
			// the smallest-vruntime merge, so batching must fold the
			// closed-form weighted interleaving (the BatchPattern path)
			// instead of stepping quantum by quantum.
			name: "credit2-contended",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewCredit2(),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V30", 30, &workload.Hog{})
				addVM(t, h, 3, "V40", 40, &workload.Hog{})
				addVM(t, h, 4, "Vweb", 5, webApp(t, prof, 4, 10*sim.Second, 25*sim.Second))
				return h
			},
		},
		{
			// Credit2 with churning occupancy: a finite pi job drains to
			// idle, a web VM wakes and sleeps (exercising the maxLag
			// clamp on re-entry to the merge), and a paused/resumed hog
			// flips the runnable set mid-run.
			name: "credit2-wakeups",
			build: func(t *testing.T, reference bool) *host.Host {
				h, err := host.New(host.Config{
					Profile:   prof,
					Scheduler: sched.NewCredit2(),
					Reference: reference,
				})
				if err != nil {
					t.Fatal(err)
				}
				pi, err := workload.NewPiApp(3e9)
				if err != nil {
					t.Fatal(err)
				}
				addVM(t, h, 1, "Vpi", 20, pi)
				addVM(t, h, 2, "Vweb", 40, webApp(t, prof, 30, 8*sim.Second, 22*sim.Second))
				v3 := addVM(t, h, 3, "Vhog", 30, &workload.Hog{})
				h.Schedule(5*sim.Second+700, func(sim.Time) { v3.Pause() })
				h.Schedule(16*sim.Second+100, func(sim.Time) { v3.Resume() })
				return h
			},
		},
		{
			// User-level credit manager: an agent boundary every second
			// adjusts caps, plus scheduled workload swaps mid-run.
			name: "credit+agent+events",
			build: func(t *testing.T, reference bool) *host.Host {
				cpu, err := cpufreq.NewCPU(prof)
				if err != nil {
					t.Fatal(err)
				}
				credit := sched.NewCredit()
				h, err := host.New(host.Config{CPU: cpu, Scheduler: credit, Reference: reference})
				if err != nil {
					t.Fatal(err)
				}
				v1 := addVM(t, h, 1, "V20", 20, &workload.Hog{})
				addVM(t, h, 2, "V40", 40, workload.Idle{})
				mgr, err := core.NewCreditManager(cpu, credit, nil, sim.Second,
					map[vm.ID]float64{1: 20, 2: 40})
				if err != nil {
					t.Fatal(err)
				}
				if err := h.AddAgent(mgr); err != nil {
					t.Fatal(err)
				}
				h.Schedule(7*sim.Second+300, func(sim.Time) { v1.SetWorkload(workload.Idle{}) })
				h.Schedule(13*sim.Second, func(sim.Time) { v1.SetWorkload(&workload.Hog{}) })
				return h
			},
		},
	}
}

// TestBatchedEquivalence runs every scenario through the batching engine
// and the reference quantum-by-quantum loop and requires bit-identical
// traces on every series: busy time, work and energy are all exact
// integer accounting (sim.Time, sim.Work, energy.Energy), so a batched
// stretch summed in one addition lands on exactly the state thousands of
// per-quantum additions would.
func TestBatchedEquivalence(t *testing.T) {
	const horizon = 30 * sim.Second
	for _, sc := range equivalenceScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			batched := sc.build(t, false)
			reference := sc.build(t, true)
			if err := batched.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			if err := reference.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			if batched.Engine().BatchedQuanta() == 0 {
				t.Fatal("batching never engaged; the comparison is vacuous")
			}
			if ref := reference.Engine().BatchedQuanta(); ref != 0 {
				t.Fatalf("reference host batched %d quanta", ref)
			}
			t.Logf("batched %d / stepped %d quanta",
				batched.Engine().BatchedQuanta(), batched.Engine().SteppedQuanta())
			assertHostTraceEquivalence(t, batched, reference)
		})
	}
}

// assertHostTraceEquivalence requires the two hosts to have produced
// bit-identical traces. There are no tolerances: busy time, work and
// energy are exact integer accounting end to end, and the recorded float
// series derive from those integers through identical conversions, so
// every point must compare == exactly.
func assertHostTraceEquivalence(t *testing.T, batched, reference *host.Host) {
	t.Helper()
	if got, want := batched.CumulativeBusy(), reference.CumulativeBusy(); got != want {
		t.Errorf("CumulativeBusy: batched %v reference %v", got, want)
	}
	if got, want := batched.CumulativeWork(), reference.CumulativeWork(); got != want {
		t.Errorf("CumulativeWork: batched %v reference %v", got, want)
	}
	for _, v := range reference.VMs() {
		if got, want := batched.VMBusy(v.ID()), reference.VMBusy(v.ID()); got != want {
			t.Errorf("VMBusy(%s): batched %v reference %v", v.Name(), got, want)
		}
	}
	if got, want := batched.Energy().Total(), reference.Energy().Total(); got != want {
		t.Errorf("energy: batched %+v reference %+v", got, want)
	}
	if got, want := batched.GlobalLoad(), reference.GlobalLoad(); got != want {
		t.Errorf("GlobalLoad: batched %v reference %v", got, want)
	}
	if got, want := batched.CPU().Freq(), reference.CPU().Freq(); got != want {
		t.Errorf("frequency: batched %v reference %v", got, want)
	}

	refSeries := reference.Recorder().Names()
	gotSeries := batched.Recorder().Names()
	if len(refSeries) != len(gotSeries) {
		t.Fatalf("series sets differ: batched %v reference %v", gotSeries, refSeries)
	}
	for _, name := range refSeries {
		want := reference.Recorder().Series(name)
		got := batched.Recorder().Series(name)
		if want.Len() != got.Len() {
			t.Errorf("series %s: %d vs %d points", name, got.Len(), want.Len())
			continue
		}
		for i := range want.T {
			if got.T[i] != want.T[i] {
				t.Errorf("series %s[%d]: time %v vs %v", name, i, got.T[i], want.T[i])
				break
			}
			if got.V[i] != want.V[i] {
				t.Errorf("series %s[%d]@%v: batched %v reference %v",
					name, i, got.T[i], got.V[i], want.V[i])
				break
			}
		}
	}
}
