package host_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
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

// propCases is the number of randomized scenarios the property harness
// draws. Each case builds the same seeded scenario twice (batched and
// reference) and requires identical traces, so the suite is a
// scenario-diverse extension of the hand-written equivalence table.
const propCases = 100

// propHorizon keeps each randomized case inside the tier-1 time budget
// while still crossing many refill, meter, sample and event boundaries.
const propHorizon = 8 * sim.Second

// buildPropHost deterministically derives one scenario from the seed: a
// scheduler (credit/credit2/sedf/pas, capped and uncapped mixes, priority
// tiers), 1-6 VMs with drawn credits, weights
// and workload shapes, and up to four mid-run lifecycle events (pause,
// resume, workload swap, VM add, VM remove). Both equivalence sides call
// it with the same seed, so the two hosts differ only in
// Config.Reference.
func buildPropHost(t *testing.T, seed int64, reference bool) *host.Host {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	prof := cpufreq.Optiplex755()
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		t.Fatal(err)
	}

	cpu, err := cpufreq.NewCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	var s sched.Scheduler
	var pas *core.PAS
	var gov governor.Governor
	switch r.Intn(4) {
	case 0:
		s = sched.NewCredit()
	case 1:
		s = sched.NewCredit2()
	case 2:
		s = sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: r.Intn(2) == 0})
	case 3:
		pas, err = core.NewPAS(cpu, nil)
		if err != nil {
			t.Fatal(err)
		}
		s = pas
	}
	// A governor only composes with non-PAS schedulers (PAS drives DVFS
	// itself); draw one for a third of those scenarios.
	if pas == nil && r.Intn(3) == 0 {
		gov = governor.NewPaperOndemand(nil)
	}
	h, err := host.New(host.Config{CPU: cpu, Scheduler: s, Governor: gov, Reference: reference})
	if err != nil {
		t.Fatal(err)
	}
	if pas != nil {
		pas.BindLoadSource(h)
	}

	drawWorkload := func() workload.Workload {
		switch r.Intn(4) {
		case 0:
			return &workload.Hog{}
		case 1:
			pi, err := workload.NewPiApp(1e8 + float64(r.Intn(40))*1e8)
			if err != nil {
				t.Fatal(err)
			}
			return pi
		case 2:
			start := sim.Time(r.Intn(4)) * sim.Second
			end := start + sim.Time(1+r.Intn(6))*sim.Second
			w, err := workload.NewWebApp(workload.WebAppConfig{
				Phases: workload.ThreePhase(start, end,
					workload.ExactRate(maxTp, 3+float64(r.Intn(25)), workload.DefaultRequestCost)),
				Seed: r.Uint64(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		default:
			return workload.Idle{}
		}
	}
	addVM := func(id vm.ID, cfg vm.Config) *vm.VM {
		v, err := vm.New(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.SetWorkload(drawWorkload())
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		cfg := vm.Config{Name: fmt.Sprintf("V%d", i+1)}
		if r.Intn(5) > 0 {
			cfg.Credit = 5 + float64(r.Intn(90))/float64(n)
		} // else uncapped/null-credit
		if r.Intn(4) == 0 {
			cfg.Weight = 1 + r.Intn(64)
		}
		if i == 0 && r.Intn(3) == 0 {
			cfg.Priority = 1
		}
		addVM(vm.ID(i+1), cfg)
	}

	// Mid-run lifecycle events. Targets are drawn by id up front; the
	// handlers re-resolve through the host at fire time so both sides see
	// the same (possibly already-removed) state.
	events := r.Intn(5)
	nextID := vm.ID(n + 1)
	for e := 0; e < events; e++ {
		at := sim.Time(1+r.Intn(int(propHorizon/sim.Millisecond)-2000)) * sim.Millisecond
		target := vm.ID(1 + r.Intn(n))
		switch r.Intn(4) {
		case 0: // pause, with a resume one drawn interval later
			resumeAt := at + sim.Time(100+r.Intn(3000))*sim.Millisecond
			h.Schedule(at, func(sim.Time) {
				if v := h.VM(target); v != nil {
					v.Pause()
				}
			})
			h.Schedule(resumeAt, func(sim.Time) {
				if v := h.VM(target); v != nil {
					v.Resume()
				}
			})
		case 1: // workload swap (wake-up or drain)
			wl := drawWorkload()
			h.Schedule(at, func(sim.Time) {
				if v := h.VM(target); v != nil {
					v.SetWorkload(wl)
				}
			})
		case 2: // remove a VM mid-run
			h.Schedule(at, func(sim.Time) {
				if h.VM(target) != nil {
					if err := h.RemoveVM(target); err != nil {
						t.Errorf("RemoveVM(%d): %v", target, err)
					}
				}
			})
		case 3: // add a fresh VM mid-run
			id := nextID
			nextID++
			cfg := vm.Config{Name: fmt.Sprintf("V%d", id), Credit: 5 + float64(r.Intn(30))}
			wl := drawWorkload()
			h.Schedule(at, func(sim.Time) {
				v, err := vm.New(id, cfg)
				if err != nil {
					t.Errorf("vm.New(%d): %v", id, err)
					return
				}
				v.SetWorkload(wl)
				if err := h.AddVM(v); err != nil {
					t.Errorf("AddVM(%d): %v", id, err)
				}
			})
		}
	}
	return h
}

// TestRandomizedBatchedEquivalence is the randomized property-based
// equivalence harness: a seeded generator draws scenario mixes across
// every scheduler, capped/uncapped credit vectors, 1-6 VMs, workload
// shapes and mid-run lifecycle events, and asserts batched==reference
// traces for each. Cases are deterministic per seed (rerun a failure with
// -run 'TestRandomizedBatchedEquivalence/seed-N').
func TestRandomizedBatchedEquivalence(t *testing.T) {
	var totalBatched atomic.Int64
	t.Cleanup(func() {
		// Individual draws may legitimately never batch (e.g. an all-idle
		// host under a non-forecasting mix), but across 100 scenarios
		// batching must have engaged or the whole suite is vacuous.
		if !t.Failed() && totalBatched.Load() == 0 {
			t.Error("batching never engaged in any randomized scenario")
		}
	})
	for i := 0; i < propCases; i++ {
		seed := int64(0xDA7A + i)
		t.Run(fmt.Sprintf("seed-%d", i), func(t *testing.T) {
			t.Parallel()
			batched := buildPropHost(t, seed, false)
			reference := buildPropHost(t, seed, true)
			if err := batched.RunUntil(propHorizon); err != nil {
				t.Fatal(err)
			}
			if err := reference.RunUntil(propHorizon); err != nil {
				t.Fatal(err)
			}
			if n := reference.Engine().BatchedQuanta(); n != 0 {
				t.Fatalf("reference host batched %d quanta", n)
			}
			totalBatched.Add(batched.Engine().BatchedQuanta())
			assertHostTraceEquivalence(t, batched, reference)
		})
	}
}
