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

// propSlice is how far both sides of a case run between checks of the
// VMs' held facts: an odd number of milliseconds, so the slice ends
// fall at shifting phases of the refill, meter and sample periods.
const propSlice = 317 * sim.Millisecond

// buildPropHost deterministically derives one scenario from the seed: a
// scheduler (credit/credit2/sedf/pas, capped and uncapped mixes, priority
// tiers), 1-6 VMs with drawn credits, weights
// and workload shapes, and up to four mid-run lifecycle events (pause,
// resume, workload swap, VM add, VM remove). Both equivalence sides call
// it with the same seed, so the two hosts differ only in
// Config.Reference. The map holds the workload each VM is bound to,
// kept current through the swaps and additions.
func buildPropHost(t *testing.T, seed int64, reference bool) (*host.Host, map[vm.ID]workload.Workload) {
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
	bound := make(map[vm.ID]workload.Workload)
	addVM := func(id vm.ID, cfg vm.Config) *vm.VM {
		v, err := vm.New(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound[id] = drawWorkload()
		v.SetWorkload(bound[id])
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
					bound[target] = wl
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
				bound[id] = wl
				if err := h.AddVM(v); err != nil {
					t.Errorf("AddVM(%d): %v", id, err)
				}
			})
		}
	}
	return h, bound
}

// assertVMFacts checks the facts every VM of h holds (Pending,
// NextChange) against the answers of the workload bound to it. A fact
// left stale, say by a workload swap, would be equally wrong on both
// sides of an equivalence run, so batched==reference alone cannot catch
// it.
func assertVMFacts(t *testing.T, side string, h *host.Host, bound map[vm.ID]workload.Workload) {
	t.Helper()
	for _, v := range h.VMs() {
		wl := bound[v.ID()]
		if v.Pending() != wl.Pending() || v.NextChange() != wl.NextChange() {
			t.Fatalf("%s host at %v: %s holds pending %v, next %v; its workload says pending %v, next %v",
				side, h.Now(), v.Name(), v.Pending(), v.NextChange(), wl.Pending(), wl.NextChange())
		}
	}
}

// TestRandomizedBatchedEquivalence is the randomized property-based
// equivalence harness: a seeded generator draws scenario mixes across
// every scheduler, capped/uncapped credit vectors, 1-6 VMs, workload
// shapes and mid-run lifecycle events, and asserts batched==reference
// traces for each, and the VMs' held facts on both sides after every
// slice of the run. Cases are deterministic per seed (rerun a failure
// with -run 'TestRandomizedBatchedEquivalence/seed-N').
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
			batched, batchedWls := buildPropHost(t, seed, false)
			reference, referenceWls := buildPropHost(t, seed, true)
			for now := sim.Time(0); now < propHorizon; {
				now = min(now+propSlice, propHorizon)
				if err := batched.RunUntil(now); err != nil {
					t.Fatal(err)
				}
				if err := reference.RunUntil(now); err != nil {
					t.Fatal(err)
				}
				assertVMFacts(t, "batched", batched, batchedWls)
				assertVMFacts(t, "reference", reference, referenceWls)
			}
			if n := reference.Engine().BatchedQuanta(); n != 0 {
				t.Fatalf("reference host batched %d quanta", n)
			}
			totalBatched.Add(batched.Engine().BatchedQuanta())
			assertHostTraceEquivalence(t, batched, reference)
		})
	}
}
