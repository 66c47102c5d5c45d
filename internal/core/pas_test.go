package core_test

import (
	"math/rand"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// freqChanges records the frequency a PAS recomputation switched to.
type freqChanges struct {
	seen bool
	mhz  cpufreq.Freq
}

func (*freqChanges) TraceRefill(sim.Time)            {}
func (*freqChanges) TraceExhausted(sim.Time, *vm.VM) {}
func (c *freqChanges) TraceRecompensate(_ sim.Time, mhz, _ int64) {
	c.seen, c.mhz = true, cpufreq.Freq(mhz)
}

// TestPASCapsHoldChosenCompensation is the oracle for PAS leaving caps
// alone when a recomputation keeps the compensated (ratio, cf) pair:
// after every recomputation, every VM with a positive contract must be
// capped at exactly CompensatedCredit(contract, ratio, cf) for the
// frequency that recomputation chose — its switch target when it
// changed the frequency, the running frequency otherwise — however the
// VM set, the contracts and the load moved since. The host runs one
// quantum at a time through a seeded schedule of arrivals, departures,
// contract changes (some inside a frequency transition, where SetCap
// compensates for the old frequency) and pause/resume. The slow-switch
// profile's transition outlasts the PAS interval and its settle time is
// tiny, so recomputations also run while a switch is pending; those that
// keep the running frequency must recompensate away from the pending
// target's pair, so that case calls SetCap rarely enough that a
// recomputation is not always preceded by one.
func TestPASCapsHoldChosenCompensation(t *testing.T) {
	slow := cpufreq.Elite8300()
	slow.TransitionLatency = 35 * sim.Millisecond
	for _, tc := range []struct {
		name        string
		prof        *cpufreq.Profile
		settle      sim.Time
		seed        int64
		windowOdds  int  // one in windowOdds quanta inside a transition calls SetCap
		pendingRuns bool // some recomputations must keep the running frequency while a switch is pending
	}{
		{"elite8300", cpufreq.Elite8300(), 0, 1, 4, false},
		{"optiplex755", cpufreq.Optiplex755(), 0, 2, 4, false},
		{"slow-switch", slow, sim.Microsecond, 3, 50, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, err := cpufreq.NewCPU(tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			cf := tc.prof.EfficiencyTable()
			pas, err := core.NewPAS(core.PASConfig{CPU: cpu, CF: cf, SettleTime: tc.settle})
			if err != nil {
				t.Fatal(err)
			}
			h, err := host.New(host.Config{CPU: cpu, Scheduler: pas})
			if err != nil {
				t.Fatal(err)
			}
			pas.BindLoadSource(h)
			changes := &freqChanges{}
			pas.SetTracer(changes)

			rng := rand.New(rand.NewSource(tc.seed))
			var live []*vm.VM
			nextID := vm.ID(1)
			add := func() {
				credit := float64(5 + rng.Intn(25))
				if rng.Intn(8) == 0 {
					credit = 0 // null credit: no contract to compensate
				}
				v, err := vm.New(nextID, vm.Config{Credit: credit})
				if err != nil {
					t.Fatal(err)
				}
				nextID++
				v.SetWorkload(&workload.Hog{})
				if err := h.AddVM(v); err != nil {
					t.Fatal(err)
				}
				live = append(live, v)
			}
			setCap := func() {
				v := live[rng.Intn(len(live))]
				if err := pas.SetCap(v.ID(), float64(5+rng.Intn(25))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				add()
			}

			top := tc.prof.Max()
			var checks, belowMax, windowSetCaps, keptRunning int
			for q := 0; q < 30000; q++ {
				_, _, pending := cpu.PendingSwitch()
				if pending && len(live) > 0 && rng.Intn(tc.windowOdds) == 0 {
					setCap()
					windowSetCaps++
				}
				if rng.Intn(150) == 0 {
					switch op := rng.Intn(4); {
					case op == 0 && len(live) < 6, len(live) == 0:
						add()
					case op == 1 && len(live) > 1:
						i := rng.Intn(len(live))
						if err := h.RemoveVM(live[i].ID()); err != nil {
							t.Fatal(err)
						}
						live = append(live[:i], live[i+1:]...)
					case op == 2:
						setCap()
					default:
						v := live[rng.Intn(len(live))]
						if v.Paused() {
							v.Resume()
						} else {
							v.Pause()
						}
					}
				}

				changes.seen = false
				before := pas.Recomputes()
				if err := h.Run(h.Engine().Quantum()); err != nil {
					t.Fatal(err)
				}
				if pas.Recomputes() == before {
					continue
				}
				// A recomputation that changed the frequency reported its
				// target; one that did not chose the running frequency, even
				// with a switch to another still in flight.
				chosen := cpu.Freq()
				if changes.seen {
					chosen = changes.mhz
				} else if target, _, ok := cpu.PendingSwitch(); ok && target != chosen {
					keptRunning++
				}
				idx, err := tc.prof.Index(chosen)
				if err != nil {
					t.Fatal(err)
				}
				ratio := tc.prof.Ratio(chosen)
				checks++
				if chosen < top {
					belowMax++
				}
				for _, v := range live {
					contract, err := pas.Cap(v.ID())
					if err != nil {
						t.Fatal(err)
					}
					if contract <= 0 {
						continue
					}
					want, err := core.CompensatedCredit(contract, ratio, cf[idx])
					if err != nil {
						t.Fatal(err)
					}
					got, err := pas.EffectiveCap(v.ID())
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("t=%v: VM %d (contract %v) capped at %v after the recomputation chose %v, want %v",
							h.Now(), v.ID(), contract, got, chosen, want)
					}
				}
			}
			// The schedule must have reached the cases the skip depends on.
			if checks < 100 || belowMax < checks/4 || windowSetCaps < 5 {
				t.Errorf("schedule too tame: %d recomputations checked, %d below %v, %d SetCaps inside a transition",
					checks, belowMax, top, windowSetCaps)
			}
			if tc.pendingRuns && keptRunning < 10 {
				t.Errorf("only %d recomputations kept the running frequency with a switch pending", keptRunning)
			}
		})
	}
}
