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
// profile's transition outlasts SettleTime, so recomputations also run
// while a switch is pending; those that keep the running frequency must
// recompensate away from the pending target's pair, so that case calls
// SetCap rarely enough that a recomputation is not always preceded by
// one.
func TestPASCapsHoldChosenCompensation(t *testing.T) {
	slow := cpufreq.Elite8300()
	slow.TransitionLatency = core.SettleTime + 50*sim.Millisecond
	for _, tc := range []struct {
		name        string
		prof        *cpufreq.Profile
		seed        int64
		windowOdds  int  // one in windowOdds quanta inside a transition calls SetCap
		pendingRuns bool // some recomputations must keep the running frequency while a switch is pending
	}{
		{"elite8300", cpufreq.Elite8300(), 1, 4, false},
		{"optiplex755", cpufreq.Optiplex755(), 2, 4, false},
		{"slow-switch", slow, 3, 50, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, err := cpufreq.NewCPU(tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			cf := tc.prof.EfficiencyTable()
			pas, err := core.NewPAS(cpu, cf)
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

// scriptedLoad is a LoadSource whose Global load the test sets directly.
type scriptedLoad struct{ load float64 }

func (s *scriptedLoad) GlobalLoad() float64 { return s.load }

// loopScheduler is what the side-by-side test drives of either variant.
type loopScheduler interface {
	Tick(now sim.Time)
	BindLoadSource(core.LoadSource)
	Recomputes() int
}

// recomputation is one observed recomputation: its instant, the running
// frequency, and the frequency it chose (the requested switch target, or
// the running frequency when it requested none).
type recomputation struct {
	at       sim.Time
	running  cpufreq.Freq
	chosen   cpufreq.Freq
	switched bool
}

// TestPASVariantsShareControlLoop drives PAS and PAS-credit2 side by side
// on bare CPUs, with no host and no VMs, from one scripted Global load.
// Both embed the same control loop, so they must request the same
// frequency at the same recomputation instants; neither may recompute
// within SettleTime of a switch (and each resumes exactly SettleTime
// after it, on the DefaultPASInterval grid); neither recomputes before
// BindLoadSource, and a late bind resumes on the grid.
func TestPASVariantsShareControlLoop(t *testing.T) {
	const step = sim.Millisecond
	prof := cpufreq.Optiplex755()
	cf := prof.EfficiencyTable()
	load := &scriptedLoad{}
	build := func(name string) (loopScheduler, *cpufreq.CPU) {
		cpu, err := cpufreq.NewCPU(prof)
		if err != nil {
			t.Fatal(err)
		}
		var s loopScheduler
		if name == "pas" {
			s, err = core.NewPAS(cpu, cf)
		} else {
			s, err = core.NewPASCredit2(cpu, cf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s, cpu
	}
	names := []string{"pas", "pas-credit2"}

	// Unbound, either variant runs at a fixed frequency however long and
	// however loaded.
	load.load = 0.05
	for _, name := range names {
		s, cpu := build(name)
		for now := step; now <= sim.Second; now += step {
			cpu.Advance(now)
			s.Tick(now)
		}
		if _, _, pending := cpu.PendingSwitch(); s.Recomputes() != 0 || pending || cpu.Freq() != prof.Max() {
			t.Fatalf("%s before BindLoadSource: %d recomputations, frequency %v, switch pending %v",
				name, s.Recomputes(), cpu.Freq(), pending)
		}
	}

	// Bound late, after unbound ticks, either variant stays on its grid:
	// nothing replays the missed instants at the first bound tick, the
	// first recomputation is the next grid instant, and no switch is
	// stamped before the bind.
	const bound = 500 * sim.Millisecond
	for _, name := range names {
		s, cpu := build(name)
		for now := step; now <= bound; now += step {
			cpu.Advance(now)
			s.Tick(now)
		}
		s.BindLoadSource(load)
		first := sim.Time(-1)
		for now := bound + step; now <= bound+core.DefaultPASInterval; now += step {
			cpu.Advance(now)
			s.Tick(now)
			if _, at, pending := cpu.PendingSwitch(); pending && at-prof.TransitionLatency < bound {
				t.Fatalf("%s bound at %v: switch requested at %v, before the bind",
					name, bound, at-prof.TransitionLatency)
			}
			if first < 0 && s.Recomputes() > 0 {
				first = now
				if s.Recomputes() != 1 {
					t.Fatalf("%s bound at %v: %d recomputations at %v, want 1", name, bound, s.Recomputes(), now)
				}
			}
		}
		if want := bound + core.DefaultPASInterval; first != want {
			t.Fatalf("%s bound at %v: first recomputation at %v, want %v", name, bound, first, want)
		}
	}

	scheds := make([]loopScheduler, len(names))
	cpus := make([]*cpufreq.CPU, len(names))
	for i, name := range names {
		scheds[i], cpus[i] = build(name)
		scheds[i].BindLoadSource(load)
	}

	// The Global load script: low, saturated, middling, idle, saturated.
	script := func(now sim.Time) float64 {
		switch phase := now / sim.Second; {
		case phase < 2:
			return 0.2
		case phase < 4:
			return 0.99
		case phase < 6:
			return 0.5
		case phase < 8:
			return 0.05
		default:
			return 0.99
		}
	}
	records := make([][]recomputation, len(names))
	lastSwitch := make([]sim.Time, len(names))
	for i := range lastSwitch {
		lastSwitch[i] = -1
	}
	for now := step; now <= 10*sim.Second; now += step {
		load.load = script(now)
		for i, s := range scheds {
			cpu := cpus[i]
			cpu.Advance(now)
			before := s.Recomputes()
			s.Tick(now)
			if s.Recomputes() == before {
				continue
			}
			if s.Recomputes() != before+1 {
				t.Fatalf("%s: t=%v: %d recomputations in one tick", names[i], now, s.Recomputes()-before)
			}
			if now%core.DefaultPASInterval != 0 {
				t.Fatalf("%s: recomputation at t=%v, off the %v grid", names[i], now, core.DefaultPASInterval)
			}
			r := recomputation{at: now, running: cpu.Freq(), chosen: cpu.Freq()}
			if target, at, pending := cpu.PendingSwitch(); pending && at == now+prof.TransitionLatency {
				r.chosen, r.switched = target, true
			}
			if ls := lastSwitch[i]; ls >= 0 {
				if now < ls+core.SettleTime {
					t.Fatalf("%s: recomputation at t=%v, within SettleTime of the switch at %v", names[i], now, ls)
				}
				if prev := records[i][len(records[i])-1]; prev.switched && now != ls+core.SettleTime {
					t.Fatalf("%s: first recomputation after the switch at %v came at %v, want %v",
						names[i], ls, now, ls+core.SettleTime)
				}
			}
			if r.switched {
				lastSwitch[i] = now
			}
			records[i] = append(records[i], r)
		}
	}

	pas, c2 := records[0], records[1]
	if len(pas) != len(c2) {
		t.Fatalf("pas recomputed %d times, pas-credit2 %d times", len(pas), len(c2))
	}
	ups, downs := 0, 0
	freqs := map[cpufreq.Freq]bool{}
	for i := range pas {
		if pas[i] != c2[i] {
			t.Fatalf("recomputation %d: pas %+v, pas-credit2 %+v", i, pas[i], c2[i])
		}
		switch {
		case pas[i].chosen > pas[i].running:
			ups++
		case pas[i].chosen < pas[i].running:
			downs++
		}
		freqs[pas[i].chosen] = true
	}
	t.Logf("%d recomputations, %d switches up and %d down over %d distinct frequencies",
		len(pas), ups, downs, len(freqs))
	// The script must have exercised the hold in both directions.
	if ups < 2 || downs < 2 || len(freqs) < 3 {
		t.Errorf("script too tame: %d switches up and %d down over %d distinct frequencies in %d recomputations",
			ups, downs, len(freqs), len(pas))
	}
}
