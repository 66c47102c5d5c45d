package fleet

import (
	"math"
	"sort"
	"testing"

	"pasched/internal/sim"
)

// linearMove is one move of the oracle's consolidation plan.
type linearMove struct {
	name string
	to   int
}

// planLinear is the consolidation planner as it ran before planning went
// through the placement index, kept as the oracle: a scratch copy of the
// loaded machines, planned with the linear scan standing in for the
// policy. It returns the victim, the moves, and the machine states the
// round must leave behind — the scratch bookings on the targets when
// every VM found one, the states as they are otherwise.
func planLinear(f *Fleet) (victim int, plan []linearMove, after []machineState) {
	after = append([]machineState(nil), f.states...)
	if len(f.migs) > 0 {
		return -1, nil, after
	}
	victim, loaded := -1, 0
	for i := 0; i < f.nmach; i++ {
		if !f.states[i].On || f.vmCount[i] == 0 || f.inbound[i] > 0 {
			continue
		}
		loaded++
		if victim < 0 || f.states[i].OfferedLoadPct < f.states[victim].OfferedLoadPct {
			victim = i
		}
	}
	if victim < 0 || loaded < 2 {
		return -1, nil, after
	}
	var moving []*ctlVM
	for _, p := range f.order {
		if !p.gone && p.machine == victim && p.mig == nil {
			moving = append(moving, p)
		}
	}
	if len(moving) == 0 {
		return -1, nil, after
	}
	// Tentative placement against a scratch copy of the state, restricted
	// to loaded machines, largest memory first (the classic FFD order).
	var states []machineState
	var index []int
	var classOf []int32
	for i := 0; i < f.nmach; i++ {
		if i == victim || !f.states[i].On {
			continue
		}
		if f.vmCount[i] > 0 || f.inbound[i] > 0 {
			states = append(states, f.states[i])
			index = append(index, i)
			classOf = append(classOf, f.classOf[i])
		}
	}
	sort.Slice(moving, func(i, j int) bool {
		if moving[i].req.MemoryMB != moving[j].req.MemoryMB {
			return moving[i].req.MemoryMB > moving[j].req.MemoryMB
		}
		return moving[i].req.Name < moving[j].req.Name
	})
	tabs := classTables(f)
	for _, p := range moving {
		si, ok := linearPlace(f.cfg.Policy, states, tabs, classOf, p.req, true)
		if !ok {
			return victim, nil, after // victim cannot be emptied this round
		}
		states[si].FreeMemMB -= p.req.MemoryMB
		states[si].FreeCreditPct -= p.req.CreditPct
		states[si].OfferedLoadPct += p.req.CreditPct * p.req.MeanActivity
		plan = append(plan, linearMove{name: p.req.Name, to: index[si]})
	}
	for si, i := range index {
		after[i] = states[si]
	}
	return victim, plan, after
}

// classTables returns each machine class's power table, as linearPlace
// takes them.
func classTables(f *Fleet) []*powerTable {
	tabs := make([]*powerTable, len(f.specs))
	for ci, spec := range f.specs {
		tabs[ci] = newPowerTable(spec.Profile)
	}
	return tabs
}

// sameState compares two machine states bit for bit.
func sameState(a, b machineState) bool {
	return a.On == b.On && a.hidden == b.hidden && a.FreeMemMB == b.FreeMemMB &&
		math.Float64bits(a.FreeCreditPct) == math.Float64bits(b.FreeCreditPct) &&
		math.Float64bits(a.OfferedLoadPct) == math.Float64bits(b.OfferedLoadPct)
}

// consolidationRound runs f.consolidate against planLinear: the fleet
// must start exactly the oracle's migrations, leave exactly the
// oracle's bookkeeping (bit for bit, so an abandoned round leaves no
// trace), unhide every machine, and keep its index in step with the
// linear scan. It returns the round's outcome: moved, abandoned, or
// neither when no round ran.
func consolidationRound(t *testing.T, f *Fleet) (moved, abandoned bool) {
	t.Helper()
	inFlight := len(f.migs)
	victim, plan, after := planLinear(f)
	if err := f.consolidate(); err != nil {
		t.Fatal(err)
	}
	if started := len(f.migs) - inFlight; started != len(plan) {
		t.Fatalf("%s: consolidation started %d migrations, the linear plan has %d",
			f.cfg.Policy.Name(), started, len(plan))
	}
	for _, mv := range plan {
		mg := f.migs[mv.name]
		if mg == nil || mg.from != victim || mg.to != mv.to {
			t.Fatalf("%s: %s planned %d -> %d, fleet migration %+v",
				f.cfg.Policy.Name(), mv.name, victim, mv.to, mg)
		}
	}
	for i := range after {
		if !sameState(f.states[i], after[i]) {
			what := "committed round booked"
			if len(plan) == 0 {
				what = "abandoned round changed the bookkeeping of"
			}
			t.Fatalf("%s: %s machine %d: %+v, want %+v", f.cfg.Policy.Name(), what, i, f.states[i], after[i])
		}
	}
	tabs := classTables(f)
	for _, r := range []Request{
		{Name: "probe-s", CreditPct: 10, MemoryMB: 1024, MeanActivity: 0.3},
		{Name: "probe-l", CreditPct: 40, MemoryMB: 4096, MeanActivity: 0.9},
	} {
		for _, powerOn := range []bool{true, false} {
			wantIdx, wantOK := linearPlace(f.cfg.Policy, f.states, tabs, f.classOf, r, powerOn)
			if gotIdx, gotOK := f.pidx.place(r, powerOn); gotIdx != wantIdx || gotOK != wantOK {
				t.Fatalf("%s: after the round the index places %s at (%d,%v), the linear scan at (%d,%v)",
					f.cfg.Policy.Name(), r.Name, gotIdx, gotOK, wantIdx, wantOK)
			}
		}
	}
	return len(plan) > 0, victim >= 0 && len(plan) == 0
}

// completeMigrations lands every in-flight migration, in name order.
func completeMigrations(t *testing.T, f *Fleet) {
	t.Helper()
	names := make([]string, 0, len(f.migs))
	for name := range f.migs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := f.completeMigration(timedName{at: f.migs[name].done, name: name}); err != nil {
			t.Fatal(err)
		}
	}
}

// driveConsolidation feeds a generated trace into a fleet by hand at
// time zero, as arriveAll does — every arrival, random departures (some
// of migrating VMs, which aborts their migration), migration
// completions and a consolidation round after each arrival — checking
// every round against the linear planner.
func driveConsolidation(t *testing.T, seed uint64, pol Policy, arrivals, opti, xeon int) (moved, abandoned int) {
	t.Helper()
	horizon := 600 * sim.Second
	tr := genTrace(t, GenConfig{Seed: seed, Arrivals: arrivals, Horizon: horizon})
	f, err := NewStream(Config{
		Machines: testMachines(opti, xeon),
		Policy:   pol,
		Shards:   1,
		Workers:  1,
		Seed:     seed,
	}, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	f.ran = true
	f.horizon = horizon
	rng := sim.NewRNG(seed ^ 0xc0ffee)
	for k := range tr.Events {
		if err := f.arrive(&tr.Events[k]); err != nil {
			t.Fatal(err)
		}
		for rng.Intn(2) == 0 && len(f.vms) > 0 {
			p := f.order[rng.Intn(len(f.order))]
			if p.gone {
				continue
			}
			if err := f.depart(p.req.Name); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			completeMigrations(t, f)
		}
		m, a := consolidationRound(t, f)
		if m {
			moved++
		}
		if a {
			abandoned++
		}
	}
	return moved, abandoned
}

// FuzzConsolidationPlan is the consolidation planner's differential
// fuzz: random traces on random two-class estates under each policy,
// with every round planned through the live placement index checked
// move for move — and, when abandoned, bit for bit — against the linear
// planner over a scratch copy.
func FuzzConsolidationPlan(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(90), uint8(0x24))
	f.Add(uint64(2), uint8(1), uint8(60), uint8(0x13))
	f.Add(uint64(1), uint8(2), uint8(90), uint8(0x35))

	f.Fuzz(func(t *testing.T, seed uint64, pol, arrivals, machines uint8) {
		policy := allPolicies()[int(pol)%3]
		driveConsolidation(t, seed, policy, 5+int(arrivals)%120,
			1+int(machines&7), int(machines>>3)&7)
	})
}

// TestConsolidationPlanRounds runs the consolidation oracle at a scale
// the fuzz seeds do not reach and checks it is not vacuous: rounds both
// move VMs and get abandoned, under every policy.
func TestConsolidationPlanRounds(t *testing.T) {
	for _, pol := range allPolicies() {
		moved, abandoned := 0, 0
		for _, seed := range []uint64{3, 17} {
			m, a := driveConsolidation(t, seed, pol, 300, 10, 6)
			moved += m
			abandoned += a
		}
		t.Logf("%s: %d rounds moved, %d abandoned", pol.Name(), moved, abandoned)
		if moved == 0 || abandoned == 0 {
			t.Errorf("%s: %d rounds moved, %d abandoned: both outcomes must occur", pol.Name(), moved, abandoned)
		}
	}
}
