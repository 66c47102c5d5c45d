package fleet

import (
	"fmt"
	"sort"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// linearPlace is the oracle every placement index must match bit for
// bit: each built-in policy as a plain scan over states in index order,
// first candidate winning ties. tabs holds each class's power table
// (dvfs-aware only). With powerOn false, off machines are no candidates;
// hidden machines never are.
func linearPlace(pol Policy, states []machineState, tabs []*powerTable, classOf []int32, r Request, powerOn bool) (int, bool) {
	switch pol.kind {
	case bestFit:
		best, bestLeft := -1, 0.0
		for i, m := range states {
			if !m.On || m.hidden || !m.Fits(r) {
				continue
			}
			left := m.FreeCreditPct - r.CreditPct
			if best < 0 || left < bestLeft {
				best, bestLeft = i, left
			}
		}
		if best >= 0 {
			return best, true
		}
	case dvfsAware:
		add := r.CreditPct * r.MeanActivity
		best, bestCost := -1, 0.0
		for i, m := range states {
			if m.hidden || (!m.On && !powerOn) || !m.Fits(r) {
				continue
			}
			tab := tabs[classOf[i]]
			var cost float64
			if m.On {
				cost = tab.watts(m.OfferedLoadPct+add, dvfsScale) - tab.watts(m.OfferedLoadPct, dvfsScale)
			} else {
				// Powering on pays the machine's whole draw, idle floor
				// included.
				cost = tab.watts(add, dvfsScale)
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	default:
		for i, m := range states {
			if m.On && !m.hidden && m.Fits(r) {
				return i, true
			}
		}
	}
	// First-fit and best-fit power on the lowest-index off machine that
	// fits only when no running one does.
	if powerOn {
		for i, m := range states {
			if !m.On && m.Fits(r) {
				return i, true
			}
		}
	}
	return 0, false
}

// idxHarness drives a placement index and the linear-scan oracle
// through the same mutation discipline the fleet uses: reserve/release
// in pairs, power-on on placement, the barrier power-off that snaps an
// emptied machine back to pristine capacity, and consolidation rounds
// that hide machines and book trial moves. Every query asserts the
// index and the oracle return the identical decision.
type idxHarness struct {
	pol      Policy
	states   []machineState
	classOf  []int32
	specMem  []int
	caps     []float64
	tabs     []*powerTable
	pidx     placeIndex
	resident [][]Request
	// consolidation rounds by outcome: all VMs moved, or abandoned.
	moved, abandoned int
}

// newIdxHarness builds counts[ci] machines of class ci. The classes
// carry DefaultEstate's three processor ladders; counts may name fewer.
func newIdxHarness(pol Policy, counts []int) *idxHarness {
	specMem := []int{8192, 16384, 16384}
	caps := []float64{95, 92.5, 90}
	profiles := []*cpufreq.Profile{cpufreq.Optiplex755(), cpufreq.XeonE5_2620(), cpufreq.Elite8300()}[:len(counts)]
	h := &idxHarness{pol: pol, specMem: specMem, caps: caps}
	for ci, c := range counts {
		for k := 0; k < c; k++ {
			h.states = append(h.states, machineState{
				FreeMemMB:     specMem[ci],
				FreeCreditPct: caps[ci],
			})
			h.classOf = append(h.classOf, int32(ci))
		}
		h.tabs = append(h.tabs, newPowerTable(profiles[ci]))
	}
	h.resident = make([][]Request, len(h.states))
	h.pidx = newPlaceIndex(pol, h.states, h.classOf, profiles)
	return h
}

// query runs one differential query and returns the agreed decision.
func (h *idxHarness) query(t *testing.T, r Request, powerOn bool) (int, bool) {
	t.Helper()
	wantIdx, wantOK := linearPlace(h.pol, h.states, h.tabs, h.classOf, r, powerOn)
	gotIdx, gotOK := h.pidx.place(r, powerOn)
	if gotIdx != wantIdx || gotOK != wantOK {
		t.Fatalf("%s: index decision (%d,%v) != linear scan (%d,%v) for %+v, powerOn=%v",
			h.pol.Name(), gotIdx, gotOK, wantIdx, wantOK, r, powerOn)
	}
	return wantIdx, wantOK
}

// book reserves a request on a machine like Fleet.reserve.
func (h *idxHarness) book(i int, r Request) {
	st := &h.states[i]
	st.FreeMemMB -= r.MemoryMB
	st.FreeCreditPct -= r.CreditPct
	st.OfferedLoadPct += r.CreditPct * r.MeanActivity
	h.pidx.update(i)
}

// place runs one differential arrival query, applying the decision like
// the fleet's arrive does.
func (h *idxHarness) place(t *testing.T, r Request) {
	t.Helper()
	i, ok := h.query(t, r, true)
	if !ok {
		return
	}
	if st := &h.states[i]; !st.On {
		st.On = true
		h.pidx.update(i)
	}
	h.book(i, r)
	h.resident[i] = append(h.resident[i], r)
}

// depart releases one resident request, leaving the machine on (the
// fleet's power-off grace until the next barrier).
func (h *idxHarness) depart(machine, slot int) {
	r := h.resident[machine][slot]
	rs := h.resident[machine]
	rs[slot] = rs[len(rs)-1]
	h.resident[machine] = rs[:len(rs)-1]
	st := &h.states[machine]
	st.FreeMemMB += r.MemoryMB
	st.FreeCreditPct += r.CreditPct
	st.OfferedLoadPct -= r.CreditPct * r.MeanActivity
	h.pidx.update(machine)
}

// barrier powers off empty machines, snapping them to pristine exactly
// like reportBarrier does.
func (h *idxHarness) barrier() {
	for i := range h.states {
		st := &h.states[i]
		if st.On && len(h.resident[i]) == 0 {
			ci := h.classOf[i]
			st.On = false
			st.FreeMemMB = h.specMem[ci]
			st.FreeCreditPct = h.caps[ci]
			st.OfferedLoadPct = 0
			h.pidx.update(i)
		}
	}
}

// consolidate runs one round the way Fleet.consolidate does: hide the
// least-loaded loaded machine and the empty powered-on ones, query a
// target for each of the victim's VMs (largest memory first) without
// powering anything on, booking each as it goes, then either put the
// saved states back newest first (some VM fits nowhere) or move the VMs
// and release them from the victim.
func (h *idxHarness) consolidate(t *testing.T) {
	t.Helper()
	victim, loaded := -1, 0
	var hidden []int
	for i, st := range h.states {
		switch {
		case !st.On:
		case len(h.resident[i]) == 0:
			hidden = append(hidden, i)
		default:
			loaded++
			if victim < 0 || st.OfferedLoadPct < h.states[victim].OfferedLoadPct {
				victim = i
			}
		}
	}
	if loaded < 2 {
		return
	}
	hidden = append(hidden, victim)
	for _, i := range hidden {
		h.states[i].hidden = true
		h.pidx.update(i)
	}
	moving := append([]Request(nil), h.resident[victim]...)
	sort.SliceStable(moving, func(a, b int) bool { return moving[a].MemoryMB > moving[b].MemoryMB })
	type booked struct {
		to   int
		prev machineState
	}
	var plan []booked
	for _, r := range moving {
		to, ok := h.query(t, r, false)
		if !ok {
			for k := len(plan) - 1; k >= 0; k-- {
				h.states[plan[k].to] = plan[k].prev
				h.pidx.update(plan[k].to)
			}
			plan = nil
			break
		}
		plan = append(plan, booked{to, h.states[to]})
		h.book(to, r)
	}
	for _, i := range hidden {
		h.states[i].hidden = false
		h.pidx.update(i)
	}
	if len(plan) == 0 {
		h.abandoned++
		return
	}
	h.moved++
	for k, r := range moving {
		h.resident[plan[k].to] = append(h.resident[plan[k].to], r)
	}
	for len(h.resident[victim]) > 0 {
		h.depart(victim, len(h.resident[victim])-1)
	}
}

// churn runs a random mutate/query schedule against one policy.
func (h *idxHarness) churn(t *testing.T, rng *sim.RNG, ops int) {
	t.Helper()
	credits := []float64{5, 10, 12.5, 20, 33.4, 40}
	mems := []int{512, 1024, 2048, 4096}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(11); {
		case k < 6: // place
			r := Request{
				Name:         fmt.Sprintf("r%d", op),
				CreditPct:    credits[rng.Intn(len(credits))],
				MemoryMB:     mems[rng.Intn(len(mems))],
				MeanActivity: float64(rng.Intn(100)) / 100,
			}
			if rng.Intn(4) == 0 {
				// Fractional credits stress the best-fit headroom
				// rounding and its tie-walk.
				r.CreditPct = 1 + rng.Float64()*40
			}
			h.place(t, r)
		case k < 9: // depart a random resident VM
			m := rng.Intn(len(h.states))
			for probe := 0; probe < len(h.states); probe++ {
				if len(h.resident[m]) > 0 {
					h.depart(m, rng.Intn(len(h.resident[m])))
					break
				}
				m = (m + 1) % len(h.states)
			}
		case k == 9:
			h.consolidate(t)
		default:
			h.barrier()
		}
	}
	h.barrier()
	// One final differential query per shape after the dust settles.
	for _, c := range credits {
		h.place(t, Request{Name: "fin", CreditPct: c, MemoryMB: 1024, MeanActivity: 0.5})
	}
}

func allPolicies() []Policy {
	return []Policy{NewFirstFit(), NewBestFit(), NewDVFSAware()}
}

// FuzzIndexedPlacement is the index's differential fuzz: random machine
// estates under random arrival/departure/power/consolidation churn,
// with every placement decision of every built-in policy checked
// against the linear-scan oracle.
func FuzzIndexedPlacement(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(4), uint8(80))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(40))
	f.Add(uint64(42), uint8(30), uint8(0), uint8(200))
	f.Add(uint64(99), uint8(0), uint8(17), uint8(120))
	f.Add(uint64(5), uint8(0x4a), uint8(0x23), uint8(160))
	f.Add(uint64(11), uint8(0xe0), uint8(0xe8), uint8(255))

	f.Fuzz(func(t *testing.T, seed uint64, nA, nB, ops uint8) {
		// The third class takes its count from the high bits of nA and
		// nB, so the first four seeds keep their two-class estates.
		counts := []int{1 + int(nA)%32, int(nB) % 32, int(nA>>5)<<3 | int(nB>>5)}
		for _, pol := range allPolicies() {
			h := newIdxHarness(pol, counts)
			h.churn(t, sim.NewRNG(seed), 3+int(ops))
		}
	})
}

// TestPlacementIndexEquivalence is the randomized (non-fuzz) version at
// a scale the fuzz engine would not reach per input: hundreds of
// machines, thousands of operations, every policy.
func TestPlacementIndexEquivalence(t *testing.T) {
	moved, abandoned := 0, 0
	for _, seed := range []uint64{3, 17, 1002} {
		for _, pol := range allPolicies() {
			h := newIdxHarness(pol, []int{160, 140, 100})
			h.churn(t, sim.NewRNG(seed), 4000)
			moved += h.moved
			abandoned += h.abandoned
		}
	}
	t.Logf("consolidation rounds: %d moved, %d abandoned", moved, abandoned)
	if moved == 0 || abandoned == 0 {
		t.Errorf("consolidation rounds %d moved / %d abandoned: both outcomes must occur", moved, abandoned)
	}
}

// benchEstate builds an n-machine estate with a consolidation-shaped
// power profile: a small on fraction carrying randomized partial loads,
// the rest off and pristine — the regime the placement indexes target.
func benchEstate(pol Policy, n int) (*idxHarness, []Request) {
	h := newIdxHarness(pol, []int{(n + 1) / 2, n / 2})
	rng := sim.NewRNG(12345)
	on := n / 64
	if on < 8 {
		on = 8
	}
	credits := []float64{5, 10, 12.5, 20, 40}
	mems := []int{512, 1024, 2048, 4096}
	for k := 0; k < on; k++ {
		i := k * (n / on)
		st := &h.states[i]
		st.On = true
		h.pidx.update(i)
		for v := rng.Intn(4); v >= 0; v-- {
			r := Request{CreditPct: credits[rng.Intn(len(credits))],
				MemoryMB: mems[rng.Intn(len(mems))], MeanActivity: rng.Float64()}
			if st.Fits(r) {
				h.book(i, r)
			}
		}
	}
	queries := make([]Request, 64)
	for qi := range queries {
		queries[qi] = Request{CreditPct: credits[rng.Intn(len(credits))],
			MemoryMB: mems[rng.Intn(len(mems))], MeanActivity: rng.Float64()}
	}
	return h, queries
}

// BenchmarkPlacement measures the production (indexed) placement path
// per query on a mostly-off estate; BenchmarkPlacementLinear is the
// same query load through the linear-scan oracle, so the two report the
// indexed speedup directly.
func BenchmarkPlacement(b *testing.B) {
	benchPlacement(b, func(h *idxHarness, r Request) (int, bool) { return h.pidx.place(r, true) })
}

func BenchmarkPlacementLinear(b *testing.B) {
	benchPlacement(b, func(h *idxHarness, r Request) (int, bool) {
		return linearPlace(h.pol, h.states, h.tabs, h.classOf, r, true)
	})
}

func benchPlacement(b *testing.B, place func(*idxHarness, Request) (int, bool)) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"100k", 100000}} {
		for _, pol := range allPolicies() {
			b.Run(pol.Name()+"/"+size.name, func(b *testing.B) {
				h, queries := benchEstate(pol, size.n)
				placedOK := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := place(h, queries[i%len(queries)]); ok {
						placedOK++
					}
				}
				b.StopTimer()
				if placedOK == 0 {
					b.Fatal("no query placed anywhere: benchmark is vacuous")
				}
			})
		}
	}
}
