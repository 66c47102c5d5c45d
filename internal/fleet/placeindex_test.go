package fleet

import (
	"fmt"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// idxHarness drives a placement index and the linear-scan oracle
// through the same mutation discipline the fleet uses: reserve/release
// in pairs, power-on on placement, and the barrier power-off that snaps
// an emptied machine back to pristine capacity. Every query asserts the
// index and the oracle return the identical decision.
type idxHarness struct {
	pol      Policy
	states   []MachineState
	classOf  []int32
	specMem  []int
	caps     []float64
	pidx     placeIndex
	resident [][]Request
}

// newIdxHarness builds counts[ci] machines of class ci. The classes
// carry DefaultEstate's three processor ladders; counts may name fewer.
func newIdxHarness(pol Policy, counts []int) *idxHarness {
	specMem := []int{8192, 16384, 16384}
	caps := []float64{95, 92.5, 90}
	profiles := []*cpufreq.Profile{cpufreq.Optiplex755(), cpufreq.XeonE5_2620(), cpufreq.Elite8300()}
	names := []string{"optiplex", "xeon-e5", "elite-8300"}
	h := &idxHarness{pol: pol, specMem: specMem, caps: caps}
	for ci, c := range counts {
		for k := 0; k < c; k++ {
			i := len(h.states)
			h.states = append(h.states, MachineState{
				Index:         i,
				Class:         names[ci],
				FreeMemMB:     specMem[ci],
				FreeCreditPct: caps[ci],
				Profile:       profiles[ci],
			})
			h.classOf = append(h.classOf, int32(ci))
		}
	}
	h.resident = make([][]Request, len(h.states))
	h.pidx = newPlaceIndex(pol, h.states, h.classOf, len(counts))
	return h
}

// place runs one differential query, applying the decision like the
// fleet's arrive does.
func (h *idxHarness) place(t *testing.T, r Request) {
	t.Helper()
	wantIdx, wantOK := h.pol.Place(h.states, r)
	gotIdx, gotOK := h.pidx.place(r)
	if gotIdx != wantIdx || gotOK != wantOK {
		t.Fatalf("%s: index decision (%d,%v) != linear scan (%d,%v) for %+v",
			h.pol.Name(), gotIdx, gotOK, wantIdx, wantOK, r)
	}
	if !wantOK {
		return
	}
	st := &h.states[wantIdx]
	if !st.On {
		st.On = true
		h.pidx.update(wantIdx)
	}
	st.FreeMemMB -= r.MemoryMB
	st.FreeCreditPct -= r.CreditPct
	st.OfferedLoadPct += r.CreditPct * r.MeanActivity
	h.pidx.update(wantIdx)
	h.resident[wantIdx] = append(h.resident[wantIdx], r)
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

// churn runs a random mutate/query schedule against one policy.
func (h *idxHarness) churn(t *testing.T, rng *sim.RNG, ops int) {
	t.Helper()
	credits := []float64{5, 10, 12.5, 20, 33.4, 40}
	mems := []int{512, 1024, 2048, 4096}
	n := 0
	for _, rs := range h.resident {
		n += len(rs)
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
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

// diffPolicies adds the other dvfs-aware margins to allPolicies: the
// zero-value policy (no margin, no table memo) and a wide margin whose
// thresholds sit elsewhere on every ladder.
func diffPolicies() []Policy {
	wide := NewDVFSAware()
	wide.Margin = 0.2
	return append(allPolicies(), DVFSAware{}, wide)
}

// FuzzIndexedPlacement is the tentpole differential fuzz: random
// machine estates under random arrival/departure/power churn, with
// every placement decision of every built-in policy checked against the
// linear-scan oracle.
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
		for _, pol := range diffPolicies() {
			h := newIdxHarness(pol, counts)
			h.churn(t, sim.NewRNG(seed), 3+int(ops))
		}
	})
}

// TestPlacementIndexEquivalence is the randomized (non-fuzz) version at
// a scale the fuzz engine would not reach per input: hundreds of
// machines, thousands of operations, every policy.
func TestPlacementIndexEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 17, 1002} {
		for _, pol := range diffPolicies() {
			h := newIdxHarness(pol, []int{160, 140, 100})
			h.churn(t, sim.NewRNG(seed), 4000)
		}
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
				st.FreeMemMB -= r.MemoryMB
				st.FreeCreditPct -= r.CreditPct
				st.OfferedLoadPct += r.CreditPct * r.MeanActivity
				h.pidx.update(i)
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
	benchPlacement(b, func(h *idxHarness, r Request) (int, bool) { return h.pidx.place(r) })
}

func BenchmarkPlacementLinear(b *testing.B) {
	benchPlacement(b, func(h *idxHarness, r Request) (int, bool) { return h.pol.Place(h.states, r) })
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
