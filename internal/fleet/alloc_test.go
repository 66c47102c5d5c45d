package fleet

import (
	"fmt"
	"testing"

	"pasched/internal/sim"
)

// TestFleetBarrierNoAllocsWithoutObs proves the recorder's fleet-side
// hooks are free when Obs is disabled: with live VMs on several
// machines, repeatedly advancing the fleet across barrier boundaries —
// the hot path of a run, covering the host batched stepping, the shard
// fold, the flush and the coordinator reduction — performs zero
// allocations once steady state is reached. It runs on one shard and on
// four, so a flush that builds closures or slices per call fails too.
// Fleet hosts run with their sampler off (SampleEvery -1), so no host
// series grows; report emission itself is not driven here since
// buffering intervals allocates by design, independent of the recorder.
func TestFleetBarrierNoAllocsWithoutObs(t *testing.T) {
	horizon := 3600 * sim.Second
	tr := genTrace(t, GenConfig{
		Seed:         9,
		Arrivals:     6,
		Horizon:      horizon,
		MeanLifetime: horizon,
		BaseActivity: 0.6,
		SegmentLen:   600 * sim.Second,
	})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, err := NewStream(Config{
				Machines:    testMachines(3, 2),
				Scheduler:   "pas",
				Policy:      NewBestFit(),
				ReportEvery: horizon,
				Shards:      shards,
				Workers:     1,
				Seed:        9,
			}, tr.source())
			if err != nil {
				t.Fatal(err)
			}
			if f.rec != nil || f.cobs != nil {
				t.Fatal("recorder constructed with Obs disabled")
			}
			arriveAll(t, f, tr, horizon)
			if f.arrived < 3 {
				t.Fatalf("only %d arrivals placed, measurement would be vacuous", f.arrived)
			}

			now := sim.Time(0)
			step := func() error {
				now += 10 * sim.Second
				return f.barrier(now)
			}
			// Warm up past transients (first refills, pool and slice growth).
			for i := 0; i < 5; i++ {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			allocs := testing.AllocsPerRun(30, func() {
				if err := step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Errorf("disabled-obs fleet barrier allocates %.2f allocs per 10 s advance, want 0", allocs)
			}
		})
	}
}

// arriveAll stands in for the Run prologue: it attaches every trace
// arrival at time zero (demand phases keep their absolute schedule), so
// a test can then drive barriers and commands by hand.
func arriveAll(t *testing.T, f *Fleet, tr *testTrace, horizon sim.Time) {
	t.Helper()
	f.ran = true
	f.horizon = horizon
	for i := range tr.Events {
		if err := f.arrive(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDVFSPlacementNoAllocs pins the dvfs-aware query path at zero
// allocations: an index query and an update of an already-ON machine
// (the reserve/release refresh).
func TestDVFSPlacementNoAllocs(t *testing.T) {
	h, queries := benchEstate(NewDVFSAware(), 1000)
	x := h.pidx.(*dvfsIndex)
	if len(x.on) == 0 {
		t.Fatal("no machine on: measurement would be vacuous")
	}
	i := int(x.on[0])
	st := &h.states[i]
	cases := map[string]func(){
		"index place": func() {
			for _, q := range queries {
				x.place(q, true)
			}
		},
		"index update": func() {
			st.FreeCreditPct--
			st.OfferedLoadPct++
			x.update(i)
			st.FreeCreditPct++
			st.OfferedLoadPct--
			x.update(i)
		},
	}
	for name, run := range cases {
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s allocates %.2f per run, want 0", name, allocs)
		}
	}
}
