package fleet

import (
	"bytes"
	"strings"
	"testing"

	"pasched/internal/obs"
	"pasched/internal/sim"
)

// TestFleetPerfettoTrace runs the churn scenario with a streaming
// Perfetto sink and checks the produced document is a well-formed
// trace: valid JSON, legal phases, non-overlapping slices per track,
// monotone counters — and that the run actually produced per-VM state
// slices, counters, and instants (the trace is not vacuously valid).
func TestFleetPerfettoTrace(t *testing.T) {
	seed := uint64(7)
	tr := churnTrace(t, seed)
	var buf bytes.Buffer
	cfg := churnConfig(2, 2, seed)
	cfg.Obs = ObsConfig{Enabled: true, Sink: obs.NewPerfettoWriter(&buf)}
	rep := runFleet(t, cfg, tr, 300*sim.Second)

	st, err := obs.ValidatePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fleet-produced trace rejected: %v", err)
	}
	if st.Slices == 0 || st.Counters == 0 || st.Instants == 0 || st.Tracks == 0 {
		t.Fatalf("vacuous trace: %+v", st)
	}
	if st.EndUs != int64(300*sim.Second) {
		t.Errorf("trace ends at %d us, want %d", st.EndUs, int64(300*sim.Second))
	}
	if rep.Summary.ObsEvents == 0 {
		t.Error("summary reports no recorder events despite an enabled sink")
	}
	// The migration churn must show up as named migration instants.
	if !strings.Contains(buf.String(), `"mig-start`) {
		t.Error("no migration instants in the trace despite consolidation churn")
	}
}

// TestFleetPerfettoDeterministic: the Perfetto file is a pure function of
// the run. Two identical runs, and every shard x worker combination,
// write byte-identical traces — Finish included — for the churn and the
// autoscale scenarios, and no window falls back from the lane merge to
// the sort. The first 120 s of each trace keep the suite fast and still
// carry migrations and autoscale actions.
func TestFleetPerfettoDeterministic(t *testing.T) {
	seed := uint64(7)
	scenarios := []struct {
		name, marker string // marker: an instant the trace must carry
		cfg          func(shards, workers int, seed uint64) Config
		tr           *testTrace
	}{
		{"churn", `"mig-start"`, churnConfig, churnTrace(t, seed)},
		{"autoscale", `"autoscale"`, autoscaleConfig, autoscaleTrace(t, seed)},
	}
	for _, sc := range scenarios {
		run := func(shards, workers int) []byte {
			var buf bytes.Buffer
			cfg := sc.cfg(shards, workers, seed)
			cfg.Obs = ObsConfig{Enabled: true, Sink: obs.NewPerfettoWriter(&buf)}
			f, err := NewStream(cfg, sc.tr.source())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Run(120 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if n := f.rec.Fallbacks(); n != 0 {
				t.Errorf("%s shards=%d workers=%d: %d windows fell back to sorting", sc.name, shards, workers, n)
			}
			return buf.Bytes()
		}
		want := run(1, 1)
		if !bytes.Contains(want, []byte(`"ph":"X"`)) || !bytes.Contains(want, []byte(sc.marker)) {
			t.Fatalf("%s: vacuous trace, no slices or no %s instants", sc.name, sc.marker)
		}
		if again := run(1, 1); !bytes.Equal(again, want) {
			t.Errorf("%s: two identical runs wrote different traces (%d vs %d bytes)", sc.name, len(again), len(want))
		}
		for _, shards := range []int{1, 2, 4, 7} {
			for _, workers := range []int{1, 4} {
				if got := run(shards, workers); !bytes.Equal(got, want) {
					t.Errorf("%s shards=%d workers=%d: trace differs from 1x1 (%d vs %d bytes)",
						sc.name, shards, workers, len(got), len(want))
				}
			}
		}
	}
}
