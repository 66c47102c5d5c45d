package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/autoscale"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// autoscaleConfig is churnConfig with the elastic loop on: the ditto
// policy on the attribution ledger, aggressive thresholds and a low cap
// ceiling so cap resizes, replica scale-outs and scale-ins all fire
// within the test horizon.
func autoscaleConfig(shards, workers int, seed uint64) Config {
	cfg := churnConfig(shards, workers, seed)
	// Full-cost requests: the default serving page costs a fifth of a
	// demand request, which gives every VM five-fold capacity headroom —
	// capped VMs would still drain their queues instantly and the
	// policies would never see pressure. At full cost, service capacity
	// equals attained CPU, so credit throttling shows up as queueing.
	cfg.Serving.RequestCost = workload.DefaultRequestCost
	cfg.Autoscale = AutoscaleConfig{
		Enabled: true,
		Policy:  "ditto",
		Params: autoscale.Params{
			StepPct:            10,
			MaxCapPct:          30, // large-class VMs saturate immediately: scale-out path
			QueueHigh:          2,
			MaxReplicas:        3,
			CappedHighPermille: 10, // 1% of the interval capped triggers growth
		},
	}
	return cfg
}

// autoscaleTrace is churnTrace at near-saturation activity, so credit
// enforcement throttles VMs into queueing and the ledger accumulates
// capped time — the ditto policy's trigger.
func autoscaleTrace(t *testing.T, seed uint64) *Trace {
	t.Helper()
	return genTrace(t, GenConfig{
		Seed:             seed,
		Arrivals:         140,
		Horizon:          300 * sim.Second,
		MeanLifetime:     45 * sim.Second,
		BaseActivity:     0.95,
		DiurnalAmplitude: 0.2,
		SegmentLen:       30 * sim.Second,
	})
}

// TestFleetAutoscaleShardEquivalence is the tentpole acceptance check:
// an autoscaled fleet — caps resized, replicas spawned and retired,
// arrival streams repartitioned mid-run — reports DeepEqual-bit-exact
// for every shard count x worker count combination, event stream
// included. Each seed's 1x1 reference run is shared by its comparison
// subtests, which run in parallel.
func TestFleetAutoscaleShardEquivalence(t *testing.T) {
	for _, seed := range []uint64{7, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := autoscaleTrace(t, seed)
			want, wantEv := runFleetObs(t, autoscaleConfig(1, 1, seed), tr, 300*sim.Second)
			s := want.Summary
			if s.AutoscaleResizes == 0 || s.AutoscaleScaleOuts == 0 || s.AutoscaleScaleIns == 0 {
				t.Fatalf("autoscaler idle, comparison is vacuous: resizes=%d outs=%d ins=%d",
					s.AutoscaleResizes, s.AutoscaleScaleOuts, s.AutoscaleScaleIns)
			}
			if s.RequestsOffered != s.RequestsCompleted+s.RequestsAbandoned+s.RequestsInFlight {
				t.Fatalf("request conservation broken across scale-out/in: %+v", s)
			}
			for _, shards := range []int{1, 2, 4, 7} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
						t.Parallel()
						got, gotEv := runFleetObs(t, autoscaleConfig(shards, workers, seed), tr, 300*sim.Second)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("autoscaled report differs from 1x1:\n%+v\nvs\n%+v", got.Summary, want.Summary)
						}
						if !reflect.DeepEqual(gotEv, wantEv) {
							t.Errorf("event stream differs from 1x1 (%d vs %d events)", len(gotEv), len(wantEv))
							for i := range gotEv {
								if i < len(wantEv) && gotEv[i] != wantEv[i] {
									t.Errorf("first divergence at event %d:\n%+v\nvs\n%+v", i, gotEv[i], wantEv[i])
									break
								}
							}
						}
					})
				}
			}
		})
	}
}

// TestFleetAutoscaleQueuePolicy runs the queue policy over full-cost
// requests, so throttled VMs queue and depart with requests unserved:
// the run must hold the three-way request conservation with departure
// abandonment and resizes both populated, and still be shard-equivalent.
func TestFleetAutoscaleQueuePolicy(t *testing.T) {
	seed := uint64(21)
	tr := autoscaleTrace(t, seed)
	cfg := func(shards, workers int) Config {
		c := churnConfig(shards, workers, seed)
		c.Serving.RequestCost = workload.DefaultRequestCost
		c.Autoscale = AutoscaleConfig{
			Enabled: true,
			Policy:  "queue",
			Params:  autoscale.Params{QueueHigh: 2, StepPct: 10},
		}
		return c
	}
	want := runFleet(t, cfg(1, 1), tr, 300*sim.Second)
	s := want.Summary
	if s.RequestsOffered != s.RequestsCompleted+s.RequestsAbandoned+s.RequestsInFlight {
		t.Fatalf("request conservation broken: %+v", s)
	}
	if s.RequestsAbandoned == 0 || s.AutoscaleResizes == 0 {
		t.Fatalf("vacuous: abandoned=%d resizes=%d", s.RequestsAbandoned, s.AutoscaleResizes)
	}
	got := runFleet(t, cfg(3, 2), tr, 300*sim.Second)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("queue-policy report differs across shardings:\n%+v\nvs\n%+v",
			got.Summary, want.Summary)
	}
}

// TestFleetAutoscaleValidation covers the configuration rejections.
func TestFleetAutoscaleValidation(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	base := func() Config {
		return Config{
			Machines:  testMachines(2, 0),
			Serving:   ServingConfig{Enabled: true},
			Obs:       ObsConfig{Enabled: true},
			Autoscale: AutoscaleConfig{Enabled: true},
		}
	}
	for name, tc := range map[string]struct {
		mut  func(*Config)
		want string
	}{
		"no serving": {func(c *Config) { c.Serving = ServingConfig{}; c.Obs = ObsConfig{} },
			"requires the serving layer"},
		"unknown policy": {func(c *Config) { c.Autoscale.Policy = "nope" }, "unknown policy"},
		"ditto sans obs": {func(c *Config) { c.Obs = ObsConfig{} }, "requires Obs.Enabled"},
		"policy sans enabled": {func(c *Config) {
			c.Autoscale = AutoscaleConfig{Policy: "queue"}
		}, "without Autoscale.Enabled"},
		"bad params": {func(c *Config) { c.Autoscale.Params.StepPct = -1 }, "negative step"},
		"serving options sans enabled": {func(c *Config) {
			c.Autoscale = AutoscaleConfig{}
			c.Serving = ServingConfig{Slots: 4}
		}, "without Serving.Enabled"},
	} {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg, tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
	}
	// The default policy is ditto, which needs the recorder: base as-is
	// must construct, and must resolve the empty policy name.
	f, err := New(base(), tr)
	if err != nil {
		t.Fatalf("defaulted autoscale config rejected: %v", err)
	}
	if f.cfg.Autoscale.Policy != "ditto" {
		t.Errorf("default policy = %q, want ditto", f.cfg.Autoscale.Policy)
	}
}

// TestClipPhases pins the replica demand-profile clipping: phases fully
// before the split are dropped, a straddling phase is truncated, later
// phases survive untouched, and the result never aliases the input.
func TestClipPhases(t *testing.T) {
	in := []workload.Phase{
		{Start: 0, End: 30 * sim.Second, Rate: 10},
		{Start: 30 * sim.Second, End: 60 * sim.Second, Rate: 20},
		{Start: 60 * sim.Second, End: 90 * sim.Second, Rate: 5},
	}
	mid := (in[0].End + in[1].Start) / 2
	out := clipPhases(in, mid)
	if len(out) == 0 {
		t.Fatal("clip dropped everything")
	}
	for i, ph := range out {
		if ph.Start < mid {
			t.Errorf("phase %d starts %v before clip point %v", i, ph.Start, mid)
		}
	}
	cut := clipPhases(in, in[0].Start+(in[0].End-in[0].Start)/2)
	if cut[0].Start != in[0].Start+(in[0].End-in[0].Start)/2 || cut[0].End != in[0].End {
		t.Errorf("straddling phase not truncated: %+v", cut[0])
	}
	if &cut[0] == &in[0] {
		t.Error("clip aliases the input slice")
	}
	if got := clipPhases(in, in[len(in)-1].End); len(got) != 0 {
		t.Errorf("clip past the profile returned %d phases", len(got))
	}
}
