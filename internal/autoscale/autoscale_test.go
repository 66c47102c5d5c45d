package autoscale

import (
	"reflect"
	"strings"
	"testing"
)

func mustPolicy(t *testing.T, name string, p Params) Policy {
	t.Helper()
	pol, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestParamsValidation(t *testing.T) {
	def, err := Params{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if def.StepPct != 10 || def.MaxReplicas != 1 || def.QueueHigh != 8 {
		t.Fatalf("unexpected defaults: %+v", def)
	}
	for name, p := range map[string]Params{
		"negative step":       {StepPct: -1},
		"ceiling below floor": {MaxCapPct: minCapPct - 1},
		"high below low":      {QueueHigh: -1},
		"replica bound":       {MaxReplicas: 100},
		"capped permille":     {CappedHighPermille: 1001},
	} {
		if _, err := p.WithDefaults(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := New("nope", Params{}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy accepted: %v", err)
	}
	for _, name := range []string{"queue", "ditto", "latency"} {
		if !Valid(name) {
			t.Errorf("%s not registered", name)
		}
		pol := mustPolicy(t, name, Params{})
		if pol.Name() != name {
			t.Errorf("policy %s reports name %s", name, pol.Name())
		}
	}
	if Valid("nope") {
		t.Error("Valid accepted an unknown name")
	}
	if got := Names(); !strings.Contains(got, "ditto") || !strings.Contains(got, "queue") {
		t.Errorf("Names() = %q", got)
	}
	if !mustPolicy(t, "ditto", Params{}).RequiresObs() {
		t.Error("ditto does not require obs")
	}
	if mustPolicy(t, "queue", Params{}).RequiresObs() {
		t.Error("queue requires obs")
	}
}

// TestQueuePolicyLadder walks the escalation ladder: a pressured VM
// grows its cap step by step, scales out only once the cap saturates,
// and the drained group first retires the replica, then steps the cap
// back to the contracted credit.
func TestQueuePolicyLadder(t *testing.T) {
	prm := Params{StepPct: 20, MaxCapPct: 50, QueueHigh: 4, MaxReplicas: 2}
	c := NewController(mustPolicy(t, "queue", prm))
	sig := Signals{Name: "v", CapPct: 25, BaseCapPct: 25, HeadroomPct: 100, Queue: 10, Replicas: 1}

	acts := c.Step(1, []Signals{sig})
	if len(acts) != 1 || acts[0].Kind != SetCap || acts[0].CapPct != 45 {
		t.Fatalf("pressured VM: got %+v, want cap 45", acts)
	}
	sig.CapPct = 45
	acts = c.Step(2, []Signals{sig})
	if len(acts) != 1 || acts[0].Kind != SetCap || acts[0].CapPct != 50 {
		t.Fatalf("second step: got %+v, want cap clamp to 50", acts)
	}
	sig.CapPct = 50
	acts = c.Step(3, []Signals{sig})
	if len(acts) != 1 || acts[0].Kind != ScaleOut {
		t.Fatalf("saturated cap: got %+v, want scale-out", acts)
	}
	sig.Replicas = 2
	acts = c.Step(4, []Signals{sig})
	if len(acts) != 0 {
		t.Fatalf("at replica bound: got %+v, want nothing", acts)
	}

	sig.Queue = 0
	// First drained barrier records a negative delta; decision fires.
	acts = c.Step(5, []Signals{sig})
	if len(acts) != 1 || acts[0].Kind != ScaleIn {
		t.Fatalf("drained group: got %+v, want scale-in", acts)
	}
	sig.Replicas = 1
	acts = c.Step(6, []Signals{sig})
	if len(acts) != 1 || acts[0].Kind != SetCap || acts[0].CapPct != 30 {
		t.Fatalf("drained VM: got %+v, want cap 30", acts)
	}
	sig.CapPct = 25 // back at contract
	acts = c.Step(7, []Signals{sig})
	if len(acts) != 0 {
		t.Fatalf("at contract: got %+v, want nothing", acts)
	}
}

// TestDittoPolicyTriggersOnAttribution: ditto grows only when the
// ledger attributes the interval to the VM's own cap — a queue caused
// by contention (no capped time) must not trigger a cap raise.
func TestDittoPolicyTriggersOnAttribution(t *testing.T) {
	c := NewController(mustPolicy(t, "ditto", Params{CappedHighPermille: 250}))
	base := Signals{Name: "v", CapPct: 20, BaseCapPct: 20, HeadroomPct: 50,
		Queue: 10, Replicas: 1, IntervalUs: 1_000_000}

	throttled := base
	throttled.CappedUs = 400_000
	c2 := NewController(mustPolicy(t, "ditto", Params{CappedHighPermille: 250}))
	_ = c2.Step(1, []Signals{base}) // seed history: capped delta 0
	throttledStep := c2.Step(2, []Signals{throttled})
	if len(throttledStep) != 1 || throttledStep[0].Kind != SetCap {
		t.Fatalf("throttled VM: got %+v, want cap raise", throttledStep)
	}

	contended := base // queue without capped time: not ours to fix
	if acts := c.Step(1, []Signals{contended}); len(acts) != 0 {
		t.Fatalf("contended VM: got %+v, want nothing", acts)
	}
}

// TestLatencyPolicyDecide pins the latency policy's two triggers on the
// fleet-wide interval p99: above the target a queueing VM climbs the
// growth ladder, under a quarter of it a drained VM climbs back down,
// and everything in between (or an interval that served nothing) holds.
func TestLatencyPolicyDecide(t *testing.T) {
	pol := mustPolicy(t, "latency", Params{MaxReplicas: 2})
	base := Signals{Name: "v", CapPct: 40, BaseCapPct: 20, HeadroomPct: 50, Replicas: 1}
	for _, tc := range []struct {
		name string
		mut  func(*Signals)
		want []Action
	}{
		{"slow with a queue grows the cap", func(s *Signals) {
			s.FleetP99Us, s.Queue = targetP99Us+1, 3
		}, []Action{{VM: "v", Kind: SetCap, CapPct: 50}}},
		{"slow at the cap ceiling scales out", func(s *Signals) {
			s.FleetP99Us, s.Queue, s.CapPct = targetP99Us+1, 3, 95
		}, []Action{{VM: "v", Kind: ScaleOut}}},
		{"at the target holds", func(s *Signals) {
			s.FleetP99Us, s.Queue = targetP99Us, 3
		}, nil},
		{"at the target and drained holds", func(s *Signals) {
			s.FleetP99Us = targetP99Us
		}, nil},
		{"fast and drained shrinks the cap", func(s *Signals) {
			s.FleetP99Us = targetP99Us/4 - 1
		}, []Action{{VM: "v", Kind: SetCap, CapPct: 30}}},
		{"fast and drained stops at the contract", func(s *Signals) {
			s.FleetP99Us, s.CapPct = targetP99Us/4-1, 25
		}, []Action{{VM: "v", Kind: SetCap, CapPct: 20}}},
		{"fast and drained parent scales in first", func(s *Signals) {
			s.FleetP99Us, s.Replicas = targetP99Us/4-1, 2
		}, []Action{{VM: "v", Kind: ScaleIn}}},
		{"fast with a growing queue holds", func(s *Signals) {
			s.FleetP99Us, s.QueueDelta = targetP99Us/4-1, 1
		}, nil},
		{"an interval that served nothing never shrinks", func(s *Signals) {
			s.FleetP99Us, s.Replicas = 0, 2
		}, nil},
	} {
		sig := base
		tc.mut(&sig)
		if got := pol.Decide(1, []Signals{sig}, nil); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestControllerDeltasAndSweep: queue deltas come from the previous
// barrier, and history for vanished VMs is swept.
func TestControllerDeltasAndSweep(t *testing.T) {
	c := NewController(mustPolicy(t, "queue", Params{}))
	sigs := []Signals{{Name: "a", Queue: 5}, {Name: "b", Queue: 3}}
	c.Step(1, sigs)
	sigs = []Signals{{Name: "a", Queue: 9}}
	c.Step(2, sigs)
	if sigs[0].QueueDelta != 4 {
		t.Fatalf("queue delta = %d, want 4", sigs[0].QueueDelta)
	}
	if _, ok := c.prev["b"]; ok {
		t.Fatal("history for departed VM not swept")
	}
	// A VM re-appearing after a sweep starts with a zero delta.
	sigs = []Signals{{Name: "b", Queue: 7}}
	c.Step(3, sigs)
	if sigs[0].QueueDelta != 0 {
		t.Fatalf("resurrected VM delta = %d, want 0", sigs[0].QueueDelta)
	}
}
