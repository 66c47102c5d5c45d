// Package autoscale closes the elastic loop over the fleet's
// observability spine: a policy-pluggable controller that runs on the
// fleet coordinator at reporting barriers, reads per-VM signals already
// flowing through the spine — serving queue depths, the interval p99
// from the latency histogram ladders, and the throttle-attribution
// ledger's capped time — and emits deterministic resize actions:
// credit-cap or weight changes through the schedulers' resize surfaces,
// and replica scale-out/in against the placement policy.
//
// Determinism contract: a policy is a pure function of the signal slice
// it is handed (plus its own per-VM history, keyed and swept
// deterministically). Signals arrive in the coordinator's VM order —
// identical for every shard and worker count — and actions are applied
// in emission order at the barrier instant, so an autoscaled fleet
// report is DeepEqual-bit-exact across shardings, exactly like a static
// one.
package autoscale

import (
	"fmt"
	"sort"

	"pasched/internal/sim"
)

// The built-in policies' fixed thresholds.
const (
	// minCapPct floors every cap shrink.
	minCapPct = 5
	// queueLow is the queue depth at or below which a VM counts as
	// drained.
	queueLow = 1
	// targetP99Us is the latency policy's fleet-wide interval p99 target
	// in microseconds (50 ms).
	targetP99Us = 50_000
)

// Params tunes the built-in policies. The zero value selects the
// defaults noted per field.
type Params struct {
	// StepPct is the cap increment/decrement of one resize decision in
	// credit percentage points. Default 10.
	StepPct float64
	// MaxCapPct ceils every cap growth (the fleet additionally clamps
	// growth to the hosting machine's free credit). Default 95.
	MaxCapPct float64
	// QueueHigh is the queue depth at or above which a VM counts as
	// pressured. Default 8.
	QueueHigh int64
	// MaxReplicas bounds a VM's serving group size (the VM itself plus
	// its replicas). 1 disables replica scale-out. Default 1.
	MaxReplicas int
	// CappedHighPermille is the ditto policy's growth trigger: the
	// fraction of the interval (in permille) a VM must have spent
	// throttled by its own cap. Default 250 (a quarter of the
	// interval).
	CappedHighPermille int64
}

// WithDefaults fills zero fields with the documented defaults and
// validates the result.
func (p Params) WithDefaults() (Params, error) {
	if p.StepPct == 0 {
		p.StepPct = 10
	}
	if p.MaxCapPct == 0 {
		p.MaxCapPct = 95
	}
	if p.QueueHigh == 0 {
		p.QueueHigh = 8
	}
	if p.MaxReplicas == 0 {
		p.MaxReplicas = 1
	}
	if p.CappedHighPermille == 0 {
		p.CappedHighPermille = 250
	}
	switch {
	case p.StepPct < 0:
		return p, fmt.Errorf("autoscale: negative step %v", p.StepPct)
	case p.MaxCapPct < minCapPct:
		return p, fmt.Errorf("autoscale: cap ceiling %v below the %v%% floor", p.MaxCapPct, minCapPct)
	case p.QueueHigh < queueLow:
		return p, fmt.Errorf("autoscale: queue high mark %d below the low mark %d", p.QueueHigh, queueLow)
	case p.MaxReplicas < 1 || p.MaxReplicas > 64:
		return p, fmt.Errorf("autoscale: replica bound %d outside [1, 64]", p.MaxReplicas)
	case p.CappedHighPermille < 0 || p.CappedHighPermille > 1000:
		return p, fmt.Errorf("autoscale: capped trigger %d‰ outside [0, 1000]", p.CappedHighPermille)
	}
	return p, nil
}

// Signals is one VM's observation at a reporting barrier. The fleet
// fills it from state the coordinator may legally read while every
// shard is parked: the serving server's queue, the hosting machine's
// bookkeeping, and (when the flight recorder is on) the VM's
// throttle-attribution ledger. It holds exactly what a built-in policy
// or the controller reads.
type Signals struct {
	// Name identifies the VM; actions echo it back.
	Name string
	// IsReplica marks an autoscaler-created group member; Replicas is
	// the group size (the VM plus its replicas) and is set only on the
	// group's parent (1 when unsplit, 0 on replica members).
	IsReplica bool
	Replicas  int
	// CapPct is the VM's current booked credit percentage; BaseCapPct
	// its contracted (trace class) credit — policies shrink toward the
	// contract, never below it. HeadroomPct is the hosting machine's
	// free credit.
	CapPct      float64
	BaseCapPct  float64
	HeadroomPct float64
	// The request queue depth at the barrier, and its delta against the
	// previous barrier (0 at the VM's first observation).
	Queue      int64
	QueueDelta int64
	// The throttle-attribution ledger's cumulative capped time in
	// microseconds (zero unless the flight recorder is enabled), and its
	// interval delta, computed by the controller.
	CappedUs      int64
	CappedDeltaUs int64
	// The fleet-wide interval reply-latency p99 in microseconds (0 when
	// the interval served nothing), and the interval length.
	FleetP99Us int64
	IntervalUs int64
}

// ActionKind enumerates the resize actions a policy can emit. The values
// are stable: recorder streams and Perfetto traces carry them as the
// autoscale event's action argument.
type ActionKind uint8

const (
	// SetCap rebooks the VM's credit to Action.CapPct (the fleet clamps
	// growth to the machine's free credit and applies it through the
	// scheduler's cap or weight surface).
	SetCap ActionKind = 1
	// ScaleOut adds one serving replica to the VM's group, placed by
	// the fleet's placement policy; the group's arrival stream is
	// repartitioned at the barrier instant.
	ScaleOut ActionKind = 3
	// ScaleIn removes the VM's newest replica and repartitions.
	ScaleIn ActionKind = 4
)

// String returns the kind's stable display name.
func (k ActionKind) String() string {
	switch k {
	case SetCap:
		return "set-cap"
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	}
	return "unknown"
}

// Action is one resize decision, targeting the VM by name.
type Action struct {
	VM     string
	Kind   ActionKind
	CapPct float64 // SetCap only
}

// Policy decides resize actions from barrier signals. Decide must be
// deterministic: a function of the signal slice (ordered by the fleet)
// only, appending its actions to acts. RequiresObs reports whether the
// policy reads the attribution ledger (the fleet then requires the
// flight recorder).
type Policy interface {
	Name() string
	RequiresObs() bool
	Decide(now sim.Time, vms []Signals, acts []Action) []Action
}

// builders is the policy registry, keyed by name.
var builders = map[string]func(Params) Policy{
	"queue":   func(p Params) Policy { return &queuePolicy{p: p} },
	"ditto":   func(p Params) Policy { return &dittoPolicy{p: p} },
	"latency": func(p Params) Policy { return &latencyPolicy{p: p} },
}

// New builds a registered policy with defaulted, validated parameters.
func New(name string, prm Params) (Policy, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("autoscale: unknown policy %q (accepted: %s)", name, Names())
	}
	prm, err := prm.WithDefaults()
	if err != nil {
		return nil, err
	}
	return b(prm), nil
}

// Names renders the registered policy names, sorted, for usage strings.
func Names() string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// Valid reports whether name is a registered policy.
func Valid(name string) bool { _, ok := builders[name]; return ok }

// grow emits the escalation ladder shared by every built-in policy: a
// pressured VM first grows its cap by StepPct toward MaxCapPct (the
// fleet further clamps to machine headroom), and only a group parent
// whose cap is saturated scales out — replicas are the expensive lever.
func grow(p Params, s *Signals, acts []Action) []Action {
	if s.CapPct+1e-9 < p.MaxCapPct && s.HeadroomPct > 1e-9 {
		want := s.CapPct + p.StepPct
		if want > p.MaxCapPct {
			want = p.MaxCapPct
		}
		return append(acts, Action{VM: s.Name, Kind: SetCap, CapPct: want})
	}
	if !s.IsReplica && s.Replicas < p.MaxReplicas {
		return append(acts, Action{VM: s.Name, Kind: ScaleOut})
	}
	return acts
}

// shrink emits the de-escalation ladder: a drained parent first retires
// its newest replica, then everyone steps their cap back down toward
// the contracted credit.
func shrink(p Params, s *Signals, acts []Action) []Action {
	if !s.IsReplica && s.Replicas > 1 {
		return append(acts, Action{VM: s.Name, Kind: ScaleIn})
	}
	floor := s.BaseCapPct
	if floor < minCapPct {
		floor = minCapPct
	}
	if s.CapPct > floor+1e-9 {
		want := s.CapPct - p.StepPct
		if want < floor {
			want = floor
		}
		return append(acts, Action{VM: s.Name, Kind: SetCap, CapPct: want})
	}
	return acts
}

// queuePolicy scales on serving queue depth alone: grow while the queue
// sits at or above QueueHigh and is not draining, shrink when it sits
// at or below queueLow and is not growing.
type queuePolicy struct{ p Params }

func (*queuePolicy) Name() string      { return "queue" }
func (*queuePolicy) RequiresObs() bool { return false }

func (q *queuePolicy) Decide(_ sim.Time, vms []Signals, acts []Action) []Action {
	for i := range vms {
		s := &vms[i]
		switch {
		case s.Queue >= q.p.QueueHigh && s.QueueDelta >= 0:
			acts = grow(q.p, s, acts)
		case s.Queue <= queueLow && s.QueueDelta <= 0:
			acts = shrink(q.p, s, acts)
		}
	}
	return acts
}

// dittoPolicy scales on the throttle-attribution ledger: a VM that
// spent more than CappedHighPermille of the interval barred by its own
// cap, with work still queued, is being throttled into queueing — grow
// it. A VM with no capped time and a drained queue gives capacity back.
// This is the autoscaler the flight recorder was built for: the trigger
// is the attributed cause (capped time), not the symptom (queue depth),
// so it does not fire on queues caused by contention or downclocking,
// which a cap raise cannot fix.
type dittoPolicy struct{ p Params }

func (*dittoPolicy) Name() string      { return "ditto" }
func (*dittoPolicy) RequiresObs() bool { return true }

func (d *dittoPolicy) Decide(_ sim.Time, vms []Signals, acts []Action) []Action {
	for i := range vms {
		s := &vms[i]
		capped := s.IntervalUs > 0 && s.CappedDeltaUs*1000 > d.p.CappedHighPermille*s.IntervalUs
		switch {
		case capped && s.Queue > 0:
			acts = grow(d.p, s, acts)
		case s.CappedDeltaUs == 0 && s.Queue <= queueLow && s.QueueDelta <= 0:
			acts = shrink(d.p, s, acts)
		}
	}
	return acts
}

// latencyPolicy scales on the fleet-wide interval p99: above target,
// every queueing VM grows; below a quarter of the target, drained VMs
// shrink. Coarser than ditto (one global trigger), but needs neither
// the recorder nor per-VM tuning.
type latencyPolicy struct{ p Params }

func (*latencyPolicy) Name() string      { return "latency" }
func (*latencyPolicy) RequiresObs() bool { return false }

func (l *latencyPolicy) Decide(_ sim.Time, vms []Signals, acts []Action) []Action {
	for i := range vms {
		s := &vms[i]
		switch {
		case s.FleetP99Us > targetP99Us && s.Queue >= queueLow:
			acts = grow(l.p, s, acts)
		case s.FleetP99Us > 0 && s.FleetP99Us*4 < targetP99Us && s.Queue <= queueLow && s.QueueDelta <= 0:
			acts = shrink(l.p, s, acts)
		}
	}
	return acts
}

// prevSig is the controller's per-VM history between barriers.
type prevSig struct {
	gen      uint64
	queue    int64
	cappedUs int64
}

// Controller wraps a policy with the per-VM history that turns
// cumulative signals into interval deltas, and sweeps history for VMs
// that disappeared (departed or scaled in).
type Controller struct {
	pol  Policy
	prev map[string]prevSig
	gen  uint64
	acts []Action
}

// NewController builds a controller around pol.
func NewController(pol Policy) *Controller {
	return &Controller{pol: pol, prev: make(map[string]prevSig)}
}

// Policy returns the wrapped policy.
func (c *Controller) Policy() Policy { return c.pol }

// Step computes the interval deltas for every signal in place, asks the
// policy to decide, and returns the actions. The returned slice is
// valid until the next Step.
func (c *Controller) Step(now sim.Time, vms []Signals) []Action {
	c.gen++
	for i := range vms {
		s := &vms[i]
		if pv, ok := c.prev[s.Name]; ok {
			s.QueueDelta = s.Queue - pv.queue
			s.CappedDeltaUs = s.CappedUs - pv.cappedUs
		}
		c.prev[s.Name] = prevSig{gen: c.gen, queue: s.Queue, cappedUs: s.CappedUs}
	}
	// Sweep entries not refreshed this step: their VMs are gone, and an
	// unbounded map would leak across a long run. Deletion order does
	// not matter, so ranging the map here stays deterministic in effect.
	for name, pv := range c.prev {
		if pv.gen != c.gen {
			delete(c.prev, name)
		}
	}
	c.acts = c.pol.Decide(now, vms, c.acts[:0])
	return c.acts
}
