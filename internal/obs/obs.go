// Package obs is the fleet's flight recorder: a low-overhead, opt-in
// event stream capturing simulated-time spans and decision events across
// every layer — scheduler credit refills and exhaustions, host pattern
// commits and P-state transitions, batching boundary sources, fleet
// placement/migration/power events, and serving queue-depth/latency
// samples — plus an exact integer-microsecond throttle-attribution
// ledger per VM.
//
// Determinism contract: every event is keyed by (At, Lane, Seq), where
// Lane identifies the emitting track — the fleet-global machine index,
// or LaneCoordinator for the control plane — and Seq is a per-lane
// sequence number. A machine's command stream (and therefore its host's
// stepping) is identical for any shard × worker count, so each lane's
// event sequence is sharding-invariant; ordering a drained window by
// (At, Lane, Seq) yields a merged stream that is DeepEqual-bit-exact
// across shardings.
//
// Per-lane order contract: within one lane, At never decreases in Seq
// order (a lane is one machine's clock, which only moves forward). Each
// lane therefore appends an already-sorted run, and the coordinator
// drains a window at a reporting barrier by k-way merging the lane runs
// by (At, Lane) straight into its reused window buffer — no sort. Emit
// flags a lane whose run breaks the contract, and Drain checks the flags
// while it collects the runs; a window that breaks it falls back to a
// full (At, Lane, Seq) sort, and the fallback is counted
// (Recorder.Fallbacks). Lanes belong to per-shard rings with one
// writer at a time, like every other per-shard accumulator, and their
// buffers are reused across windows.
//
// When disabled, nothing in this package runs: the host and fleet guard
// every emission behind a single nil pointer check, so the disabled hot
// path costs zero allocations and no measurable time (benchmark-gated).
package obs

import (
	"cmp"
	"slices"

	"pasched/internal/sim"
)

// LaneCoordinator is the Lane value of control-plane events (placement,
// migration planning, power management, barriers). Machine events use
// the fleet-global machine index as their lane.
const LaneCoordinator int32 = -1

// Kind classifies one event.
type Kind uint8

const (
	// KindVMState marks a VM's attribution state change; A is the new
	// State. The Perfetto exporter turns consecutive state events into
	// per-VM slices.
	KindVMState Kind = iota
	// KindPState marks a completed processor P-state transition; A is
	// the new frequency in MHz.
	KindPState
	// KindRefill marks a scheduler accounting boundary (credit refill).
	KindRefill
	// KindExhausted marks a VM's budget crossing zero under a hard cap;
	// VM names the VM.
	KindExhausted
	// KindPattern marks a committed certified pattern step; A is the
	// total quanta folded, B the number of distinct VMs picked.
	KindPattern
	// KindBoundary reports one engine boundary-source counter delta at a
	// reporting barrier; VM holds the source name ("target", "event",
	// "action", "machine-shortened", "machine-declined"), A the delta.
	KindBoundary
	// KindQueueDepth samples a serving VM's request queue at a reporting
	// barrier; VM names the VM, A is the queue depth, B the cumulative
	// completed requests.
	KindQueueDepth
	// KindPlace records a placement decision; VM names the VM, A the
	// chosen machine.
	KindPlace
	// KindReject records a rejected arrival (no machine fit); VM names
	// the VM.
	KindReject
	// KindMigStart records a planned migration; VM names the VM, A the
	// source machine, B the destination.
	KindMigStart
	// KindMigDone records a completed migration; VM names the VM, A the
	// destination machine.
	KindMigDone
	// KindPowerOn records a machine power-on; A is the machine index.
	KindPowerOn
	// KindPowerOff records a machine power-off; A is the machine index.
	KindPowerOff
	// KindBarrier records a reporting barrier; A is the live VM count.
	KindBarrier
	// KindLatency samples the fleet-wide interval reply latency at a
	// reporting barrier; A is p50 in microseconds, B is p99.
	KindLatency
	// KindRecompensate records a frequency-change credit recompensation
	// (Listing 1.2): A is the new frequency in MHz, B is the number of
	// VMs whose caps were rewritten.
	KindRecompensate
	// KindAutoscale records an autoscaler resize decision on the
	// coordinator lane; A encodes the action kind (autoscale.ActionKind:
	// 1 set-cap, 3 scale-out, 4 scale-in), B its argument (the new cap
	// percentage, or the replica ordinal).
	KindAutoscale
)

// kindNames maps Kind to a stable display name.
var kindNames = [...]string{
	KindVMState:      "vmstate",
	KindPState:       "pstate",
	KindRefill:       "refill",
	KindExhausted:    "exhausted",
	KindPattern:      "pattern",
	KindBoundary:     "boundary",
	KindQueueDepth:   "queue",
	KindPlace:        "place",
	KindReject:       "reject",
	KindMigStart:     "mig-start",
	KindMigDone:      "mig-done",
	KindPowerOn:      "power-on",
	KindPowerOff:     "power-off",
	KindBarrier:      "barrier",
	KindLatency:      "latency",
	KindRecompensate: "recompensate",
	KindAutoscale:    "autoscale",
}

// String returns the kind's stable display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// State is a VM's momentary attribution state, mirroring the ledger
// buckets (see VMLedger).
type State uint8

const (
	// StateNone is the zero value: no state recorded yet.
	StateNone State = iota
	// StateRun: executing at the processor's maximum frequency.
	StateRun
	// StateDownclocked: executing at a reduced frequency.
	StateDownclocked
	// StateCapped: runnable but barred by its own exhausted allocation
	// (credit cap, expired SEDF slice) — the throttled state.
	StateCapped
	// StateContended: runnable, entitled to run, but another VM holds
	// the processor.
	StateContended
	// StateMigrating: waiting while a live migration of the VM is in
	// flight.
	StateMigrating
	// StateIdle: not runnable (no pending work).
	StateIdle
)

// stateNames maps State to a stable display name.
var stateNames = [...]string{
	StateNone:        "none",
	StateRun:         "run",
	StateDownclocked: "downclocked",
	StateCapped:      "capped",
	StateContended:   "contended",
	StateMigrating:   "migrating",
	StateIdle:        "idle",
}

// String returns the state's stable display name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Event is one recorded decision or state change. (At, Lane, Seq) is a
// sharding-invariant sort key; Kind determines how VM, A and B are
// interpreted (see the Kind constants).
type Event struct {
	At   sim.Time
	Lane int32
	Seq  uint32
	Kind Kind
	VM   string
	A, B int64
}

// Ring is one shard's set of lanes. Exactly one worker emits into a
// shard's lanes at a time (the same single-writer discipline as the
// shard's interval accumulators); the coordinator drains them at
// barriers and hands the run buffers back for reuse.
type Ring struct {
	lanes []*MachineObs
}

// MachineObs is one lane's emitting handle: it owns the lane's sequence
// counter and the lane's run of undrained events. A machine keeps its
// MachineObs across power cycles so sequence numbers never restart
// within a run. Each lane has exactly one handle.
type MachineObs struct {
	run       []Event
	lane      int32
	seq       uint32
	unordered bool // run breaks the per-lane order contract
}

// NewMachineObs returns an emitting handle for the given lane,
// registered with ring so the recorder drains it.
func NewMachineObs(ring *Ring, lane int32) *MachineObs {
	m := &MachineObs{lane: lane}
	ring.lanes = append(ring.lanes, m)
	return m
}

// Emit appends one event at simulated time at, which must not precede
// the lane's previous event (the per-lane order contract). The VM string
// must be a stable name (shared, not built per call) so emission does
// not allocate beyond run growth.
func (m *MachineObs) Emit(at sim.Time, k Kind, vmName string, a, b int64) {
	m.seq++
	if n := len(m.run); n > 0 && at < m.run[n-1].At {
		m.unordered = true
	}
	m.run = append(m.run, Event{At: at, Lane: m.lane, Seq: m.seq, Kind: k, VM: vmName, A: a, B: b})
}

// EventSink consumes merged event windows. Events is called once per
// reporting barrier with the window sorted by (At, Lane, Seq); the
// slice is only valid during the call (the recorder reuses the backing
// array). Finish is called once after the final window, with the run's
// end time.
type EventSink interface {
	Events(window []Event) error
	Finish(at sim.Time) error
}

// Recorder owns the per-shard rings and the coordinator ring, merges
// them into deterministic windows at barriers, and feeds the optional
// sink and in-memory buffer.
type Recorder struct {
	rings     []*Ring // per shard, then the coordinator ring last
	sink      EventSink
	keep      bool
	all       []Event
	scratch   []Event
	runs      [][]Event   // the window's non-empty lane runs
	heads     []mergeHead // the merge heap over runs
	total     int64
	fallbacks int64
}

// NewRecorder builds a recorder for the given shard count. sink, when
// non-nil, receives every merged window; keep retains the merged stream
// in memory for Events().
func NewRecorder(shards int, sink EventSink, keep bool) *Recorder {
	rings := make([]*Ring, shards+1)
	for i := range rings {
		rings[i] = &Ring{}
	}
	return &Recorder{rings: rings, sink: sink, keep: keep}
}

// Ring returns shard's ring.
func (r *Recorder) Ring(shard int) *Ring { return r.rings[shard] }

// CoordinatorRing returns the control plane's ring.
func (r *Recorder) CoordinatorRing() *Ring { return r.rings[len(r.rings)-1] }

// Drain merges every lane's pending run into one window ordered by
// (At, Lane, Seq), dispatches it to the sink and buffer, and recycles
// the run buffers. The window is written straight into the retained
// stream when keep is set, otherwise into a reused scratch buffer. It
// must run with every shard parked at a barrier.
func (r *Recorder) Drain() error {
	runs, heads := r.runs[:0], r.heads[:0]
	n := 0
	ordered := true
	for _, rg := range r.rings {
		for _, m := range rg.lanes {
			if len(m.run) == 0 {
				continue
			}
			heads = append(heads, mergeHead{at: m.run[0].At, lane: m.lane, run: int32(len(runs))})
			runs = append(runs, m.run)
			n += len(m.run)
			ordered = ordered && !m.unordered
		}
	}
	r.runs, r.heads = runs, heads
	if n == 0 {
		return nil
	}
	var w []Event
	if r.keep {
		r.all = slices.Grow(r.all, n)
		w = r.all[len(r.all) : len(r.all)+n]
		r.all = r.all[:len(r.all)+n]
	} else {
		w = slices.Grow(r.scratch[:0], n)[:n]
		r.scratch = w
	}
	if ordered {
		mergeRuns(w, runs, heads)
	} else {
		r.fallbacks++
		sortRuns(w, runs)
	}
	for _, rg := range r.rings {
		for _, m := range rg.lanes {
			m.run = m.run[:0]
			m.unordered = false
		}
	}
	r.total += int64(n)
	if r.sink != nil {
		return r.sink.Events(w)
	}
	return nil
}

// mergeHead is one lane run's entry in the merge heap: the key of the
// run's head event and the run's index.
type mergeHead struct {
	at   sim.Time
	lane int32
	run  int32
}

func (a *mergeHead) less(b *mergeHead) bool {
	return a.at < b.at || (a.at == b.at && a.lane < b.lane)
}

// mergeRuns k-way merges lane runs, each in (At, Seq) order and each
// from a distinct lane, into dst by (At, Lane). h, a heap entry per run,
// is consumed, and runs are advanced in place.
func mergeRuns(dst []Event, runs [][]Event, h []mergeHead) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := 0
	for len(h) > 1 {
		// The root's smaller child holds the next-smallest head, so every
		// root event ordered before that head goes out in one copy.
		top := &h[0]
		next := &h[1]
		if len(h) > 2 && h[2].less(next) {
			next = &h[2]
		}
		limit := next.at // emit while At <= limit
		if top.lane > next.lane {
			limit-- // an equal At belongs to the lower lane first
		}
		ev := runs[top.run]
		i := 1
		for i < len(ev) && ev[i].At <= limit {
			i++
		}
		out += copy(dst[out:], ev[:i])
		if i < len(ev) {
			runs[top.run], top.at = ev[i:], ev[i].At
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if len(h) == 1 {
		copy(dst[out:], runs[h[0].run])
	}
}

// siftDown restores the heap below i, moving the entry at i down into
// the hole its smaller children leave.
func siftDown(h []mergeHead, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(&h[c]) {
			c++
		}
		if !h[c].less(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// sortRuns is the fallback for a window that breaks the per-lane order
// contract: it concatenates the runs into dst and sorts by
// (At, Lane, Seq).
func sortRuns(dst []Event, runs [][]Event) {
	out := 0
	for _, run := range runs {
		out += copy(dst[out:], run)
	}
	slices.SortFunc(dst, func(a, b Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Lane, b.Lane); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// Finish drains the final window and closes the sink.
func (r *Recorder) Finish(at sim.Time) error {
	if err := r.Drain(); err != nil {
		return err
	}
	if r.sink != nil {
		return r.sink.Finish(at)
	}
	return nil
}

// Events returns the retained merged stream (nil unless the recorder
// was built with keep).
func (r *Recorder) Events() []Event { return r.all }

// Total returns how many events have been drained so far.
func (r *Recorder) Total() int64 { return r.total }

// Fallbacks returns how many windows broke the per-lane order contract
// and were sorted instead of merged.
func (r *Recorder) Fallbacks() int64 { return r.fallbacks }

// BoundarySourceNames lists the engine boundary-source counters emitted
// as KindBoundary deltas, in emission order.
var BoundarySourceNames = [5]string{"target", "event", "action", "machine-shortened", "machine-declined"}
