// Package sched implements the hypervisor VM schedulers analysed by the
// paper (Section 3.1):
//
//   - Credit: the default Xen scheduler, used as the paper's fix-credit
//     scheduler. Each VM has a weight and a cap; a capped VM never receives
//     more than its cap, even when the processor would otherwise idle
//     (non-work-conserving with respect to the cap).
//   - SEDF: Xen's Simple Earliest Deadline First scheduler, used as the
//     paper's variable-credit scheduler. Each VM has a (slice, period,
//     extratime) triplet; VMs with the extratime flag share slices that
//     other VMs leave unused (work-conserving).
//   - Credit2: a weight-proportional work-conserving scheduler in the
//     spirit of the Xen Credit2 beta mentioned by the paper.
//
// The PAS scheduler of the paper (the contribution) lives in
// internal/core and is built on Credit via the CapSetter interface.
package sched

import (
	"errors"
	"fmt"

	"pasched/internal/sim"
	"pasched/internal/vm"
)

// ErrUnknownVM is returned when an operation references a VM that was never
// added to the scheduler.
var ErrUnknownVM = errors.New("sched: unknown VM")

// ErrDuplicateVM is returned when a VM with the same ID is added twice.
var ErrDuplicateVM = errors.New("sched: duplicate VM")

// Scheduler decides which VM occupies the processor each scheduling
// quantum. The host drives it with a Pick/Charge/Tick cycle:
//
//	v := s.Pick(now)        // who runs this quantum?
//	... execute v ...
//	s.Charge(v, busy, now)  // how long it actually ran
//	s.Tick(now)             // end-of-quantum accounting
//
// Every scheduler also certifies batched stretches for the simulation
// engine: NextBoundary names the instants the host must step through
// quantum by quantum, and BatchPattern folds a contended stretch between
// them into per-VM tallies.
//
// Implementations are not safe for concurrent use.
type Scheduler interface {
	// Name identifies the scheduling policy, e.g. "credit".
	Name() string
	// Add registers a VM with the scheduler.
	Add(v *vm.VM) error
	// Remove unregisters a VM (shutdown or migration away). Removing an
	// unknown VM is an error.
	Remove(id vm.ID) error
	// VMs returns the registered VMs in registration order.
	VMs() []*vm.VM
	// Pick returns the VM to run for the quantum starting at now, or nil
	// if no runnable VM may run (the processor idles).
	Pick(now sim.Time) *vm.VM
	// Charge informs the scheduler that v ran busy CPU time ending at now.
	Charge(v *vm.VM, busy sim.Time, now sim.Time)
	// Tick performs end-of-quantum accounting (credit refills, deadline
	// rollovers).
	Tick(now sim.Time)

	// NextBoundary returns the scheduler's next accounting boundary
	// after now (credit refill, deadline rollover, PAS recomputation) —
	// the next instant at which Tick does real work or Pick decisions
	// can change for scheduler-internal reasons — or sim.Never when
	// there is none. The engine stops batched steps strictly before it,
	// so the quantum containing it always runs with reference semantics.
	NextBoundary(now sim.Time) sim.Time

	// BatchPattern collapses a contended stretch of scheduling quanta
	// (or a single-runnable one, for a scheduler without Batcher) into
	// one composite pattern step: it certifies the scheduler's full
	// interleaving — Credit's weighted round-robin rotation between
	// credit refills, SEDF's EDF order between deadline boundaries,
	// Credit2's closed-form smallest-vruntime merge — as per-VM
	// consumed-quanta tallies.
	//
	// The engine calls it only when no scheduler boundary, no governor
	// decision, no frequency transition and no workload change lies
	// inside the offered stretch, so the certified pattern holds exactly
	// when the runnable set is static and every pick consumes a full
	// quantum, which quota guarantees. It certifies a pattern step of up
	// to max quanta starting at now; quota lists exactly the currently
	// runnable VMs, in registration order (the order of VMs), with their
	// per-VM pick bounds. It returns either
	//
	//   - (picks, false): the reference Pick sequence for the next
	//     total = Σ picks[i].Quanta quanta (total <= max) grants each
	//     listed VM exactly its tally, each pick consuming one full
	//     quantum, and after those quanta the scheduler's pick state
	//     (round-robin cursors) is as committed by this call. The caller
	//     applies the consumed time through one Charge call per VM; the
	//     tallies are chosen so that those bulk charges land in the same
	//     accounting branch every per-quantum Charge would have
	//     (scheduler-internal counters end bit-identical).
	//   - (nil, true): Pick would return nil for each of the next max
	//     quanta — every runnable VM is unserviceable (budget exhausted
	//     under a hard cap, slice exhausted without extratime) — so the
	//     processor idles for the whole offered stretch.
	//   - (nil, false): the stretch cannot be certified (pattern shorter
	//     than two quanta, or a policy the scheduler cannot fold); the
	//     caller falls back to the reference Pick/Charge/Tick cycle. No
	//     scheduler state is committed in this case.
	//
	// The returned slice is only valid until this scheduler's next
	// BatchPattern call: implementations reuse the backing buffer.
	BatchPattern(quota []PatternQuota, quantum sim.Time, max int, now sim.Time) ([]PatternPick, bool)
}

// Batcher is the one optional fast path: a scheduler that implements it
// collapses a uniform run of scheduling quanta into one batched step
// when v is the only runnable VM and no scheduler boundary (NextBoundary)
// lies inside the stretch; without it, a single runnable VM goes through
// BatchPattern like a contended stretch.
type Batcher interface {
	// BatchPick certifies a uniform stretch of up to max quanta starting
	// at now, assuming v stays the only runnable VM. It returns either
	//
	//   - (n, false): Pick would select v for each of the next n quanta
	//     and v would consume one full quantum each time. The return
	//     commits the scheduler's internal pick state (round-robin
	//     cursors) exactly as the Pick calls would have; the caller still
	//     reports the consumed time through one Charge call, and may use
	//     fewer than n quanta (the commitment does not depend on n).
	//   - (n, true): Pick would return nil for each of the next n quanta
	//     — v is runnable but not serviceable (budget exhausted under a
	//     hard cap, slice exhausted without extratime) — so the
	//     processor idles.
	//   - (0, false): the run cannot be batched; the caller must fall
	//     back to the reference Pick/Charge/Tick cycle, which remains
	//     correct after any committed state because re-picking the same
	//     sole runnable VM is idempotent.
	BatchPick(v *vm.VM, quantum sim.Time, max int, now sim.Time) (int, bool)
}

// PatternQuota bounds one VM's participation in a pattern step. The host
// derives MaxPicks from the VM's pending work: the number of consecutive
// full quanta the VM can absorb while staying runnable afterwards, so that
// every covered pick consumes exactly one full quantum and the runnable
// set cannot change from inside the pattern.
type PatternQuota struct {
	// VM is a currently runnable VM.
	VM *vm.VM
	// MaxPicks is the largest number of full quanta the VM may be granted
	// within the pattern step. Zero excludes the VM from batching (it can
	// still be skipped by the scheduler's own policy).
	MaxPicks int
}

// PatternPick is one VM's tally within a certified pattern step: the VM
// and how many full quanta it consumes across the step.
type PatternPick struct {
	VM     *vm.VM
	Quanta int
}

// CapSetter is implemented by schedulers whose per-VM CPU allocation can be
// adjusted at run time. The PAS scheduler uses it to enforce the
// recomputed, frequency-compensated credits (Listing 1.2 of the paper).
type CapSetter interface {
	// SetCap sets the VM's allocation to pct percent of the processor
	// time. Values above 100 are meaningful at low frequencies: the paper
	// notes "the sum of the VM credits may be more than 100%".
	SetCap(id vm.ID, pct float64) error
	// Cap returns the VM's current allocation percentage.
	Cap(id vm.ID) (float64, error)
}

// EffectiveCapper is an optional extension of CapSetter for schedulers
// whose enforced cap differs from the contracted credit (the PAS scheduler
// enforces a frequency-compensated cap). Metric recorders prefer it over
// Cap when present, so traces show the enforcement actually in effect.
type EffectiveCapper interface {
	// EffectiveCap returns the momentary enforced cap percentage.
	EffectiveCap(id vm.ID) (float64, error)
}

// Tracer receives scheduler decision events for the flight recorder.
// It is optional: schedulers expose it through TraceSetter, and a nil
// tracer (the default) must cost nothing on the hot path — every
// emission sits behind a single nil check.
type Tracer interface {
	// TraceRefill marks an accounting boundary (credit refill) at now.
	TraceRefill(now sim.Time)
	// TraceExhausted marks v's budget crossing zero under a hard cap at
	// now.
	TraceExhausted(now sim.Time, v *vm.VM)
	// TraceRecompensate marks a recomputation that changed the processor
	// frequency and rewrote the enforcement (the PAS credit
	// recompensation of Listing 1.2), with the new frequency and how
	// many VMs were recompensated. One event per recomputation (not per
	// VM) keeps the emission independent of the scheduler's map
	// iteration order.
	TraceRecompensate(now sim.Time, freqMHz, vms int64)
}

// TraceSetter is implemented by schedulers that can report decision
// events to a Tracer. Setting a nil tracer disables tracing.
type TraceSetter interface {
	SetTracer(t Tracer)
}

// Throttler is implemented by schedulers that can distinguish a
// runnable VM barred by its *own* exhausted allocation (credit cap,
// expired SEDF slice) from one merely waiting for the processor. The
// attribution ledger uses it to split waiting time into capped versus
// contended; schedulers without the interface (the work-conserving
// ones) never throttle, so their waiters are all contention.
type Throttler interface {
	// Throttled reports whether runnable VM v is currently barred from
	// the processor by its own exhausted allocation.
	Throttled(v *vm.VM) bool
}

// checkAdd performs the common Add registration checks.
func checkAdd(byID map[vm.ID]int, v *vm.VM) error {
	if v == nil {
		return fmt.Errorf("sched: add nil VM")
	}
	if _, dup := byID[v.ID()]; dup {
		return fmt.Errorf("%w: id %d", ErrDuplicateVM, v.ID())
	}
	return nil
}

// spliceVM removes index idx from vms, preserving order and nil-ing the
// trailing duplicate pointer so the removed VM can be collected.
func spliceVM(vms []*vm.VM, idx int) []*vm.VM {
	copy(vms[idx:], vms[idx+1:])
	vms[len(vms)-1] = nil
	return vms[:len(vms)-1]
}

// spliceState removes index idx from a per-VM state slice.
func spliceState[T any](st []T, idx int) []T {
	return append(st[:idx], st[idx+1:]...)
}

// reindexAfterRemove shifts the id→index registry down past a removed
// slice index.
func reindexAfterRemove(byID map[vm.ID]int, idx int) {
	for id, i := range byID {
		if i > idx {
			byID[id] = i - 1
		}
	}
}

// quotaWalk reads a BatchPattern quota list in one forward pass beside
// the scheduler's VM slice: the list names VMs in registration order, so
// each lookup compares one entry. A VM without an entry gets 0, which
// excludes it from batching.
type quotaWalk struct {
	quota []PatternQuota
	j     int
}

// of returns the MaxPicks bound for v. Call it for every registered VM,
// in registration order.
func (w *quotaWalk) of(v *vm.VM) int {
	if w.j < len(w.quota) && w.quota[w.j].VM == v {
		w.j++
		return w.quota[w.j-1].MaxPicks
	}
	return 0
}

// IndexOf returns the slice index of v by identity, -1 if absent. The
// linear scan beats a map lookup for the handful of VMs a host carries,
// which is why the per-quantum paths (schedulers and the host alike)
// use it.
func IndexOf(vms []*vm.VM, v *vm.VM) int {
	for i, u := range vms {
		if u == v {
			return i
		}
	}
	return -1
}

// rrQueue is a tiny round-robin helper: it remembers the last VM served,
// and the next scan starts after it, giving equal service to equal
// claimants. A candidate's rank is its cyclic distance from that start
// (cyclicDist), so one pass over the VMs finds the next one served. The
// member and pick buffers are reused across rotations — batch pattern
// construction runs on every contended host step, and a fresh slice per
// step was the schedulers' dominant allocation.
type rrQueue struct {
	last    int
	members []int
	pickBuf []PatternPick
}

// start returns the index a scan over n > 0 candidates begins at: the
// one after the last served, wrapped. Remove can leave last past the end,
// which wraps the same way.
func (q *rrQueue) start(n int) int {
	switch s := q.last + 1; {
	case s < n:
		return s
	case s == n:
		return 0
	default:
		return s % n
	}
}

// cyclicDist returns index i's distance from start in a cyclic scan over
// n indices, in [0, n): the scan reaches lower distances first.
func cyclicDist(i, start, n int) int {
	if d := i - start; d >= 0 {
		return d
	}
	return i - start + n
}

// rotationPattern builds a whole-rotations pattern step over members, a
// tier's eligible VM indices in ascending order: every member gets one
// full quantum per rotation, in the exact cyclic order the cursor would
// serve them. The rotation count is the tightest member bound — bound,
// the smallest of the members' caller quotas and scheduler-policy pick
// lives — and the offered max. On success it commits the cursor past the
// rotation, where quantum-by-quantum picking would leave it after any
// whole number of rotations, and returns the per-member tallies; it
// returns nil (cursor untouched) when fewer than two quanta certify.
func (q *rrQueue) rotationPattern(vms []*vm.VM, members []int, bound, max int) []PatternPick {
	rotations := max / len(members)
	if bound < rotations {
		rotations = bound
	}
	if rotations*len(members) < 2 {
		return nil
	}
	// The rotation serves the members at or after the start first, then
	// wraps to the ones before it.
	s := q.start(len(vms))
	k := 0
	for k < len(members) && members[k] < s {
		k++
	}
	picks := q.pickBuf[:0]
	for _, i := range members[k:] {
		picks = append(picks, PatternPick{VM: vms[i], Quanta: rotations})
	}
	for _, i := range members[:k] {
		picks = append(picks, PatternPick{VM: vms[i], Quanta: rotations})
	}
	if len(picks) < len(q.pickBuf) {
		clear(q.pickBuf[len(picks):]) // drop stale VM pointers
	}
	q.pickBuf = picks
	if k > 0 {
		q.last = members[k-1]
	} else {
		q.last = members[len(members)-1]
	}
	return picks
}
