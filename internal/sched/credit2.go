package sched

import (
	"fmt"
	"math"

	"pasched/internal/sim"
	"pasched/internal/vm"
)

// Credit2 weight bounds. A credit-derived weight below 1 (a credit under
// half a percent) is raised to 1, while an explicit weight above
// credit2MaxWeight is rejected at Add — silently clamping it would distort
// the configured share ratios. The bound keeps every cross-multiplied
// comparison below far from int64 overflow (runtime in microseconds times
// weight must fit; 4096 leaves room for simulations of years).
const (
	credit2MinWeight = 1
	credit2MaxWeight = 1 << 12
)

// WeightForCredit books a contracted credit percentage as a Credit2
// weight: the rounded credit, clamped to the accepted weight range. It is
// how Credit2 weighs a VM without an explicit weight and how a cap resize
// maps onto a Credit2 machine. Contracted credits stay within 100 and
// resized caps within a machine's free credit, so only a credit under half
// a percent, such as a null credit, reaches the clamp (weight 1).
func WeightForCredit(pct float64) int64 {
	w := int64(math.Round(pct))
	if w < credit2MinWeight {
		w = credit2MinWeight
	}
	if w > credit2MaxWeight {
		w = credit2MaxWeight
	}
	return w
}

// Credit2 is a weight-proportional, work-conserving scheduler in the spirit
// of the Xen Credit2 scheduler the paper mentions as a beta (Section 3.1).
// It has no caps: a runnable VM can always consume idle capacity, which
// makes it a variable-credit scheduler in the paper's taxonomy.
//
// The implementation is a virtual-runtime scheduler: each VM accumulates
// runtime scaled by the inverse of its weight and the VM with the smallest
// scaled runtime runs next, which converges to weight-proportional sharing
// under contention.
//
// All accounting is exact: a VM's virtual runtime is the rational
// runtime/weight with integer numerator (microseconds of charged CPU time)
// and denominator (the weight), and every comparison cross-multiplies
// instead of dividing. Exactness is what makes the scheduler certifiable
// for pattern batching — one bulk Charge of n quanta is integer addition,
// so it lands on bit-identical state as n per-quantum charges, and
// BatchPattern can commit the closed-form pick interleaving knowing the
// reference run would reach exactly the same state.
type Credit2 struct {
	vms  []*vm.VM
	st   []credit2State // parallel to vms
	byID map[vm.ID]int

	maxLag sim.Time // wake-up clamp, in scaled (virtual-runtime) microseconds

	// vclock is the virtual runtime of the most recently picked VM, kept
	// as the exact rational vcNum/vcDen (the picked VM's clamped runtime
	// over its weight).
	vcNum int64
	vcDen int64

	patBuf []c2cand // reused per BatchPattern call
}

// credit2State is the per-VM state, slice-backed so the per-quantum
// Pick/Charge path involves no map operations.
type credit2State struct {
	runtime int64 // charged CPU time in microseconds; vruntime = runtime/weight
	weight  int64
}

// lastSelected returns the index of the merge-order-largest selected
// element across the candidates — the v_j(n_j - 1) with the greatest
// virtual time, ties resolved to the larger index (equal virtual times
// merge in ascending index order, so the later index is the later pick).
// It requires at least one candidate with a positive tally.
func lastSelected(cands []c2cand, q int64) int {
	last := -1
	for j := range cands {
		if cands[j].n <= 0 {
			continue
		}
		if last < 0 {
			last = j
			continue
		}
		lj := cands[j].norm + (cands[j].n-1)*q
		ll := cands[last].norm + (cands[last].n-1)*q
		if lj*cands[last].w >= ll*cands[j].w {
			last = j
		}
	}
	return last
}

// c2cand is BatchPattern's per-runnable-VM scratch entry: the clamped
// runtime is staged here and only committed when a pattern certifies.
type c2cand struct {
	idx   int   // index into c.vms
	run   int64 // runtime after the first-pick wake-up clamp
	norm  int64 // run shifted by the common vruntime base (see normalize)
	w     int64
	quota int64 // caller's MaxPicks bound, clamped to the offer
	cut   int64 // norm + quota*q: numerator of the first non-certifiable pick
	n     int64 // certified tally
}

var _ Scheduler = (*Credit2)(nil)

// NewCredit2 returns a Credit2 scheduler.
func NewCredit2() *Credit2 {
	return &Credit2{
		byID:   make(map[vm.ID]int),
		maxLag: DefaultCreditPeriod,
		vcDen:  1,
	}
}

// Name implements Scheduler.
func (c *Credit2) Name() string { return "credit2" }

// credit2Weight derives the integer weight for a VM: its explicit
// weight, otherwise WeightForCredit of its credit. It rejects explicit
// weights the exact-arithmetic comparisons cannot carry.
func credit2Weight(v *vm.VM) (int64, error) {
	w := int64(v.Config().Weight)
	if w == 0 {
		return WeightForCredit(v.Credit()), nil
	}
	if w > credit2MaxWeight {
		return 0, fmt.Errorf("sched: credit2 weight %d for VM %d exceeds %d",
			w, v.ID(), credit2MaxWeight)
	}
	return w, nil
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Add implements Scheduler. The VM's weight derives from its configuration
// (its credit when no explicit weight is set) and its virtual runtime
// starts at the current vclock, so it joins the rotation without a catch-up
// advantage. Weights above credit2MaxWeight are rejected rather than
// silently clamped.
func (c *Credit2) Add(v *vm.VM) error {
	if err := checkAdd(c.byID, v); err != nil {
		return err
	}
	w, err := credit2Weight(v)
	if err != nil {
		return err
	}
	c.byID[v.ID()] = len(c.vms)
	c.vms = append(c.vms, v)
	c.st = append(c.st, credit2State{
		runtime: ceilDiv(c.vcNum*w, c.vcDen),
		weight:  w,
	})
	return nil
}

// Remove implements Scheduler.
func (c *Credit2) Remove(id vm.ID) error {
	idx, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	delete(c.byID, id)
	c.vms = spliceVM(c.vms, idx)
	c.st = spliceState(c.st, idx)
	reindexAfterRemove(c.byID, idx)
	return nil
}

// VMs implements Scheduler.
func (c *Credit2) VMs() []*vm.VM {
	out := make([]*vm.VM, len(c.vms))
	copy(out, c.vms)
	return out
}

// Pick implements Scheduler: the runnable VM with the smallest virtual
// runtime runs, with a wake-up clamp so a long-idle VM cannot monopolize
// the processor while it catches up. Comparisons cross-multiply the
// runtime/weight rationals; ties go to the lowest registration index.
func (c *Credit2) Pick(_ sim.Time) *vm.VM {
	best := -1
	var bestNum, bestDen int64
	// The clamp floor is vclock - maxLag = floorNum/vcDen in virtual time.
	// Runtimes are non-negative, so a non-positive floor clamps nothing.
	floorNum := c.vcNum - int64(c.maxLag)*c.vcDen
	for i, v := range c.vms {
		if !v.Runnable() {
			continue
		}
		st := &c.st[i]
		if floorNum > 0 && st.runtime*c.vcDen < floorNum*st.weight {
			st.runtime = ceilDiv(floorNum*st.weight, c.vcDen)
		}
		if best < 0 || st.runtime*bestDen < bestNum*st.weight {
			best, bestNum, bestDen = i, st.runtime, st.weight
		}
	}
	if best < 0 {
		return nil
	}
	c.vcNum, c.vcDen = bestNum, bestDen
	return c.vms[best]
}

// Charge implements Scheduler. The charge is exact integer accounting:
// runtime accumulates microseconds, so bulk charges and per-quantum
// charges commute bit-for-bit.
func (c *Credit2) Charge(v *vm.VM, busy sim.Time, _ sim.Time) {
	if v == nil || busy <= 0 {
		return
	}
	i := IndexOf(c.vms, v)
	if i < 0 {
		return
	}
	c.st[i].runtime += int64(busy)
}

// Tick implements Scheduler. Credit2 needs no periodic accounting.
func (c *Credit2) Tick(sim.Time) {}

// NextBoundary implements Scheduler: virtual-runtime scheduling has
// no periodic accounting, so no scheduler-internal boundary ever bounds a
// stretch. Pattern expiry — the vruntime crossover at which a quota-bound
// VM would overdraw its pending work — is reported exactly through
// BatchPattern's tallies instead: the certified pattern ends one pick
// before the crossover and the engine records the cut as a
// machine-shortened horizon.
func (c *Credit2) NextBoundary(sim.Time) sim.Time { return sim.Never }

// Weight returns the VM's proportional-share weight.
func (c *Credit2) Weight(id vm.ID) (float64, error) {
	idx, ok := c.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return float64(c.st[idx].weight), nil
}

// SetWeight updates the VM's proportional-share weight at run time. The
// Credit2-based PAS variant calls it when a VM is re-contracted (weights
// are frequency-invariant, so nothing refreshes them at the PAS cadence),
// and the fleet when it resizes a Credit2 VM. The VM's runtime
// is rebased so its virtual runtime (runtime/weight) is preserved across
// the change: the VM neither gains a catch-up advantage nor loses
// already-earned service. Weights above credit2MaxWeight are rejected;
// weights below credit2MinWeight are raised to the minimum, mirroring
// Add.
func (c *Credit2) SetWeight(id vm.ID, w int64) error {
	idx, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	if w > credit2MaxWeight {
		return fmt.Errorf("sched: credit2 weight %d for VM %d exceeds %d", w, id, credit2MaxWeight)
	}
	if w < credit2MinWeight {
		w = credit2MinWeight
	}
	st := &c.st[idx]
	if w == st.weight {
		return nil
	}
	st.runtime = ceilDiv(st.runtime*w, st.weight)
	st.weight = w
	return nil
}

// BatchPattern implements Scheduler. Between wake-ups and lifecycle
// events the runnable set is static and every certified pick consumes one
// full quantum, so the smallest-vruntime interleaving is computable in
// closed form: VM i's k-th pick happens at virtual time
//
//	v_i(k) = (runtime_i + k*q) / weight_i
//
// and the reference pick sequence is exactly the ascending merge of those
// arithmetic progressions (ties by registration index — the same strict
// less-than Pick uses). The per-VM tallies of the first T merged elements
// are therefore computable by counting progression terms under a virtual
// time threshold, without stepping quantum by quantum.
//
// Two boundaries can cut the pattern short of the offer:
//
//   - a quota crossover: the caller bounds VM i to quota_i picks (its
//     pending work), so the pattern must end strictly before v_i(quota_i),
//     the first pick that would overdraw it;
//   - the offer itself (max), in which case the exact T = max prefix is
//     selected around the average-virtual-time estimate.
//
// The wake-up clamp is applied once up front, exactly as the first
// reference Pick would: after that pick the vclock equals the runnable
// minimum and (virtual runtimes never decreasing) the clamp is provably a
// no-op for the rest of the static stretch. On success the clamps, the
// final vclock (the last merged element) and the tallies are committed;
// the caller's one bulk Charge per VM then lands on bit-identical state as
// the per-quantum charges. On decline no state is touched.
func (c *Credit2) BatchPattern(quota []PatternQuota, quantum sim.Time, max int, _ sim.Time) ([]PatternPick, bool) {
	if quantum <= 0 || max <= 0 {
		return nil, false
	}
	q := int64(quantum)
	// Stage the runnable set with the first-pick wake-up clamp applied to
	// scratch copies; nothing is committed unless a pattern certifies.
	cands := c.patBuf[:0]
	floorNum := c.vcNum - int64(c.maxLag)*c.vcDen
	quotas := quotaWalk{quota: quota}
	for i, v := range c.vms {
		qk := int64(quotas.of(v))
		if !v.Runnable() {
			continue
		}
		st := &c.st[i]
		run := st.runtime
		if floorNum > 0 && run*c.vcDen < floorNum*st.weight {
			run = ceilDiv(floorNum*st.weight, c.vcDen)
		}
		if qk > int64(max) {
			qk = int64(max) // tallies can never exceed the offer
		}
		cands = append(cands, c2cand{idx: i, run: run, w: st.weight, quota: qk})
	}
	c.patBuf = cands[:0] // keep the grown buffer for reuse
	if len(cands) == 0 {
		// Credit2 is work-conserving: no runnable VM means the host idles,
		// which it certifies itself; an idle certification here would be
		// wrong for any non-empty runnable set.
		return nil, false
	}
	// Normalize: virtual-time comparisons are shift-invariant, so shift
	// all runtimes by the common base C = min_i floor(runtime_i/weight_i).
	// The runnable set's vruntime spread is bounded (the wake-up clamp
	// below, one quantum's advance above), so normalized numerators stay
	// tiny and every cross product below is overflow-safe.
	base := cands[0].run / cands[0].w
	for _, cd := range cands[1:] {
		if b := cd.run / cd.w; b < base {
			base = b
		}
	}
	for j := range cands {
		cands[j].norm = cands[j].run - base*cands[j].w
	}

	// Quota crossover: find the earliest first-non-certifiable pick
	// (cut_i = v_i(quota_i)) in merge order. The pattern may cover exactly
	// the merged elements strictly before it.
	cut := 0
	for j := range cands {
		cands[j].cut = cands[j].norm + cands[j].quota*q
		// cut_j < cut_cut by cross-multiplication; ties keep the earlier
		// index, matching merge order.
		if j > 0 && cands[j].cut*cands[cut].w < cands[cut].cut*cands[j].w {
			cut = j
		}
	}
	// Count each VM's picks before the crossover: terms k >= 0 with
	// v_j(k) < cut*, plus the boundary term when VM j precedes the
	// crossover VM in merge order (equal virtual time, smaller index).
	cNum, cDen := cands[cut].cut, cands[cut].w
	totalQ := int64(0)
	for j := range cands {
		a := cNum*cands[j].w - cands[j].norm*cDen
		b := q * cDen
		n := int64(0)
		if a > 0 {
			n = ceilDiv(a, b)
		}
		if cands[j].idx < cands[cut].idx && a >= 0 && a%b == 0 {
			n++
		}
		cands[j].n = n
		totalQ += n
	}

	total := totalQ
	if total > int64(max) {
		// The offer is the binding cut: select the exact T = max smallest
		// merged elements. Count terms up to the average-virtual-time
		// estimate theta = (sum runtimes + T*q) / sum weights — within
		// len(cands) of T by construction — then walk the merge boundary
		// element by element to land exactly on T.
		total = int64(max)
		hNum, hDen := total*q, int64(0)
		for _, cd := range cands {
			hNum += cd.norm
			hDen += cd.w
		}
		sum := int64(0)
		for j := range cands {
			a := hNum*cands[j].w - cands[j].norm*hDen
			n := int64(0)
			if a >= 0 {
				n = a/(q*hDen) + 1 // terms with v_j(k) <= theta
			}
			cands[j].n = n
			sum += n
		}
		for sum > total {
			cands[lastSelected(cands, q)].n--
			sum--
		}
		for sum < total {
			// Add the merge-order-smallest unselected element: least
			// virtual time, ties resolved to the smaller index.
			add := -1
			for j := range cands {
				if cands[j].n >= cands[j].quota {
					continue // the T <= totalQ prefix never crosses a quota
				}
				if add < 0 {
					add = j
					continue
				}
				nj := cands[j].norm + cands[j].n*q
				na := cands[add].norm + cands[add].n*q
				if nj*cands[add].w < na*cands[j].w {
					add = j
				}
			}
			if add < 0 {
				return nil, false // defensive: cannot reach T within quotas
			}
			cands[add].n++
			sum++
		}
	}
	if total < 2 {
		return nil, false
	}

	// The last merged element of the pattern is the final reference pick:
	// it defines the committed vclock (its un-normalized virtual time).
	last := lastSelected(cands, q)

	// Commit: wake-up clamps, vclock, and the per-VM tallies. Runtimes are
	// not advanced here — the caller's bulk Charge per VM performs exactly
	// the additions the per-quantum charges would have.
	picks := make([]PatternPick, 0, len(cands))
	for _, cd := range cands {
		c.st[cd.idx].runtime = cd.run
		if cd.n > 0 {
			picks = append(picks, PatternPick{VM: c.vms[cd.idx], Quanta: int(cd.n)})
		}
	}
	c.vcNum = cands[last].run + (cands[last].n-1)*q
	c.vcDen = cands[last].w
	return picks, false
}
