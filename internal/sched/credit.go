package sched

import (
	"fmt"

	"pasched/internal/sim"
	"pasched/internal/vm"
)

// DefaultCreditPeriod is the credit accounting period, matching Xen's 30 ms
// accounting interval.
const DefaultCreditPeriod = 30 * sim.Millisecond

// creditState is the per-VM accounting, slice-backed (parallel to vms) so
// the per-quantum Pick/Charge path involves no map operations.
//
// The cap percentage is a float policy input (PAS hands down compensated
// fractional credits); it is converted to an integer-microsecond refill
// exactly once per SetCap, and from there every budget movement is
// integer arithmetic — charges subtract the busy microseconds, refills
// add the precomputed refill — so bulk batched charges and per-quantum
// charges land on bit-identical budgets.
type creditState struct {
	cap    float64 // current cap percentage; 0 = uncapped
	refill int64   // microseconds granted per period, derived from cap
	budget int64   // microseconds left in the current period
	used   int64   // microseconds consumed in the current period
}

// Credit is the Xen Credit scheduler model: proportional share with hard
// caps. With a cap equal to its credit, a VM behaves exactly as the paper's
// "fix credit scheduler": its credit is always guaranteed but never
// exceeded. A VM created with zero credit has no cap and consumes only
// slices no budgeted VM wants (the paper's "null credit" special case).
// Like Xen's, a cap is a hard limit: a capped VM that exhausted its budget
// waits for the next refill even when the processor would otherwise idle.
type Credit struct {
	vms  []*vm.VM
	st   []creditState // parallel to vms
	byID map[vm.ID]int

	rrBudget   rrQueue
	rrUncapped rrQueue
	nextRefill sim.Time
	tracer     Tracer
}

var (
	_ Scheduler   = (*Credit)(nil)
	_ CapSetter   = (*Credit)(nil)
	_ Batcher     = (*Credit)(nil)
	_ TraceSetter = (*Credit)(nil)
	_ Throttler   = (*Credit)(nil)
)

// NewCredit returns a Credit scheduler refilling budgets every
// DefaultCreditPeriod.
func NewCredit() *Credit {
	return &Credit{
		byID:       make(map[vm.ID]int),
		nextRefill: DefaultCreditPeriod,
	}
}

// Name implements Scheduler.
func (c *Credit) Name() string { return "credit" }

// Add implements Scheduler. The VM's cap is initialized to its configured
// credit and its budget to one period's refill.
func (c *Credit) Add(v *vm.VM) error {
	if err := checkAdd(c.byID, v); err != nil {
		return err
	}
	c.byID[v.ID()] = len(c.vms)
	c.vms = append(c.vms, v)
	refill := c.refillMicros(v.Credit())
	c.st = append(c.st, creditState{cap: v.Credit(), refill: refill, budget: refill})
	return nil
}

// Remove implements Scheduler.
func (c *Credit) Remove(id vm.ID) error {
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
func (c *Credit) VMs() []*vm.VM {
	out := make([]*vm.VM, len(c.vms))
	copy(out, c.vms)
	return out
}

// refillMicros converts a cap percentage to one period's budget in
// integer microseconds — the single float-to-integer edge of the credit
// accounting (rounded to the nearest microsecond).
func (c *Credit) refillMicros(capPct float64) int64 {
	return int64(capPct/100*float64(DefaultCreditPeriod) + 0.5)
}

// Pick implements Scheduler. Selection order:
//
//  1. Strict priority tiers, highest first: runnable capped VMs holding
//     budget, round-robin within the tier (Dom0 is served here).
//  2. Uncapped ("null credit") VMs, which absorb idle slack.
//
// One pass ranks both tiers at once, each by cyclic distance from its
// own round-robin cursor.
func (c *Credit) Pick(now sim.Time) *vm.VM {
	n := len(c.vms)
	if n == 0 {
		return nil
	}
	bs, us := c.rrBudget.start(n), c.rrUncapped.start(n)
	best, bestPrio, bestDist := -1, 0, 0
	uncapped, uncappedDist := -1, 0
	for i, v := range c.vms {
		if !v.Runnable() {
			continue
		}
		st := &c.st[i]
		if st.cap <= 0 {
			if d := cyclicDist(i, us, n); uncapped < 0 || d < uncappedDist {
				uncapped, uncappedDist = i, d
			}
			continue
		}
		if st.budget <= 0 {
			continue
		}
		p, d := v.Priority(), cyclicDist(i, bs, n)
		if best < 0 || p > bestPrio || (p == bestPrio && d < bestDist) {
			best, bestPrio, bestDist = i, p, d
		}
	}
	if best >= 0 {
		c.rrBudget.last = best
		return c.vms[best]
	}
	if uncapped >= 0 {
		c.rrUncapped.last = uncapped
		return c.vms[uncapped]
	}
	return nil
}

// Charge implements Scheduler.
func (c *Credit) Charge(v *vm.VM, busy sim.Time, now sim.Time) {
	if v == nil || busy <= 0 {
		return
	}
	idx := IndexOf(c.vms, v)
	if idx < 0 {
		return
	}
	before := c.st[idx].budget
	c.st[idx].budget -= int64(busy)
	c.st[idx].used += int64(busy)
	if c.tracer != nil && c.st[idx].cap > 0 && before > 0 && c.st[idx].budget <= 0 {
		c.tracer.TraceExhausted(now, v)
	}
}

// Tick implements Scheduler: it refills budgets at period boundaries.
// Unused budget does not carry over (a cap is an upper bound per period,
// not a savings account), but an overdraft does — a VM that ran slightly
// past its budget (scheduling is quantized) starts the next period owing
// the difference, exactly like a Xen vCPU going into the OVER state with
// negative credits. The carried debt is bounded to one period's refill.
func (c *Credit) Tick(now sim.Time) {
	for c.nextRefill <= now {
		if c.tracer != nil {
			c.tracer.TraceRefill(c.nextRefill)
		}
		for i := range c.st {
			refill := c.st[i].refill
			b := c.st[i].budget + refill
			if b > refill {
				b = refill
			}
			if b < -refill {
				b = -refill
			}
			c.st[i].budget = b
			c.st[i].used = 0
		}
		c.nextRefill += DefaultCreditPeriod
	}
}

// NextBoundary implements Scheduler: the next budget refill.
func (c *Credit) NextBoundary(sim.Time) sim.Time { return c.nextRefill }

// BatchPick implements Batcher. With v the only runnable VM, Pick keeps
// selecting it while its budget lasts (or forever when it is uncapped);
// the quanta count is floored so a
// batched run never outlasts what quantum-by-quantum picking would grant.
// A capped VM that exhausted its budget idles until the next refill,
// which NextBoundary keeps outside the offered stretch.
func (c *Credit) BatchPick(v *vm.VM, quantum sim.Time, max int, _ sim.Time) (int, bool) {
	if v == nil || max <= 0 || quantum <= 0 || !v.Runnable() {
		return 0, false
	}
	idx := IndexOf(c.vms, v)
	if idx < 0 {
		return 0, false
	}
	if c.st[idx].cap <= 0 {
		c.rrUncapped.last = idx
		return max, false
	}
	if b := c.st[idx].budget; b > 0 {
		n := int(b / int64(quantum))
		if n > max {
			n = max
		}
		if n < 1 {
			return 0, false
		}
		c.rrBudget.last = idx
		return n, false
	}
	return max, true
}

// BatchPattern implements Scheduler. Between credit refills (which
// NextBoundary keeps outside the offered stretch) Pick's selection is a
// strict-priority round-robin whose tier membership only changes when a
// member's budget runs out, so the weighted pattern over a contended host
// is whole rotations of the active tier: every member gets one full
// quantum per rotation, in cyclic order from the tier's cursor. The
// rotation count is bounded so every member stays eligible at each of its
// own picks — budget life ceil(budget/quantum) picks for the budgeted
// tier, unbounded for the uncapped tier — which also keeps the per-VM bulk
// Charge equivalent to the per-quantum charges (Credit's Charge is linear
// in busy time). When every runnable VM is a capped VM with an exhausted
// budget, the whole stretch provably idles.
func (c *Credit) BatchPattern(quota []PatternQuota, quantum sim.Time, max int, _ sim.Time) ([]PatternPick, bool) {
	if quantum <= 0 || max <= 0 {
		return nil, false
	}
	// One pass mirrors Pick's tier selection on the runnable set, which
	// the caller certifies is static across the stretch, and gathers both
	// candidate tiers: their members in ascending order, their tightest
	// quota and, for the highest budgeted tier, its smallest budget.
	budgeted, uncapped := c.rrBudget.members[:0], c.rrUncapped.members[:0]
	bestPrio, budgetedQuota, uncappedQuota := 0, 0, 0
	minBudget := int64(0)
	anyRunnable := false
	quotas := quotaWalk{quota: quota}
	for i, v := range c.vms {
		m := quotas.of(v)
		if !v.Runnable() {
			continue
		}
		anyRunnable = true
		st := &c.st[i]
		if st.cap <= 0 {
			if len(uncapped) == 0 || m < uncappedQuota {
				uncappedQuota = m
			}
			uncapped = append(uncapped, i)
			continue
		}
		if st.budget <= 0 {
			continue
		}
		switch p := v.Priority(); {
		case len(budgeted) == 0 || p > bestPrio:
			budgeted = append(budgeted[:0], i)
			bestPrio, budgetedQuota, minBudget = p, m, st.budget
		case p == bestPrio:
			budgeted = append(budgeted, i)
			budgetedQuota = min(budgetedQuota, m)
			minBudget = min(minBudget, st.budget)
		}
	}
	c.rrBudget.members, c.rrUncapped.members = budgeted, uncapped
	switch {
	case len(budgeted) > 0:
		// A member stays eligible for ceil(budget/quantum) of its own
		// picks; the smallest budget bounds the whole tier.
		life := int(ceilDiv(minBudget, int64(quantum)))
		return c.rrBudget.rotationPattern(c.vms, budgeted, min(budgetedQuota, life), max), false
	case len(uncapped) > 0:
		return c.rrUncapped.rotationPattern(c.vms, uncapped, uncappedQuota, max), false
	case anyRunnable:
		// Every runnable VM is capped with an exhausted budget: Pick
		// returns nil until the refill, which lies beyond the stretch.
		return nil, true
	}
	return nil, false
}

// SetCap implements CapSetter. Raising or lowering a cap mid-period adjusts
// the remaining budget by the pro-rated difference so that the new
// allocation takes effect immediately (the in-scheduler PAS variant relies
// on this reactivity).
func (c *Credit) SetCap(id vm.ID, pct float64) error {
	idx, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	if pct < 0 {
		return fmt.Errorf("sched: negative cap %v for VM %d", pct, id)
	}
	st := &c.st[idx]
	st.cap = pct
	refill := c.refillMicros(pct)
	// Pro-rate the remaining budget by the integer refill difference so
	// the new allocation takes effect immediately and exactly.
	st.budget += refill - st.refill
	st.refill = refill
	return nil
}

// Cap implements CapSetter.
func (c *Credit) Cap(id vm.ID) (float64, error) {
	idx, ok := c.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return c.st[idx].cap, nil
}

// Budget returns the VM's remaining budget in this accounting period, in
// exact microseconds of CPU time. It is exposed for tests and
// introspection.
func (c *Credit) Budget(id vm.ID) (sim.Time, error) {
	idx, ok := c.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return sim.Time(c.st[idx].budget), nil
}

// SetTracer implements TraceSetter.
func (c *Credit) SetTracer(t Tracer) { c.tracer = t }

// Throttled implements Throttler: a capped VM with an exhausted budget
// is barred until the next refill.
func (c *Credit) Throttled(v *vm.VM) bool {
	idx := IndexOf(c.vms, v)
	if idx < 0 {
		return false
	}
	return c.st[idx].cap > 0 && c.st[idx].budget <= 0
}
