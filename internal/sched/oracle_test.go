package sched

import (
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// The two-pass round-robin scans the one-pass Pick and BatchPattern
// replaced, kept verbatim as differential oracles: every candidate goes
// through a closure, with a modulo per step of the cyclic scan. The
// oracles drive the same rrQueue cursors as the schedulers they check.

// oracleNext scans candidates round-robin starting after the previously
// served index and returns the index of the first candidate accepted by
// ok, or -1.
func oracleNext(q *rrQueue, n int, ok func(i int) bool) int {
	if n == 0 {
		return -1
	}
	start := q.last + 1
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if ok(i) {
			q.last = i
			return i
		}
	}
	return -1
}

// oracleRotation returns the indices of one full round-robin rotation
// over the candidates accepted by ok, in the order successive oracleNext
// calls would serve them, and commits the cursor past the rotation. It
// returns nil (cursor untouched) when no candidate is accepted.
func oracleRotation(q *rrQueue, n int, ok func(i int) bool) []int {
	if n == 0 {
		return nil
	}
	start := q.last + 1
	var order []int
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if ok(i) {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return nil
	}
	q.last = order[len(order)-1]
	return order
}

// oraclePatternQuotaFor returns the MaxPicks bound the caller supplied
// for v, or 0 when v has no quota entry.
func oraclePatternQuotaFor(quota []PatternQuota, v *vm.VM) int {
	for _, q := range quota {
		if q.VM == v {
			return q.MaxPicks
		}
	}
	return 0
}

// oracleRotationPattern builds a whole-rotations pattern step over the
// VMs accepted by eligible, bounded by each member's quota and, when life
// is non-nil, its pick life.
func oracleRotationPattern(vms []*vm.VM, cursor *rrQueue, quota []PatternQuota,
	max int, eligible func(i int) bool, life func(i int) int) []PatternPick {
	rotations := max
	members := 0
	for i, v := range vms {
		if !eligible(i) {
			continue
		}
		members++
		r := oraclePatternQuotaFor(quota, v)
		if life != nil {
			if k := life(i); k < r {
				r = k
			}
		}
		if r < rotations {
			rotations = r
		}
	}
	if members == 0 {
		return nil
	}
	if r := max / members; r < rotations {
		rotations = r
	}
	if rotations*members < 2 {
		return nil
	}
	var picks []PatternPick
	for _, i := range oracleRotation(cursor, len(vms), eligible) {
		picks = append(picks, PatternPick{VM: vms[i], Quanta: rotations})
	}
	return picks
}

// oracleCreditPick is Credit.Pick as two passes: the highest priority
// tier holding an eligible budgeted VM, then a round-robin scan inside
// it; otherwise a round-robin scan over the uncapped VMs.
func oracleCreditPick(c *Credit) *vm.VM {
	best := -1
	bestPrio := 0
	for i, v := range c.vms {
		if !v.Runnable() {
			continue
		}
		if c.st[i].cap <= 0 || c.st[i].budget <= 0 {
			continue
		}
		if best == -1 || v.Priority() > bestPrio {
			best = i
			bestPrio = v.Priority()
		}
	}
	if best >= 0 {
		i := oracleNext(&c.rrBudget, len(c.vms), func(i int) bool {
			v := c.vms[i]
			return v.Runnable() && v.Priority() == bestPrio &&
				c.st[i].cap > 0 && c.st[i].budget > 0
		})
		if i >= 0 {
			return c.vms[i]
		}
	}
	if i := oracleNext(&c.rrUncapped, len(c.vms), func(i int) bool {
		return c.vms[i].Runnable() && c.st[i].cap <= 0
	}); i >= 0 {
		return c.vms[i]
	}
	return nil
}

// oracleCreditBatchPattern is Credit.BatchPattern as a tier-selection
// pass followed by the closure-driven rotation scans.
func oracleCreditBatchPattern(c *Credit, quota []PatternQuota, quantum sim.Time, max int) ([]PatternPick, bool) {
	if quantum <= 0 || max <= 0 {
		return nil, false
	}
	anyRunnable := false
	anyUncapped := false
	bestPrio := 0
	haveBudgeted := false
	for i, v := range c.vms {
		if !v.Runnable() {
			continue
		}
		anyRunnable = true
		if c.st[i].cap <= 0 {
			anyUncapped = true
			continue
		}
		if c.st[i].budget > 0 && (!haveBudgeted || v.Priority() > bestPrio) {
			bestPrio = v.Priority()
			haveBudgeted = true
		}
	}
	var cursor *rrQueue
	var eligible func(i int) bool
	var life func(i int) int
	switch {
	case haveBudgeted:
		cursor = &c.rrBudget
		eligible = func(i int) bool {
			v := c.vms[i]
			return v.Runnable() && v.Priority() == bestPrio &&
				c.st[i].cap > 0 && c.st[i].budget > 0
		}
		life = func(i int) int {
			return int(ceilDiv(c.st[i].budget, int64(quantum)))
		}
	case anyUncapped:
		cursor = &c.rrUncapped
		eligible = func(i int) bool {
			return c.vms[i].Runnable() && c.st[i].cap <= 0
		}
	case anyRunnable:
		return nil, true
	default:
		return nil, false
	}
	return oracleRotationPattern(c.vms, cursor, quota, max, eligible, life), false
}

// oracleCreditBatchPick is Credit.BatchPick as it stood beside the
// two-pass Pick: the floor of the budget over the quantum bounds a capped
// VM's stretch.
func oracleCreditBatchPick(c *Credit, v *vm.VM, quantum sim.Time, max int) (int, bool) {
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

// oracleSEDFPick is SEDF.Pick as two passes: earliest deadline among the
// VMs holding slice time, then a round-robin scan over the runnable
// extratime VMs.
func oracleSEDFPick(s *SEDF) *vm.VM {
	var best *vm.VM
	var bestDeadline sim.Time
	for i, v := range s.vms {
		if !v.Runnable() {
			continue
		}
		st := &s.st[i]
		if st.remaining <= 0 {
			continue
		}
		if best == nil || st.deadline < bestDeadline {
			best = v
			bestDeadline = st.deadline
		}
	}
	if best != nil {
		return best
	}
	if i := oracleNext(&s.rrExtra, len(s.vms), func(i int) bool {
		return s.vms[i].Runnable() && s.st[i].params.Extratime
	}); i >= 0 {
		return s.vms[i]
	}
	return nil
}
