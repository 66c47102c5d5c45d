package sched

import (
	"fmt"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// creditSnapshot captures the scheduler-internal state. VMs are shared
// pointers: neither BatchPattern nor Pick/Charge touches workload state
// (the caller performs Consume), so restoring a snapshot replays the exact
// same scheduling decisions on the live VM set.
type creditSnapshot struct {
	vms        []*vm.VM
	st         []creditState
	rrBudget   int
	rrUncapped int
	nextRefill sim.Time
}

func snapshotCredit(c *Credit) creditSnapshot {
	return creditSnapshot{
		vms:        append([]*vm.VM(nil), c.vms...),
		st:         append([]creditState(nil), c.st...),
		rrBudget:   c.rrBudget.last,
		rrUncapped: c.rrUncapped.last,
		nextRefill: c.nextRefill,
	}
}

// restoreCredit builds a fresh scheduler from a snapshot, sharing the VM
// pointers but owning its own state slices.
func restoreCredit(s creditSnapshot) *Credit {
	c := NewCredit()
	c.vms = append(c.vms, s.vms...)
	c.st = append(c.st, s.st...)
	for i, v := range c.vms {
		c.byID[v.ID()] = i
	}
	c.rrBudget.last, c.rrUncapped.last = s.rrBudget, s.rrUncapped
	c.nextRefill = s.nextRefill
	return c
}

func sameCreditState(a creditSnapshot, c *Credit) bool {
	if len(a.vms) != len(c.vms) || a.rrBudget != c.rrBudget.last ||
		a.rrUncapped != c.rrUncapped.last || a.nextRefill != c.nextRefill {
		return false
	}
	for i := range a.vms {
		if a.vms[i] != c.vms[i] || a.st[i] != c.st[i] {
			return false
		}
	}
	return true
}

func samePicks(a, b []PatternPick) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkCreditInvariants asserts the structural invariants random
// lifecycles must never break: registry/slice consistency, refills
// derived from the caps, and budgets never above one period's refill.
func checkCreditInvariants(t *testing.T, c *Credit) {
	t.Helper()
	if len(c.vms) != len(c.st) || len(c.vms) != len(c.byID) {
		t.Fatalf("state skew: %d vms, %d st, %d byID", len(c.vms), len(c.st), len(c.byID))
	}
	for id, i := range c.byID {
		if i < 0 || i >= len(c.vms) || c.vms[i].ID() != id {
			t.Fatalf("byID[%d]=%d does not match slice %v", id, i, c.vms)
		}
	}
	for i, st := range c.st {
		if st.refill != c.refillMicros(st.cap) {
			t.Fatalf("VM %d refill %d for cap %v", c.vms[i].ID(), st.refill, st.cap)
		}
		if st.budget > st.refill {
			t.Fatalf("VM %d budget %d above its refill %d", c.vms[i].ID(), st.budget, st.refill)
		}
	}
}

// creditOffer bounds a batch offer the way the host does: strictly
// before the next refill, so a certified stretch never spans one.
func creditOffer(c *Credit, now sim.Time, want int) int {
	if k := int((c.nextRefill-now+quantum-1)/quantum) - 1; k < want {
		return k
	}
	return want
}

// creditQuota lists the runnable VMs in registration order, as the host
// does, with drawn pick bounds (zero and negative bounds included).
func creditQuota(c *Credit, arg int) []PatternQuota {
	quota := make([]PatternQuota, 0, len(c.vms))
	for j, v := range c.vms {
		if v.Runnable() {
			quota = append(quota, PatternQuota{VM: v, MaxPicks: (arg+j*37)%200 - 2})
		}
	}
	return quota
}

// FuzzCreditLifecycle drives random Add/Remove/pause/SetCap/run/charge/
// batch sequences against Credit — priority tiers, uncapped VMs and
// removals at and below the round-robin cursor included — and checks,
// after every operation, that the scheduler keeps its registry and
// slices consistent, and that Pick, BatchPick and BatchPattern agree with
// the two-pass implementations they replaced (oracle_test.go): the same
// picks and tallies, the same budgets and both cursors, and a decline
// that commits nothing. Certified patterns and batched picks are further
// replayed against quantum-by-quantum reference picking.
func FuzzCreditLifecycle(f *testing.F) {
	f.Add([]byte{0x00, 0x18, 0x00, 0x19, 0x00, 0x1a, 0x03, 0x05, 0x04, 0x30, 0x01, 0x00, 0x03, 0x09})
	f.Add([]byte{0x00, 0x02, 0x00, 0x05, 0x00, 0x65, 0x02, 0x02, 0x03, 0x11, 0x04, 0x7f, 0x05, 0x01})
	f.Add([]byte{0x00, 0xff, 0x00, 0x00, 0x02, 0x06, 0x03, 0x20, 0x04, 0x04, 0x01, 0x01, 0x07, 0x20})
	f.Add([]byte{0x00, 0x4a, 0x00, 0x4d, 0x00, 0x49, 0x04, 0x1b, 0x06, 0x40, 0x04, 0x0b, 0x01, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		c := NewCredit()
		now := sim.Time(0)
		nextID := vm.ID(1)
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], int(ops[k+1])
			switch op % 8 {
			case 0: // add a VM: credit 0 (uncapped) to 100, three tiers
				if len(c.vms) >= 8 {
					break
				}
				v, err := vm.New(nextID, vm.Config{Credit: float64(arg % 101), Priority: arg % 3})
				if err != nil {
					t.Fatal(err)
				}
				nextID++
				if arg%4 != 0 {
					v.SetWorkload(&workload.Hog{})
				}
				if err := c.Add(v); err != nil {
					t.Fatal(err)
				}
			case 1: // remove the cursor's VM, one below it, or any
				if len(c.vms) == 0 {
					break
				}
				var i int
				switch arg % 4 {
				case 0:
					i = c.rrBudget.last
				case 1:
					i = c.rrBudget.last - 1
				case 2:
					i = c.rrUncapped.last
				default:
					i = arg / 4
				}
				if i < 0 || i >= len(c.vms) {
					i = arg % len(c.vms)
				}
				if err := c.Remove(c.vms[i].ID()); err != nil {
					t.Fatal(err)
				}
			case 2: // pause, resume, wake, idle or recap a VM (0 uncaps)
				if len(c.vms) == 0 {
					break
				}
				v := c.vms[arg%len(c.vms)]
				switch {
				case v.Paused():
					v.Resume()
				case arg%4 == 0:
					v.Pause()
				case arg%4 == 1:
					v.SetWorkload(&workload.Hog{})
				case arg%4 == 2:
					if err := c.SetCap(v.ID(), float64(arg/4%6*30)); err != nil {
						t.Fatal(err)
					}
				default:
					v.SetWorkload(nil)
				}
			case 3: // run reference quanta, each pick against the oracle
				for j := 0; j < arg%40; j++ {
					ref := restoreCredit(snapshotCredit(c))
					want := oracleCreditPick(ref)
					v := c.Pick(now)
					if v != want {
						t.Fatalf("Pick = %v, two-pass oracle %v", v, want)
					}
					if !sameCreditState(snapshotCredit(ref), c) {
						t.Fatalf("Pick cursors %d/%d, oracle %d/%d", c.rrBudget.last,
							c.rrUncapped.last, ref.rrBudget.last, ref.rrUncapped.last)
					}
					now += quantum
					if v != nil {
						c.Charge(v, quantum, now)
					}
					c.Tick(now)
				}
			case 4: // BatchPattern against the oracle and reference picking
				max := creditOffer(c, now, 2+arg%128)
				if max < 2 {
					break
				}
				snap := snapshotCredit(c)
				quota := creditQuota(c, arg)
				ref := restoreCredit(snap)
				wantPicks, wantIdle := oracleCreditBatchPattern(ref, quota, quantum, max)
				picks, idle := c.BatchPattern(quota, quantum, max, now)
				if idle != wantIdle || !samePicks(picks, wantPicks) {
					t.Fatalf("BatchPattern = %v, %v; two-pass oracle %v, %v", picks, idle, wantPicks, wantIdle)
				}
				if !sameCreditState(snapshotCredit(ref), c) {
					t.Fatalf("BatchPattern cursors %d/%d, oracle %d/%d", c.rrBudget.last,
						c.rrUncapped.last, ref.rrBudget.last, ref.rrUncapped.last)
				}
				if idle {
					// The reference must idle for the whole stretch.
					step := restoreCredit(snap)
					for j := 0; j < max; j++ {
						if v := step.Pick(now + sim.Time(j)*quantum); v != nil {
							t.Fatalf("reference picked VM %d inside a certified idle stretch", v.ID())
						}
					}
					now += sim.Time(max) * quantum
					c.Tick(now)
					break
				}
				if picks == nil {
					if !sameCreditState(snap, c) {
						t.Fatal("declined pattern committed state")
					}
					break
				}
				total := 0
				for _, p := range picks {
					total += p.Quanta
				}
				if total < 2 || total > max {
					t.Fatalf("pattern covers %d quanta of %d offered", total, max)
				}
				end := now + sim.Time(total)*quantum
				for _, p := range picks {
					c.Charge(p.VM, sim.Time(p.Quanta)*quantum, end)
				}
				step := restoreCredit(snap)
				got := make(map[vm.ID]int)
				for j := 0; j < total; j++ {
					v := step.Pick(now)
					if v == nil {
						t.Fatalf("reference idled inside a certified %d-quanta pattern", total)
					}
					got[v.ID()]++
					now += quantum
					step.Charge(v, quantum, now)
				}
				for _, p := range picks {
					if got[p.VM.ID()] != p.Quanta {
						t.Fatalf("tally mismatch for VM %d: pattern %d reference %d",
							p.VM.ID(), p.Quanta, got[p.VM.ID()])
					}
				}
				if !sameCreditState(snapshotCredit(step), c) {
					t.Fatalf("batched state diverges from reference:\n batched %+v\n reference %+v", c.st, step.st)
				}
				c.Tick(now)
			case 5: // BatchPick for a sole runnable VM
				var sole *vm.VM
				runnable := 0
				for _, v := range c.vms {
					if v.Runnable() {
						sole = v
						runnable++
					}
				}
				max := creditOffer(c, now, 2+arg%128)
				if runnable != 1 || max < 2 {
					break
				}
				snap := snapshotCredit(c)
				ref := restoreCredit(snap)
				wantN, wantIdle := oracleCreditBatchPick(ref, sole, quantum, max)
				n, idle := c.BatchPick(sole, quantum, max, now)
				if n != wantN || idle != wantIdle || !sameCreditState(snapshotCredit(ref), c) {
					t.Fatalf("BatchPick = %d, %v; oracle %d, %v", n, idle, wantN, wantIdle)
				}
				if n == 0 {
					if !sameCreditState(snap, c) {
						t.Fatal("declined BatchPick committed state")
					}
					break
				}
				step := restoreCredit(snap)
				for j := 0; j < n; j++ {
					v := step.Pick(now + sim.Time(j)*quantum)
					if idle && v != nil || !idle && v != sole {
						t.Fatalf("reference pick %d of a certified %d-quanta stretch: %v", j, n, v)
					}
					if v != nil {
						step.Charge(v, quantum, now+sim.Time(j+1)*quantum)
					}
				}
				now += sim.Time(n) * quantum
				if !idle {
					c.Charge(sole, sim.Time(n)*quantum, now)
				}
				if !sameCreditState(snapshotCredit(step), c) {
					t.Fatalf("batched pick diverges from reference:\n batched %+v\n reference %+v", c.st, step.st)
				}
				c.Tick(now)
			case 6: // partial charge (a draining tail quantum)
				if len(c.vms) == 0 {
					break
				}
				c.Charge(c.vms[arg%len(c.vms)], sim.Time(arg)*sim.Microsecond, now)
			case 7: // idle time across refills
				now += sim.Time(arg%64) * quantum
				c.Tick(now)
			}
			checkCreditInvariants(t, c)
		}
	})
}

// TestCreditRemoveBelowCursorSkipsOne pins a known defect the fleet
// goldens depend on: the round-robin cursor is an index that Remove does
// not shift, so removing a VM below it makes the next rotation skip one
// VM. Four capped hogs A-D, two picks, then A leaves: D loses its turn.
func TestCreditRemoveBelowCursorSkipsOne(t *testing.T) {
	s := NewCredit()
	names := map[vm.ID]string{1: "A", 2: "B", 3: "C", 4: "D"}
	for id := vm.ID(1); id <= 4; id++ {
		if err := s.Add(busyVM(t, id, vm.Config{Credit: 25})); err != nil {
			t.Fatal(err)
		}
	}
	var seq []string
	pick := func(now sim.Time) {
		v := s.Pick(now)
		if v == nil {
			t.Fatal("idle pick")
		}
		s.Charge(v, quantum, now+quantum)
		seq = append(seq, names[v.ID()])
	}
	pick(0)
	pick(quantum)
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	for j := 2; j < 5; j++ {
		pick(sim.Time(j) * quantum)
	}
	if got, want := fmt.Sprint(seq), "[B C B C D]"; got != want {
		t.Fatalf("pick sequence %s, want %s", got, want)
	}
}
