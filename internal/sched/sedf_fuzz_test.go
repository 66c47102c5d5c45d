package sched

import (
	"testing"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// sedfSnapshot captures the scheduler-internal state. VMs are shared
// pointers: neither BatchPattern nor Pick/Charge touches workload state
// (the caller performs Consume), so restoring a snapshot replays the
// exact same scheduling decisions on the live VM set.
type sedfSnapshot struct {
	vms     []*vm.VM
	st      []sedfState
	rrExtra int
}

func snapshotSEDF(s *SEDF) sedfSnapshot {
	return sedfSnapshot{
		vms:     append([]*vm.VM(nil), s.vms...),
		st:      append([]sedfState(nil), s.st...),
		rrExtra: s.rrExtra.last,
	}
}

// restoreSEDF builds a fresh scheduler from a snapshot, sharing the VM
// pointers but owning its own state slices.
func restoreSEDF(snap sedfSnapshot, cfg SEDFConfig) *SEDF {
	s := NewSEDF(cfg)
	s.vms = append(s.vms, snap.vms...)
	s.st = append(s.st, snap.st...)
	for i, v := range s.vms {
		s.byID[v.ID()] = i
	}
	s.rrExtra.last = snap.rrExtra
	return s
}

func sameSEDFState(a sedfSnapshot, s *SEDF) bool {
	if len(a.vms) != len(s.vms) || a.rrExtra != s.rrExtra.last {
		return false
	}
	for i := range a.vms {
		if a.vms[i] != s.vms[i] || a.st[i] != s.st[i] {
			return false
		}
	}
	return true
}

// checkSEDFInvariants asserts the structural invariants random lifecycles
// must never break: registry/slice consistency, valid parameters, and
// integer slice accounting that never exceeds one period's grant.
func checkSEDFInvariants(t *testing.T, s *SEDF) {
	t.Helper()
	if len(s.vms) != len(s.st) || len(s.vms) != len(s.byID) {
		t.Fatalf("state skew: %d vms, %d st, %d byID", len(s.vms), len(s.st), len(s.byID))
	}
	for id, i := range s.byID {
		if i < 0 || i >= len(s.vms) || s.vms[i].ID() != id {
			t.Fatalf("byID[%d]=%d does not match slice %v", id, i, s.vms)
		}
	}
	for i, st := range s.st {
		if err := st.params.Validate(); err != nil {
			t.Fatalf("VM %d holds invalid params: %v", s.vms[i].ID(), err)
		}
		if st.deadline <= 0 {
			t.Fatalf("VM %d non-positive deadline %v", s.vms[i].ID(), st.deadline)
		}
		if st.remaining > int64(st.params.Period) {
			t.Fatalf("VM %d remaining %d exceeds period %v", s.vms[i].ID(), st.remaining, st.params.Period)
		}
		if st.extraUsed < 0 {
			t.Fatalf("VM %d negative extratime %v", s.vms[i].ID(), st.extraUsed)
		}
	}
}

// sedfOffer bounds a pattern offer the way the host does: strictly
// before the scheduler's next deadline boundary, so the certified
// stretch can never span a slice replenishment.
func sedfOffer(s *SEDF, now sim.Time, want int) int {
	max := want
	if b := s.NextBoundary(now); b != sim.Never {
		if b <= now {
			return 0
		}
		if k := int((b-now+quantum-1)/quantum) - 1; k < max {
			max = k
		}
	}
	return max
}

// FuzzSEDFLifecycle mirrors FuzzCredit2Lifecycle for the
// integer-microsecond SEDF: random Add/Remove/pause/run/charge/batch
// sequences, checking after every operation that the scheduler never
// panics, keeps its registry and slices consistent, that every reference
// Pick matches the two-pass oracle (oracle_test.go), and — whenever a
// pattern certifies — that the batched tallies, the bulk charges and the
// committed extratime cursor land on bit-identical state as
// quantum-by-quantum reference picking (and that a declined pattern
// commits nothing).
func FuzzSEDFLifecycle(f *testing.F) {
	f.Add([]byte{0x00, 0x18, 0x02, 0x23, 0x04, 0x30, 0x0b, 0x3f})
	f.Add([]byte{0x00, 0x08, 0x00, 0x10, 0x01, 0x05, 0x1c, 0x02, 0x24, 0x18, 0x04})
	f.Add([]byte{0x00, 0xff, 0x00, 0x00, 0x03, 0x20, 0x04, 0x04, 0x01, 0x00, 0x04})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cfg := SEDFConfig{DefaultPeriod: 50 * sim.Millisecond, DefaultExtratime: true}
		s := NewSEDF(cfg)
		now := sim.Time(0)
		nextID := vm.ID(1)
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], int(ops[k+1])
			switch op % 6 {
			case 0: // add a VM with a drawn (slice, period, extratime) triplet
				if len(s.vms) >= 8 {
					break
				}
				v, err := vm.New(nextID, vm.Config{Credit: float64(arg % 101)})
				if err != nil {
					t.Fatal(err)
				}
				nextID++
				if arg%4 != 0 {
					v.SetWorkload(&workload.Hog{})
				}
				if arg%3 == 0 {
					// Explicit params: slice arg% of a 40 ms period,
					// extratime from the low bit.
					p := SEDFParams{
						Slice:     sim.Time(arg%41) * sim.Millisecond,
						Period:    40 * sim.Millisecond,
						Extratime: arg%2 == 0,
					}
					if err := s.AddWithParams(v, p); err != nil {
						t.Fatal(err)
					}
				} else if err := s.Add(v); err != nil {
					t.Fatal(err)
				}
			case 1: // remove a VM
				if len(s.vms) == 0 {
					break
				}
				if err := s.Remove(s.vms[arg%len(s.vms)].ID()); err != nil {
					t.Fatal(err)
				}
			case 2: // flip pause state / wake an idle VM / resize a slice
				if len(s.vms) == 0 {
					break
				}
				v := s.vms[arg%len(s.vms)]
				switch {
				case v.Paused():
					v.Resume()
				case arg%3 == 0:
					v.Pause()
				case arg%3 == 1:
					v.SetWorkload(&workload.Hog{})
				default:
					if err := s.SetCap(v.ID(), float64(arg%120)); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // run reference quanta (deadline rollovers included),
				// each pick against the two-pass oracle
				for j := 0; j < arg%64; j++ {
					ref := restoreSEDF(snapshotSEDF(s), cfg)
					want := oracleSEDFPick(ref)
					v := s.Pick(now)
					if v != want || !sameSEDFState(snapshotSEDF(ref), s) {
						t.Fatalf("Pick = %v (rr %d), two-pass oracle %v (rr %d)",
							v, s.rrExtra.last, want, ref.rrExtra.last)
					}
					now += quantum
					if v != nil {
						s.Charge(v, quantum, now)
					}
					s.Tick(now)
				}
			case 4: // differential: batched pattern vs reference picking
				snap := snapshotSEDF(s)
				quota := make([]PatternQuota, 0, len(s.vms))
				for j, v := range s.vms {
					if !v.Runnable() {
						continue
					}
					quota = append(quota, PatternQuota{VM: v, MaxPicks: (arg + j*37) % 200})
				}
				max := sedfOffer(s, now, 2+arg%128)
				if max < 2 {
					break
				}
				picks, idle := s.BatchPattern(quota, quantum, max, now)
				if idle {
					// Certified idle: the reference must also idle for the
					// whole stretch, and nothing may have been committed.
					ref := restoreSEDF(snap, cfg)
					refNow := now
					for j := 0; j < max; j++ {
						if v := ref.Pick(refNow); v != nil {
							t.Fatalf("reference picked VM %d inside a certified idle stretch", v.ID())
						}
						refNow += quantum
						ref.Tick(refNow)
					}
					if !sameSEDFState(snap, s) {
						t.Fatal("idle certification committed state")
					}
					now += sim.Time(max) * quantum
					s.Tick(now)
					break
				}
				if picks == nil {
					if !sameSEDFState(snap, s) {
						t.Fatal("declined pattern committed state")
					}
					break
				}
				total := 0
				for _, p := range picks {
					if p.VM == nil || p.Quanta <= 0 {
						t.Fatalf("invalid pattern pick %+v", p)
					}
					total += p.Quanta
				}
				if total < 2 || total > max {
					t.Fatalf("pattern covers %d quanta of %d offered", total, max)
				}
				end := now + sim.Time(total)*quantum
				for _, p := range picks {
					s.Charge(p.VM, sim.Time(p.Quanta)*quantum, end)
				}
				ref := restoreSEDF(snap, cfg)
				got := make(map[vm.ID]int)
				refNow := now
				for j := 0; j < total; j++ {
					v := ref.Pick(refNow)
					if v == nil {
						t.Fatalf("reference idled inside a certified %d-quanta pattern", total)
					}
					got[v.ID()]++
					refNow += quantum
					ref.Charge(v, quantum, refNow)
					ref.Tick(refNow)
				}
				for _, p := range picks {
					if got[p.VM.ID()] != p.Quanta {
						t.Fatalf("tally mismatch for VM %d: pattern %d reference %d",
							p.VM.ID(), p.Quanta, got[p.VM.ID()])
					}
					delete(got, p.VM.ID())
				}
				if len(got) != 0 {
					t.Fatalf("reference picked VMs outside the pattern: %v", got)
				}
				if !sameSEDFState(snapshotSEDF(ref), s) {
					t.Fatalf("batched state diverges from reference:\n batched %+v rr=%d\n reference %+v rr=%d",
						s.st, s.rrExtra.last, ref.st, ref.rrExtra.last)
				}
				now = end
				s.Tick(now)
			case 5: // partial charge (a draining tail quantum)
				if len(s.vms) == 0 {
					break
				}
				s.Charge(s.vms[arg%len(s.vms)], sim.Time(arg)*sim.Microsecond, now)
			}
			checkSEDFInvariants(t, s)
		}
	})
}
