package sched

import (
	"reflect"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// generousQuota grants every registered VM an effectively unbounded
// pattern share, as the host would for VMs with deep backlogs.
func generousQuota(s Scheduler) []PatternQuota {
	var out []PatternQuota
	for _, v := range s.VMs() {
		out = append(out, PatternQuota{VM: v, MaxPicks: 1 << 30})
	}
	return out
}

// refPickIDs drives the scheduler through the reference
// Pick/Charge/Tick cycle for n quanta starting at t0, charging one full
// quantum per pick, and returns the picked VM IDs in order (-1 for idle
// quanta).
func refPickIDs(s Scheduler, t0 sim.Time, n int) []vm.ID {
	ids := make([]vm.ID, 0, n)
	now := t0
	for i := 0; i < n; i++ {
		v := s.Pick(now)
		end := now + quantum
		if v != nil {
			v.Consume(1, end)
			s.Charge(v, quantum, end)
			ids = append(ids, v.ID())
		} else {
			ids = append(ids, -1)
		}
		s.Tick(end)
		now = end
	}
	return ids
}

// applyPattern applies a certified pattern the way the host does: one
// bulk Charge per VM at the pattern's end, no Tick (the caller certifies
// no accounting boundary lies inside). It returns the total quanta.
func applyPattern(s Scheduler, picks []PatternPick, t0 sim.Time) int {
	total := 0
	for _, p := range picks {
		total += p.Quanta
	}
	end := t0 + sim.Time(total)*quantum
	for _, p := range picks {
		p.VM.Consume(sim.Work(p.Quanta), end)
		s.Charge(p.VM, sim.Time(p.Quanta)*quantum, end)
	}
	return total
}

// tallies folds a pick-ID sequence into per-VM counts, ignoring idles.
func tallies(ids []vm.ID) map[vm.ID]int {
	out := make(map[vm.ID]int)
	for _, id := range ids {
		if id >= 0 {
			out[id]++
		}
	}
	return out
}

func patternTallies(picks []PatternPick) map[vm.ID]int {
	out := make(map[vm.ID]int)
	for _, p := range picks {
		out[p.VM.ID()] += p.Quanta
	}
	return out
}

// checkPatternEquivalence builds the scheduler twice, lets one certify a
// pattern of up to max quanta at t0 while the twin steps quantum by
// quantum, and requires (a) identical per-VM tallies over the pattern's
// span and (b) identical pick sequences for tail quanta afterwards — the
// committed cursors and bulk charges must leave the scheduler in exactly
// the state per-quantum picking would have.
func checkPatternEquivalence(t *testing.T, build func(t *testing.T) Scheduler,
	quota func(s Scheduler) []PatternQuota, max, tail int) []PatternPick {
	t.Helper()
	pat := build(t)
	ref := build(t)
	const t0 = sim.Time(0)
	picks, idle := pat.BatchPattern(quota(pat), quantum, max, t0)
	if idle {
		t.Fatalf("unexpected idle certification")
	}
	if picks == nil {
		t.Fatalf("pattern not certified")
	}
	total := applyPattern(pat, picks, t0)
	if total < 2 || total > max {
		t.Fatalf("pattern covers %d quanta of %d offered", total, max)
	}
	refIDs := refPickIDs(ref, t0, total+tail)
	if got, want := patternTallies(picks), tallies(refIDs[:total]); !reflect.DeepEqual(got, want) {
		t.Fatalf("pattern tallies %v, reference %v over %d quanta", got, want, total)
	}
	for _, id := range refIDs[:total] {
		if id < 0 {
			t.Fatalf("reference idled inside the certified pattern span")
		}
	}
	patTail := refPickIDs(pat, t0+sim.Time(total)*quantum, tail)
	if !reflect.DeepEqual(patTail, refIDs[total:]) {
		t.Fatalf("post-pattern picks diverge:\n pattern %v\n reference %v", patTail, refIDs[total:])
	}
	return picks
}

func TestCreditBatchPatternContended(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit()
		for _, cfg := range []struct {
			id     vm.ID
			credit float64
		}{{1, 20}, {2, 30}, {3, 40}} {
			if err := s.Add(busyVM(t, cfg.id, vm.Config{Credit: cfg.credit})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// 27 quanta offered (the refill at 30 stays outside); V20's budget
	// lasts 6 picks, so 6 whole rotations of 3 VMs are certifiable.
	picks := checkPatternEquivalence(t, build, generousQuota, 27, 60)
	if len(picks) != 3 {
		t.Fatalf("rotation over %d VMs, want 3: %v", len(picks), picks)
	}
	for _, p := range picks {
		if p.Quanta != 6 {
			t.Fatalf("want 6 rotations for every member, got %v", picks)
		}
	}
}

func TestCreditBatchPatternPriorityTier(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit()
		if err := s.Add(busyVM(t, 0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []struct {
			id     vm.ID
			credit float64
		}{{1, 20}, {2, 40}} {
			if err := s.Add(busyVM(t, cfg.id, vm.Config{Credit: cfg.credit})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// The strict-priority Dom0 monopolizes the processor while its budget
	// lasts (3 picks); the pattern must cover exactly that tier.
	picks := checkPatternEquivalence(t, build, generousQuota, 27, 60)
	if len(picks) != 1 || picks[0].VM.ID() != 0 || picks[0].Quanta != 3 {
		t.Fatalf("want Dom0 x3, got %v", picks)
	}
}

func TestCreditBatchPatternUncappedRotation(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit()
		for _, id := range []vm.ID{1, 2} {
			if err := s.Add(busyVM(t, id, vm.Config{Credit: 0})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// Null-credit VMs have no budget life: the whole offer batches as
	// whole rotations (floor(25/2) = 12 each).
	picks := checkPatternEquivalence(t, build, generousQuota, 25, 40)
	if len(picks) != 2 || picks[0].Quanta != 12 || picks[1].Quanta != 12 {
		t.Fatalf("want 12 rotations over 2 uncapped VMs, got %v", picks)
	}
}

func TestCreditBatchPatternQuotaBound(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit()
		for _, id := range []vm.ID{1, 2} {
			if err := s.Add(busyVM(t, id, vm.Config{Credit: 40})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	quota := func(s Scheduler) []PatternQuota {
		var out []PatternQuota
		for _, v := range s.VMs() {
			m := 1 << 30
			if v.ID() == 2 {
				m = 4 // the host sees VM 2 nearly drained
			}
			out = append(out, PatternQuota{VM: v, MaxPicks: m})
		}
		return out
	}
	picks := checkPatternEquivalence(t, build, quota, 27, 0)
	for _, p := range picks {
		if p.Quanta != 4 {
			t.Fatalf("quota must bound every rotation, got %v", picks)
		}
	}
}

func TestCreditBatchPatternIdleAndDecline(t *testing.T) {
	s := NewCredit()
	v1 := busyVM(t, 1, vm.Config{Credit: 10})
	v2 := busyVM(t, 2, vm.Config{Credit: 20})
	for _, v := range []*vm.VM{v1, v2} {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust both budgets: runnable but unserviceable VMs idle the
	// processor until the refill.
	s.Charge(v1, 10*sim.Millisecond, 0)
	s.Charge(v2, 10*sim.Millisecond, 0)
	picks, idle := s.BatchPattern(generousQuota(s), quantum, 20, 0)
	if !idle || picks != nil {
		t.Fatalf("want idle certification, got picks=%v idle=%v", picks, idle)
	}
	if got := s.Pick(0); got != nil {
		t.Fatalf("reference would run %v during a certified-idle stretch", got)
	}
	// A one-quantum offer still gets a truthful idle answer (the host
	// only acts on offers of two or more quanta); a non-positive offer
	// declines outright.
	if picks, idle := s.BatchPattern(generousQuota(s), quantum, 1, 0); picks != nil || !idle {
		t.Fatalf("1-quantum offer: got picks=%v idle=%v", picks, idle)
	}
	if picks, idle := s.BatchPattern(generousQuota(s), quantum, 0, 0); picks != nil || idle {
		t.Fatalf("0-quantum offer: got picks=%v idle=%v", picks, idle)
	}
	// Zero quotas (every VM nearly drained) must decline, not idle.
	sd := NewCredit()
	if err := sd.Add(busyVM(t, 3, vm.Config{Credit: 30})); err != nil {
		t.Fatal(err)
	}
	zero := []PatternQuota{{VM: sd.VMs()[0], MaxPicks: 0}}
	if picks, idle := sd.BatchPattern(zero, quantum, 20, 0); picks != nil || idle {
		t.Fatalf("zero quota: got picks=%v idle=%v", picks, idle)
	}
}

func TestSEDFBatchPatternSlicePhase(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewSEDF(SEDFConfig{})
		for _, cfg := range []struct {
			id    vm.ID
			slice sim.Time
		}{{1, 5 * sim.Millisecond}, {2, 10 * sim.Millisecond}} {
			v := busyVM(t, cfg.id, vm.Config{Credit: 50})
			if err := s.AddWithParams(v, SEDFParams{
				Slice: cfg.slice, Period: 100 * sim.Millisecond, Extratime: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// Equal deadlines: registration order breaks the tie, so the frozen
	// EDF pattern is v1 x5 then v2 x10 — and it must stop there rather
	// than extend into the extratime phase (mixing would corrupt the
	// bulk charges).
	picks := checkPatternEquivalence(t, build, generousQuota, 50, 0)
	want := []struct {
		id vm.ID
		q  int
	}{{1, 5}, {2, 10}}
	if len(picks) != len(want) {
		t.Fatalf("want sequential EDF picks %v, got %v", want, picks)
	}
	for i, w := range want {
		if picks[i].VM.ID() != w.id || picks[i].Quanta != w.q {
			t.Fatalf("pick %d: want VM %d x%d, got %v", i, w.id, w.q, picks)
		}
	}
}

func TestSEDFBatchPatternQuotaCutsPrefix(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewSEDF(SEDFConfig{})
		for _, id := range []vm.ID{1, 2} {
			v := busyVM(t, id, vm.Config{Credit: 50})
			if err := s.AddWithParams(v, SEDFParams{
				Slice: 10 * sim.Millisecond, Period: 100 * sim.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	quota := func(s Scheduler) []PatternQuota {
		var out []PatternQuota
		for _, v := range s.VMs() {
			m := 1 << 30
			if v.ID() == 1 {
				m = 3
			}
			out = append(out, PatternQuota{VM: v, MaxPicks: m})
		}
		return out
	}
	// VM 1 is EDF-first but quota-cut before its slice runs out: EDF
	// cannot move past it, so the certified prefix is VM 1's three picks
	// only.
	picks := checkPatternEquivalence(t, build, quota, 50, 0)
	if len(picks) != 1 || picks[0].VM.ID() != 1 || picks[0].Quanta != 3 {
		t.Fatalf("want VM1 x3 prefix, got %v", picks)
	}
}

func TestSEDFBatchPatternExtratimeRotation(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewSEDF(SEDFConfig{})
		for _, id := range []vm.ID{1, 2} {
			v := busyVM(t, id, vm.Config{Credit: 50})
			if err := s.AddWithParams(v, SEDFParams{
				Slice: 0, Period: 100 * sim.Millisecond, Extratime: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// No slice time anywhere: the variable-credit extratime round-robin
	// batches as whole rotations.
	picks := checkPatternEquivalence(t, build, generousQuota, 21, 0)
	if len(picks) != 2 || picks[0].Quanta != 10 || picks[1].Quanta != 10 {
		t.Fatalf("want 10 extratime rotations over 2 VMs, got %v", picks)
	}
}

func TestCredit2BatchPatternContended(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit2()
		for _, cfg := range []struct {
			id     vm.ID
			credit float64
		}{{1, 20}, {2, 30}, {3, 40}} {
			if err := s.Add(busyVM(t, cfg.id, vm.Config{Credit: cfg.credit})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// The closed-form merge must reproduce the weighted 20/30/40
	// interleaving exactly, commit the vclock of the last pick, and leave
	// the tail picks identical to per-quantum stepping.
	picks := checkPatternEquivalence(t, build, generousQuota, 90, 120)
	got := patternTallies(picks)
	// Over 90 quanta the shares track the weights within one rotation.
	for id, weight := range map[vm.ID]float64{1: 20, 2: 30, 3: 40} {
		want := 90 * weight / 90.0
		if diff := float64(got[id]) - want; diff > 2 || diff < -2 {
			t.Fatalf("VM %d tally %d, want ~%.0f: %v", id, got[id], want, got)
		}
	}
}

func TestCredit2BatchPatternEqualWeightsAlternate(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit2()
		for _, id := range []vm.ID{1, 2} {
			if err := s.Add(busyVM(t, id, vm.Config{Weight: 3})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// Equal weights from identical vruntimes alternate strictly, starting
	// at the lower registration index (Pick's strict less-than tie-break).
	picks := checkPatternEquivalence(t, build, generousQuota, 9, 20)
	got := patternTallies(picks)
	if got[1] != 5 || got[2] != 4 {
		t.Fatalf("want 5/4 alternation over 9 quanta, got %v", got)
	}
}

func TestCredit2BatchPatternQuotaCut(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit2()
		for _, id := range []vm.ID{1, 2} {
			if err := s.Add(busyVM(t, id, vm.Config{Weight: 1})); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	quota := func(s Scheduler) []PatternQuota {
		var out []PatternQuota
		for _, v := range s.VMs() {
			m := 1 << 30
			if v.ID() == 2 {
				m = 3 // the host sees VM 2 nearly drained
			}
			out = append(out, PatternQuota{VM: v, MaxPicks: m})
		}
		return out
	}
	// VM 2's fourth pick is the crossover: the pattern must end strictly
	// before it. With equal weights the merge alternates 1,2,1,2,1,2,1 —
	// seven picks, then VM 2 would be picked again.
	picks := checkPatternEquivalence(t, build, quota, 50, 0)
	got := patternTallies(picks)
	if got[1] != 4 || got[2] != 3 {
		t.Fatalf("want the 4/3 prefix before VM 2's quota crossover, got %v", got)
	}
}

func TestCredit2BatchPatternWakeUpClamp(t *testing.T) {
	const warmup = 200
	build := func(t *testing.T) Scheduler {
		s := NewCredit2()
		v1 := busyVM(t, 1, vm.Config{Weight: 1})
		v2 := mustVM(t, 2, vm.Config{Weight: 1}) // idle through the warmup
		if err := s.Add(v1); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(v2); err != nil {
			t.Fatal(err)
		}
		// v1 runs alone and drags the vclock far ahead of v2's frozen
		// vruntime, then v2 wakes: the pattern's first-pick clamp must
		// bound v2's catch-up advantage to maxLag, exactly like Pick's.
		refPickIDs(s, 0, warmup)
		v2.SetWorkload(&workload.Hog{})
		return s
	}
	t0 := sim.Time(warmup) * quantum
	pat := build(t)
	ref := build(t)
	picks, idle := pat.BatchPattern(generousQuota(pat), quantum, 80, t0)
	if idle || picks == nil {
		t.Fatalf("pattern not certified after wake-up: picks=%v idle=%v", picks, idle)
	}
	total := applyPattern(pat, picks, t0)
	refIDs := refPickIDs(ref, t0, total+40)
	if got, want := patternTallies(picks), tallies(refIDs[:total]); !reflect.DeepEqual(got, want) {
		t.Fatalf("wake-up pattern tallies %v, reference %v over %d quanta", got, want, total)
	}
	patTail := refPickIDs(pat, t0+sim.Time(total)*quantum, 40)
	if !reflect.DeepEqual(patTail, refIDs[total:]) {
		t.Fatalf("post-pattern picks diverge after wake-up clamp:\n pattern %v\n reference %v",
			patTail, refIDs[total:])
	}
	// The woken VM catches up maxLag worth of virtual time but no more:
	// its tally leads without monopolizing the span.
	got := patternTallies(picks)
	if got[2] <= got[1] || got[1] == 0 {
		t.Fatalf("want a bounded catch-up lead for the woken VM, got %v", got)
	}
}

func TestCredit2BatchPatternSingleRunnable(t *testing.T) {
	build := func(t *testing.T) Scheduler {
		s := NewCredit2()
		if err := s.Add(busyVM(t, 1, vm.Config{Credit: 20})); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(mustVM(t, 2, vm.Config{Credit: 70})); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Credit2 has no Batcher, so the host routes sole-runnable stretches
	// through BatchPattern too: the merge degenerates to one progression.
	picks := checkPatternEquivalence(t, build, generousQuota, 25, 10)
	if len(picks) != 1 || picks[0].VM.ID() != 1 || picks[0].Quanta != 25 {
		t.Fatalf("want the sole runnable VM x25, got %v", picks)
	}
}

func TestCredit2BatchPatternDecline(t *testing.T) {
	s := NewCredit2()
	v := busyVM(t, 1, vm.Config{Credit: 30})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	// Zero quota (nearly drained), sub-2 offers and empty runnable sets
	// all decline — Credit2 is work-conserving, so it never certifies an
	// idle stretch.
	zero := []PatternQuota{{VM: v, MaxPicks: 0}}
	if picks, idle := s.BatchPattern(zero, quantum, 20, 0); picks != nil || idle {
		t.Fatalf("zero quota: got picks=%v idle=%v", picks, idle)
	}
	if picks, idle := s.BatchPattern(generousQuota(s), quantum, 1, 0); picks != nil || idle {
		t.Fatalf("1-quantum offer: got picks=%v idle=%v", picks, idle)
	}
	if picks, idle := s.BatchPattern(generousQuota(s), quantum, 0, 0); picks != nil || idle {
		t.Fatalf("0-quantum offer: got picks=%v idle=%v", picks, idle)
	}
	v.Pause()
	if picks, idle := s.BatchPattern(nil, quantum, 20, 0); picks != nil || idle {
		t.Fatalf("no runnable VMs: got picks=%v idle=%v", picks, idle)
	}
}

func TestSEDFBatchPatternIdle(t *testing.T) {
	s := NewSEDF(SEDFConfig{})
	v := busyVM(t, 1, vm.Config{Credit: 50})
	if err := s.AddWithParams(v, SEDFParams{
		Slice: 0, Period: 100 * sim.Millisecond, Extratime: false,
	}); err != nil {
		t.Fatal(err)
	}
	picks, idle := s.BatchPattern(generousQuota(s), quantum, 20, 0)
	if !idle || picks != nil {
		t.Fatalf("want idle certification, got picks=%v idle=%v", picks, idle)
	}
	if got := s.Pick(0); got != nil {
		t.Fatalf("reference would run %v during a certified-idle stretch", got)
	}
}
