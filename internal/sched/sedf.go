package sched

import (
	"fmt"

	"pasched/internal/sim"
	"pasched/internal/vm"
)

// DefaultSEDFPeriod is the default reservation period for VMs whose SEDF
// parameters are derived from their credit.
const DefaultSEDFPeriod = 100 * sim.Millisecond

// SEDFParams is the per-VM (s, p, b) triplet of the Xen SEDF scheduler
// (Section 3.1): the VM is guaranteed Slice of CPU time in every Period,
// and Extratime marks it eligible for slices other VMs leave unused.
type SEDFParams struct {
	Slice     sim.Time
	Period    sim.Time
	Extratime bool
}

// Validate checks the parameter invariants.
func (p SEDFParams) Validate() error {
	if p.Period <= 0 {
		return fmt.Errorf("sched: sedf period must be positive, got %v", p.Period)
	}
	if p.Slice < 0 || p.Slice > p.Period {
		return fmt.Errorf("sched: sedf slice %v outside [0, period %v]", p.Slice, p.Period)
	}
	return nil
}

// SEDFConfig configures the SEDF scheduler.
type SEDFConfig struct {
	// DefaultPeriod is the period used when deriving parameters from a
	// VM's credit. Zero selects DefaultSEDFPeriod.
	DefaultPeriod sim.Time
	// DefaultExtratime is the extratime flag for derived parameters. The
	// paper uses SEDF as its variable-credit scheduler, i.e. with
	// extratime enabled.
	DefaultExtratime bool
}

// sedfState is the per-VM runtime state: the current deadline and the CPU
// time still owed within the current period. It is slice-backed (parallel
// to vms) so the per-quantum Pick/Charge path involves no map operations.
//
// All accounting is exact integer microseconds, mirroring Credit2's
// rational style (and Xen's own nanosecond accounting): remaining slice
// time only ever has integer charges subtracted from it, so one bulk
// batched Charge of n quanta lands on bit-identical state as n
// per-quantum charges, which is what lets BatchPick/BatchPattern certify
// folds against reference stepping with exact equality.
type sedfState struct {
	params    SEDFParams
	deadline  sim.Time
	remaining int64    // microseconds of slice time still owed this period
	extraUsed sim.Time // CPU time consumed as extratime, cumulative
}

// SEDF is the Xen Simple Earliest Deadline First scheduler model. With the
// extratime flag it is the paper's variable-credit scheduler: each VM's
// credit is guaranteed when it has load, and unused slices are shared among
// extratime-eligible VMs.
type SEDF struct {
	cfg     SEDFConfig
	vms     []*vm.VM
	st      []sedfState // parallel to vms
	byID    map[vm.ID]int
	rrExtra rrQueue
	// Reused per BatchPattern call: the slice-phase candidates and picks.
	cands   []sedfCand
	pickBuf []PatternPick
}

// sedfCand is a runnable VM holding slice time, a slice-phase candidate
// of BatchPattern: its index, deadline and pick quota.
type sedfCand struct {
	idx      int
	deadline sim.Time
	quota    int
}

var (
	_ Scheduler = (*SEDF)(nil)
	_ CapSetter = (*SEDF)(nil)
	_ Batcher   = (*SEDF)(nil)
	_ Throttler = (*SEDF)(nil)
)

// Throttled implements Throttler: a VM whose slice is exhausted and
// that is not extratime-eligible is barred until its deadline rolls.
func (s *SEDF) Throttled(v *vm.VM) bool {
	idx := IndexOf(s.vms, v)
	if idx < 0 {
		return false
	}
	return s.st[idx].remaining <= 0 && !s.st[idx].params.Extratime
}

// NewSEDF returns an SEDF scheduler with the given configuration.
func NewSEDF(cfg SEDFConfig) *SEDF {
	if cfg.DefaultPeriod <= 0 {
		cfg.DefaultPeriod = DefaultSEDFPeriod
	}
	return &SEDF{
		cfg:  cfg,
		byID: make(map[vm.ID]int),
	}
}

// Name implements Scheduler.
func (s *SEDF) Name() string { return "sedf" }

// Add implements Scheduler, deriving (s, p, b) from the VM's credit: a VM
// with credit k% receives a slice of k% of the default period.
func (s *SEDF) Add(v *vm.VM) error {
	if v == nil {
		return fmt.Errorf("sched: add nil VM")
	}
	p := SEDFParams{
		Slice:     sim.Time(v.Credit() / 100 * float64(s.cfg.DefaultPeriod)),
		Period:    s.cfg.DefaultPeriod,
		Extratime: s.cfg.DefaultExtratime,
	}
	return s.AddWithParams(v, p)
}

// AddWithParams registers a VM with an explicit (s, p, b) triplet.
func (s *SEDF) AddWithParams(v *vm.VM, p SEDFParams) error {
	if err := checkAdd(s.byID, v); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	s.byID[v.ID()] = len(s.vms)
	s.vms = append(s.vms, v)
	s.st = append(s.st, sedfState{
		params:    p,
		deadline:  p.Period,
		remaining: int64(p.Slice),
	})
	return nil
}

// Params returns the VM's current SEDF parameters.
func (s *SEDF) Params(id vm.ID) (SEDFParams, error) {
	idx, ok := s.byID[id]
	if !ok {
		return SEDFParams{}, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return s.st[idx].params, nil
}

// Remove implements Scheduler.
func (s *SEDF) Remove(id vm.ID) error {
	idx, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	delete(s.byID, id)
	s.vms = spliceVM(s.vms, idx)
	s.st = spliceState(s.st, idx)
	reindexAfterRemove(s.byID, idx)
	return nil
}

// VMs implements Scheduler.
func (s *SEDF) VMs() []*vm.VM {
	out := make([]*vm.VM, len(s.vms))
	copy(out, s.vms)
	return out
}

// Pick implements Scheduler: earliest-deadline-first among runnable VMs
// that still hold slice time; otherwise round-robin among runnable
// extratime-eligible VMs. One pass ranks both, the extratime VMs by
// cyclic distance from the round-robin cursor.
func (s *SEDF) Pick(_ sim.Time) *vm.VM {
	n := len(s.vms)
	if n == 0 {
		return nil
	}
	es := s.rrExtra.start(n)
	best, extra, extraDist := -1, -1, 0
	var bestDeadline sim.Time
	for i, v := range s.vms {
		if !v.Runnable() {
			continue
		}
		st := &s.st[i]
		if st.remaining > 0 && (best < 0 || st.deadline < bestDeadline) {
			best, bestDeadline = i, st.deadline
		}
		if st.params.Extratime {
			if d := cyclicDist(i, es, n); extra < 0 || d < extraDist {
				extra, extraDist = i, d
			}
		}
	}
	if best >= 0 {
		return s.vms[best]
	}
	// Extratime distribution: the variable-credit behaviour.
	if extra >= 0 {
		s.rrExtra.last = extra
		return s.vms[extra]
	}
	return nil
}

// Charge implements Scheduler.
func (s *SEDF) Charge(v *vm.VM, busy sim.Time, _ sim.Time) {
	if v == nil || busy <= 0 {
		return
	}
	idx := IndexOf(s.vms, v)
	if idx < 0 {
		return
	}
	st := &s.st[idx]
	if st.remaining > 0 {
		st.remaining -= int64(busy)
		return
	}
	st.extraUsed += busy
}

// Tick implements Scheduler: it rolls deadlines forward and replenishes
// slices at each VM's period boundary.
func (s *SEDF) Tick(now sim.Time) {
	for i := range s.st {
		st := &s.st[i]
		for st.deadline <= now {
			st.deadline += st.params.Period
			st.remaining = int64(st.params.Slice)
		}
	}
}

// NextBoundary implements Scheduler: the earliest deadline, where
// a slice replenishment changes who Pick prefers.
func (s *SEDF) NextBoundary(sim.Time) sim.Time {
	next := sim.Never
	for i := range s.st {
		if s.st[i].deadline < next {
			next = s.st[i].deadline
		}
	}
	return next
}

// BatchPick implements Batcher. With v the only runnable VM, EDF keeps
// selecting it while its slice lasts, and afterwards through the
// extratime round-robin; without the extratime flag an exhausted slice
// idles the processor until the next deadline, which NextBoundary keeps
// outside the offered stretch.
func (s *SEDF) BatchPick(v *vm.VM, quantum sim.Time, max int, _ sim.Time) (int, bool) {
	if v == nil || max <= 0 || quantum <= 0 || !v.Runnable() {
		return 0, false
	}
	idx := IndexOf(s.vms, v)
	if idx < 0 {
		return 0, false
	}
	st := &s.st[idx]
	if st.remaining > 0 {
		n := int(st.remaining / int64(quantum))
		if n > max {
			n = max
		}
		if n < 1 {
			return 0, false
		}
		return n, false
	}
	if st.params.Extratime {
		s.rrExtra.last = idx
		return max, false
	}
	return max, true
}

// BatchPattern implements Scheduler. Between deadline boundaries
// (which NextBoundary keeps outside the offered stretch) the EDF order is
// frozen, so a contended stretch is sequential, not interleaved: the
// earliest-deadline VM holding slice time runs until its slice crosses
// zero (ceil(remaining/quantum) picks — the crossing pick still runs a
// full quantum, exactly as the reference does), then the next-earliest,
// and so on. Every certified pick happens with the VM's slice still
// positive, so the per-VM bulk Charge lands in the slice branch exactly
// like the per-quantum charges would. The pattern is cut where a quota
// stops a VM short of exhausting its slice (EDF cannot move past it) and
// never extends into the extratime phase, so no VM is charged across the
// slice/extratime branch switch. When no runnable VM holds slice time the
// pattern is instead whole round-robin rotations over runnable extratime
// VMs (all charges land in the extratime branch), and with no extratime
// VM either, the whole stretch provably idles.
func (s *SEDF) BatchPattern(quota []PatternQuota, quantum sim.Time, max int, _ sim.Time) ([]PatternPick, bool) {
	if quantum <= 0 || max <= 0 {
		return nil, false
	}
	cands := s.cands[:0]
	// The runnable extratime VMs, in ascending order, are the rotation
	// members once no runnable VM holds slice time.
	extra := s.rrExtra.members[:0]
	extraQuota := 0
	anyRunnable := false
	quotas := quotaWalk{quota: quota}
	for i, v := range s.vms {
		m := quotas.of(v)
		if !v.Runnable() {
			continue
		}
		anyRunnable = true
		st := &s.st[i]
		if st.remaining > 0 {
			cands = append(cands, sedfCand{i, st.deadline, m})
		}
		if st.params.Extratime {
			if len(extra) == 0 || m < extraQuota {
				extraQuota = m
			}
			extra = append(extra, i)
		}
	}
	s.rrExtra.members = extra
	s.cands = cands
	if len(cands) > 0 {
		// Insertion sort by deadline: stable, so ties keep registration
		// order, which Pick's strict < scan serves lowest index first.
		for j := 1; j < len(cands); j++ {
			for k := j; k > 0 && cands[k].deadline < cands[k-1].deadline; k-- {
				cands[k], cands[k-1] = cands[k-1], cands[k]
			}
		}
		left := max
		picks := s.pickBuf[:0]
		total := 0
		for _, cd := range cands {
			if left == 0 {
				break
			}
			k := int(ceilDiv(s.st[cd.idx].remaining, int64(quantum)))
			take := min(k, cd.quota, left)
			if take > 0 {
				picks = append(picks, PatternPick{VM: s.vms[cd.idx], Quanta: take})
				total += take
				left -= take
			}
			if take < k {
				break // the VM keeps slice time, so EDF cannot move past it
			}
		}
		if len(picks) < len(s.pickBuf) {
			clear(s.pickBuf[len(picks):]) // drop stale VM pointers
		}
		s.pickBuf = picks
		if total < 2 {
			return nil, false
		}
		return picks, false
	}
	if !anyRunnable {
		return nil, false
	}
	if len(extra) == 0 {
		// Runnable VMs without extratime and without slice time idle the
		// processor until the next deadline, beyond the stretch.
		return nil, true
	}
	// Extratime phase: whole rotations, every member one quantum each.
	return s.rrExtra.rotationPattern(s.vms, extra, extraQuota, max), false
}

// SetCap implements CapSetter by resizing the VM's slice to pct percent of
// its period, which lets PAS-style credit compensation drive SEDF too.
func (s *SEDF) SetCap(id vm.ID, pct float64) error {
	idx, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	if pct < 0 {
		return fmt.Errorf("sched: negative cap %v for VM %d", pct, id)
	}
	if pct > 100 {
		pct = 100 // a slice cannot exceed its period
	}
	st := &s.st[idx]
	old := st.params.Slice
	st.params.Slice = sim.Time(pct / 100 * float64(st.params.Period))
	st.remaining += int64(st.params.Slice - old)
	return nil
}

// Cap implements CapSetter.
func (s *SEDF) Cap(id vm.ID) (float64, error) {
	idx, ok := s.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return float64(s.st[idx].params.Slice) / float64(s.st[idx].params.Period) * 100, nil
}

// ExtratimeUsed returns the cumulative CPU time the VM received beyond its
// guaranteed slices.
func (s *SEDF) ExtratimeUsed(id vm.ID) (sim.Time, error) {
	idx, ok := s.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	return s.st[idx].extraUsed, nil
}
