package fleet

import (
	"fmt"
	"math"
	"strconv"

	"pasched/internal/autoscale"
	"pasched/internal/obs"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// This file is the fleet side of the elastic loop: at every reporting
// barrier the coordinator observes each live VM (signal build), hands
// the slice to the autoscale controller, and applies the returned
// actions as ordinary data-plane commands at the barrier instant.
//
// Determinism: signals are built from f.order — coordinator insertion
// order, compacted at barriers, identical for every shard and worker
// count — and every read happens after the barrier flush ran every
// staged command, strictly before the first action is staged. The
// applied actions are themselves (time, seq)-ordered commands, so an
// autoscaled report stays bit-exact across shardings.

// autoscaleStep runs one control-loop iteration at barrier time t.
// ivP99Us is the interval latency p99 stashed before the interval
// histogram reset; ivLen is the interval length.
func (f *Fleet) autoscaleStep(t sim.Time, ivP99Us int64, ivLen sim.Time) error {
	sigs := f.autoSigs[:0]
	for _, p := range f.order {
		if p.gone || p.mig != nil || p.d == nil || p.d.srv == nil {
			// Migrating VMs are skipped for the interval: their booking is
			// split across two machines and their ledger is mid-hand-off.
			continue
		}
		d := p.d
		s := autoscale.Signals{
			Name:        p.req.Name,
			IsReplica:   p.parent != nil,
			CapPct:      p.req.CreditPct,
			BaseCapPct:  p.baseCap,
			HeadroomPct: f.states[p.machine].FreeCreditPct,
			Queue:       int64(d.srv.Queued()),
			FleetP99Us:  ivP99Us,
			IntervalUs:  int64(ivLen),
		}
		if p.parent == nil {
			s.Replicas = 1 + len(p.reps)
		}
		if f.rec != nil {
			s.CappedUs = d.led.CappedUs
		}
		sigs = append(sigs, s)
	}
	f.autoSigs = sigs[:0]

	// All signal reads are complete; from here on staged actions may run
	// (a shard that fills up flushes).
	for _, a := range f.auto.Step(t, sigs) {
		p, ok := f.vms[a.VM]
		if !ok || p.gone || p.mig != nil {
			f.asRejected++
			continue
		}
		var err error
		switch a.Kind {
		case autoscale.SetCap:
			err = f.applySetCap(t, p, a.CapPct)
		case autoscale.ScaleOut:
			err = f.scaleOut(t, p)
		case autoscale.ScaleIn:
			err = f.scaleIn(t, p)
		default:
			err = fmt.Errorf("fleet: autoscale policy %s emitted unknown action %d",
				f.auto.Policy().Name(), a.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applySetCap rebooks the VM's credit to want, clamped to the hosting
// machine's free credit, and dispatches the scheduler-side resize.
func (f *Fleet) applySetCap(t sim.Time, p *ctlVM, want float64) error {
	grant := want
	if lim := p.req.CreditPct + f.states[p.machine].FreeCreditPct; grant > lim {
		grant = lim
	}
	if grant < 0 {
		grant = 0
	}
	if grant == p.req.CreditPct {
		f.asRejected++ // headroom clamp left nothing to grant
		return nil
	}
	f.release(p.machine, p.req)
	p.req.CreditPct = grant
	f.reserve(p.machine, p.req)
	f.asResizes++
	if f.cobs != nil {
		f.cobs.Emit(t, obs.KindAutoscale, p.req.Name,
			int64(autoscale.SetCap), int64(math.Round(grant)))
	}
	return f.dispatch(p.machine, command{kind: cmdResize, at: t, d: p.d,
		rz: resizeArgs{op: rzCap, capPct: grant}})
}

// scaleOut adds one serving replica to p's group: a new VM at the
// parent's contracted credit, placed by the fleet's placement policy,
// serving the parent's arrival stream fast-forwarded to t — and the
// whole group's stream repartitioned modulo the new member count at the
// same barrier instant, so every future arrival lands on exactly one
// member.
func (f *Fleet) scaleOut(t sim.Time, p *ctlVM) error {
	if p.parent != nil {
		f.asRejected++ // replicas do not nest
		return nil
	}
	name := p.req.Name + "+" + strconv.Itoa(p.spawned+1)
	if _, exists := f.vms[name]; exists {
		f.asRejected++ // trace VM squats on the replica name
		return nil
	}
	phases := clipPhases(p.d.phases, t)
	if len(phases) == 0 {
		f.asRejected++ // the parent's demand profile is over
		return nil
	}
	req := Request{
		Name:         name,
		CreditPct:    p.baseCap,
		MemoryMB:     p.req.MemoryMB,
		MeanActivity: p.req.MeanActivity,
	}
	idx, ok := f.pidx.place(req, true)
	if !ok {
		f.asRejected++
		if f.cobs != nil {
			f.cobs.Emit(t, obs.KindReject, name, 0, 0)
		}
		return nil
	}
	if err := f.checkPlacement(idx, req, false); err != nil {
		return err
	}
	if err := f.powerOn(idx); err != nil {
		return err
	}
	newShares := 1 + len(p.reps) + 1

	d := f.getDataVM()
	d.name = name
	d.credit = req.CreditPct
	// The replica's CPU workload draws from its own seed lane — the
	// parent's workload seed XOR-folded with the replica ordinal, which
	// cannot collide with the arrival-index lanes — over the parent's
	// remaining demand profile.
	d.seed = p.d.seed ^ (uint64(p.spawned+1) * 0xda942042e4dd58b5)
	d.phases = phases
	d.class = p.d.class
	// The server replays the parent's full arrival stream — same seed,
	// same phases — fast-forwarded past the history the group already
	// served, admitting only its share of the future indices.
	d.serveSeed = p.d.serveSeed
	d.servePhases = p.d.phases
	d.share = int32(newShares - 1)
	d.shares = int32(newShares)
	d.ff = true
	if err := f.dispatch(idx, command{kind: cmdAddVM, at: t, d: d}); err != nil {
		return err
	}
	f.reserve(idx, req)
	f.vmCount[idx]++

	q := f.getCtlVM()
	q.req, q.class, q.machine, q.arrive, q.d = req, p.class, idx, t, d
	q.baseCap = req.CreditPct
	q.parent = p
	f.vms[name] = q
	f.order = append(f.order, q)
	p.reps = append(p.reps, q)
	p.spawned++
	f.asOuts++
	if f.cobs != nil {
		f.cobs.Emit(t, obs.KindAutoscale, p.req.Name,
			int64(autoscale.ScaleOut), int64(p.spawned))
		f.cobs.Emit(t, obs.KindPlace, name, int64(idx), 0)
	}
	// Renumber the pre-existing members against the new modulus; the new
	// replica was constructed with its final share.
	return f.renumberShares(t, p, newShares, 1)
}

// scaleIn retires p's newest replica and repartitions the group's
// stream over the survivors.
func (f *Fleet) scaleIn(t sim.Time, p *ctlVM) error {
	n := len(p.reps)
	if p.parent != nil || n == 0 {
		f.asRejected++
		return nil
	}
	q := p.reps[n-1]
	p.reps[n-1] = nil
	p.reps = p.reps[:n-1]
	if err := f.removeVM(q); err != nil {
		return err
	}
	f.asIns++
	if f.cobs != nil {
		f.cobs.Emit(t, obs.KindAutoscale, p.req.Name,
			int64(autoscale.ScaleIn), int64(n))
	}
	return f.renumberShares(t, p, n, 0)
}

// renumberShares re-keys the group's arrival-stream partition: the
// parent is share 0, replicas 1..shares-1 in p.reps order, skipping the
// trailing skip members (freshly added ones already built with their
// final share).
func (f *Fleet) renumberShares(t sim.Time, p *ctlVM, shares, skip int) error {
	if err := f.dispatch(p.machine, command{kind: cmdResize, at: t, d: p.d,
		rz: resizeArgs{op: rzShare, share: 0, shares: int32(shares)}}); err != nil {
		return err
	}
	for i := 0; i < len(p.reps)-skip; i++ {
		q := p.reps[i]
		if err := f.dispatch(q.machine, command{kind: cmdResize, at: t, d: q.d,
			rz: resizeArgs{op: rzShare, share: int32(i + 1), shares: int32(shares)}}); err != nil {
			return err
		}
	}
	return nil
}

// clipPhases returns the part of a demand profile from t on: earlier
// phases dropped, a straddling phase truncated to start at t. The
// result aliases nothing (phases may be shared across VMs).
func clipPhases(phases []workload.Phase, t sim.Time) []workload.Phase {
	var out []workload.Phase
	for _, ph := range phases {
		if ph.End <= t {
			continue
		}
		if ph.Start < t {
			ph.Start = t
		}
		out = append(out, ph)
	}
	return out
}
