package fleet

import (
	"fmt"

	"pasched/internal/energy"
	"pasched/internal/host"
	"pasched/internal/obs"
	"pasched/internal/sched"
	"pasched/internal/serve"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// dataVM is the data-plane half of a placed VM: everything only the
// owning shard touches (the simulated guest, its workload, the
// interval-fold cursors). The coordinator builds it at arrival planning
// and hands it to shards inside commands; after the VM departs it
// returns to a pool.
type dataVM struct {
	name   string
	credit float64
	seed   uint64
	phases []workload.Phase
	guest  *vm.VM
	wl     *workload.WebApp
	// serving state (Config.Serving only): the VM's class index into the
	// shard latency histograms, the client-stream seed (assigned in
	// coordinator order like seed above), and the server itself, which
	// migrates with the dataVM.
	class     int32
	serveSeed uint64
	srv       *serve.Server
	// replica stream-splitting (autoscaler-created VMs only): the full
	// parent phase profile the server replays, the share of the arrival
	// indices this member admits, and whether construction fast-forwards
	// past the group's already-served history.
	servePhases []workload.Phase
	share       int32
	shares      int32
	ff          bool
	// prevDemanded/prevAttained are the portions already folded into the
	// owning shard's interval partials.
	prevDemanded sim.Work
	prevAttained sim.Work
	// led is the VM's throttle-attribution ledger (Config.Obs only). It
	// lives in the dataVM so it migrates with the VM; the hosting host
	// accumulates into it via ObserveVM, and the pool reset zeroes it.
	led obs.VMLedger
}

// demanded returns the VM's cumulative demanded work: everything its
// workload has offered so far, served or still queued.
func (d *dataVM) demanded() sim.Work { return d.wl.CompletedWork() + d.wl.Pending() }

// cmdKind enumerates the data-plane commands the coordinator stages on
// the shards.
type cmdKind uint8

const (
	// cmdPowerOn constructs the machine's host on first use, advances it
	// to the command time, and snapshots its energy meter so the powered
	// off stretch is excluded from the fleet total.
	cmdPowerOn cmdKind = iota
	// cmdAddVM builds the workload and guest and attaches them to the
	// (synchronized, powered-on) machine.
	cmdAddVM
	// cmdRemoveVM detaches a departing guest, folds its final SLA deltas
	// into the shard partials, and fills its outcome slot.
	cmdRemoveVM
	// cmdMigrateOut detaches a migrating guest from the source machine.
	// The coordinator flushes it before staging the matching cmdMigrateIn,
	// so the source is done with the dataVM when the destination gets it.
	cmdMigrateOut
	// cmdMigrateIn attaches a fresh guest running the detached dataVM's
	// still-running workload to the destination machine.
	cmdMigrateIn
	// cmdRecordLive fills the outcome slot of a VM still resident at the
	// horizon, without detaching it.
	cmdRecordLive
	// cmdPowerOff marks the machine off after a barrier emptied it.
	cmdPowerOff
	// cmdObsMigMark marks a VM's attribution ledger as migrating at the
	// pre-copy plan instant (Config.Obs only): the host is synced to the
	// command time first, so earlier wait time keeps its original
	// classification.
	cmdObsMigMark
	// cmdResize applies one autoscaler action to a resident VM: a credit
	// cap (or weight) change through the scheduler's resize surface, an
	// overhead-share change, or an arrival-stream share renumbering.
	cmdResize
)

// resize ops carried by cmdResize.
const (
	rzCap uint8 = iota + 1
	rzOverhead
	rzShare
)

// resizeArgs are cmdResize's operands.
type resizeArgs struct {
	op       uint8
	capPct   float64 // rzCap
	permille int64   // rzOverhead
	share    int32   // rzShare
	shares   int32
}

// command is one timestamped data-plane operation. The coordinator
// stages commands in its deterministic control order; each shard
// executes its own strictly in that order, which is what makes the
// simulation independent of shard and worker counts.
type command struct {
	kind cmdKind
	slot int32 // shard-local machine slot
	at   sim.Time
	d    *dataVM
	out  *VMOutcome
	rz   resizeArgs // cmdResize operands
}

// shard owns a round-robin slice of the fleet's machines: global
// machine i lives in shard i % Shards at local slot i / Shards (first
// fit packs low indices, so round robin spreads the active machines
// evenly across shards). The coordinator appends to pending between
// flushes; every other field is touched only by the shard's own task
// inside a flush, except the interval partials, which the coordinator
// reads and resets after a barrier flush.
type shard struct {
	f  *Fleet
	id int

	hosts      []*host.Host // constructed lazily at first power-on
	on         []bool
	prevEnergy []energy.Energy
	nextID     []vm.ID
	resident   [][]*dataVM

	// rng is the shard's private deterministic stream, decorrelated from
	// the workload seeds. It drives the sampled consistency audits below
	// and is the hook for future shard-local stochastic behaviour; it
	// never influences reported values, so results stay bit-identical
	// across shard counts.
	rng *sim.RNG

	// interval partials: the machine -> shard stage of the hierarchical
	// exact reduction. Integer accumulators, so the shard-count-dependent
	// fold order cannot change the fleet sums.
	ivEnergy   energy.Energy
	ivDemanded sim.Work
	ivAttained sim.Work

	// serving partials and counters (Config.Serving only): lat holds the
	// per-class interval latency histograms, merged and reset by the
	// coordinator at barriers exactly like the work partials above; the
	// counters accumulate at VM departure and horizon record and are
	// read by the coordinator only after the final flush.
	lat           []serve.Histogram
	servOffered   int64
	servCompleted int64
	servAbandoned int64
	servRetried   int64
	servInFlight  int64

	// flight-recorder lanes (Config.Obs only): one emitting handle per
	// local slot, created at first power-on and kept across power cycles
	// so a lane's sequence numbers never restart; prevBounds snapshots
	// the engines' boundary-source counters so barriers emit deltas.
	mobs       []*obs.MachineObs
	prevBounds [][boundarySources]int64

	// pending holds the commands staged since the last flush, in
	// coordinator order.
	pending []command
	// err is the shard's first error; a failed shard executes nothing
	// more.
	err error
}

// globalIndex maps a local slot back to the fleet-wide machine index.
func (s *shard) globalIndex(slot int32) int { return int(slot)*len(s.f.shards) + s.id }

// boundarySources is the number of engine boundary-source counters the
// barrier telemetry tracks (obs.BoundarySourceNames).
const boundarySources = len(obs.BoundarySourceNames)

// machineObs returns the slot's flight-recorder lane, creating it on
// first use; nil when observation is disabled.
func (s *shard) machineObs(slot int32) *obs.MachineObs {
	if s.f.rec == nil {
		return nil
	}
	if s.mobs[slot] == nil {
		s.mobs[slot] = obs.NewMachineObs(s.f.rec.Ring(s.id), int32(s.globalIndex(slot)))
	}
	return s.mobs[slot]
}

// run is the shard's task in a flush: it executes the staged commands
// in order, stopping at the first error, and then folds the barrier at
// f.foldAt when the flush carries one.
func (s *shard) run() error {
	for i := 0; i < len(s.pending) && s.err == nil; i++ {
		s.err = s.exec(&s.pending[i])
	}
	clear(s.pending) // drop the dataVM and outcome references
	s.pending = s.pending[:0]
	if s.err == nil && s.f.foldAt >= 0 {
		s.err = s.execBarrier(s.f.foldAt)
	}
	return s.err
}

// exec runs one command.
func (s *shard) exec(c *command) error {
	switch c.kind {
	case cmdPowerOn:
		return s.execPowerOn(c)
	case cmdPowerOff:
		s.on[c.slot] = false
	case cmdAddVM:
		return s.execAddVM(c)
	case cmdRemoveVM:
		return s.execRemoveVM(c)
	case cmdMigrateOut:
		return s.execMigrateOut(c)
	case cmdMigrateIn:
		return s.execMigrateIn(c)
	case cmdRecordLive:
		return s.execRecordLive(c)
	case cmdObsMigMark:
		if err := s.sync(c.slot, c.at); err != nil {
			return err
		}
		c.d.led.Migrating = true
	case cmdResize:
		return s.execResize(c)
	}
	return nil
}

// execResize applies one autoscaler action to a resident VM.
func (s *shard) execResize(c *command) error {
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	d := c.d
	var err error
	switch c.rz.op {
	case rzCap:
		// Keep the booked credit on the dataVM so a later migration
		// re-attaches the guest at its resized cap, not the contract.
		d.credit = c.rz.capPct
		switch sc := s.hosts[c.slot].Scheduler().(type) {
		case sched.CapSetter:
			err = sc.SetCap(d.guest.ID(), c.rz.capPct)
		case weightSetter:
			err = sc.SetWeight(d.guest.ID(), sched.WeightForCredit(c.rz.capPct))
		}
	case rzOverhead:
		if d.srv != nil {
			err = d.srv.SetOverheadPermille(c.rz.permille)
		}
	case rzShare:
		if d.srv != nil {
			err = d.srv.SetShare(int(c.rz.share), int(c.rz.shares))
		}
	default:
		err = fmt.Errorf("unknown op %d", c.rz.op)
	}
	if err != nil {
		return fmt.Errorf("fleet: resize %s: %w", d.name, err)
	}
	return nil
}

// weightSetter is the resize surface of weight-based schedulers
// (credit2 has no caps; a cap change maps onto its weight, mirroring
// how pas-credit2 books credits as weights).
type weightSetter interface {
	SetWeight(id vm.ID, w int64) error
}

// sync advances one machine's host to the command time. Machines lag
// behind between the events that involve them; syncing lets the host
// batch the whole gap.
func (s *shard) sync(slot int32, at sim.Time) error {
	h := s.hosts[slot]
	if h.Now() >= at {
		return nil
	}
	return h.RunUntil(at)
}

func (s *shard) execPowerOn(c *command) error {
	if s.hosts[c.slot] == nil {
		// Lazy construction: a machine that is never placed on never
		// builds a host at all, which is what keeps million-machine
		// estates affordable. The host starts at time zero either way, so
		// the catch-up below is identical to an eagerly built host's.
		spec := s.f.specs[s.f.classOf[s.globalIndex(c.slot)]]
		h, err := newMachineHost(spec, s.f.cfg, s.machineObs(c.slot))
		if err != nil {
			return fmt.Errorf("fleet: machine %d: %w", s.globalIndex(c.slot), err)
		}
		s.hosts[c.slot] = h
	}
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	s.prevEnergy[c.slot] = s.hosts[c.slot].Energy().Total()
	s.on[c.slot] = true
	return nil
}

func (s *shard) execAddVM(c *command) error {
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	d := c.d
	wl, err := workload.NewWebApp(workload.WebAppConfig{
		Phases:     d.phases,
		MaxBacklog: -1, // unbounded: unserved demand stays visible to the SLA
		Seed:       d.seed,
	})
	if err != nil {
		return fmt.Errorf("fleet: VM %s workload: %w", d.name, err)
	}
	if s.f.cfg.Serving.Enabled {
		sc := &s.f.cfg.Serving
		phases := d.phases
		if d.servePhases != nil {
			// Autoscaled replica: replay the parent's full stream (same
			// seed) and admit only this member's share of it.
			phases = d.servePhases
		}
		srv, err := serve.New(serve.Config{
			Slots:            sc.Slots,
			RequestCost:      sc.RequestCost,
			Phases:           phases,
			Seed:             d.serveSeed,
			Start:            c.at,
			OverheadPermille: sc.OverheadPermille,
			ClosedLoop:       sc.ClosedLoop,
			Clients:          sc.Clients,
			ThinkTime:        sc.ThinkTime,
			AbandonAfter:     sc.AbandonAfter,
			RetryMax:         sc.RetryMax,
			Share:            int(d.share),
			Shares:           int(d.shares),
			FastForward:      d.ff,
		})
		if err != nil {
			return fmt.Errorf("fleet: VM %s serving: %w", d.name, err)
		}
		d.srv = srv
	}
	guest, err := vm.New(s.nextID[c.slot], vm.Config{Name: d.name, Credit: d.credit})
	if err != nil {
		return fmt.Errorf("fleet: VM %s: %w", d.name, err)
	}
	s.nextID[c.slot]++
	guest.SetWorkload(wl)
	if err := s.hosts[c.slot].AddVM(guest); err != nil {
		return fmt.Errorf("fleet: VM %s on machine %d: %w", d.name, s.globalIndex(c.slot), err)
	}
	d.guest, d.wl = guest, wl
	s.resident[c.slot] = append(s.resident[c.slot], d)
	if s.f.rec != nil {
		return s.observe(c.slot, d)
	}
	return nil
}

// observe opens a ledger residency segment at the host clock and
// registers the ledger with the host, which accumulates attribution into
// it quantum-exactly until the VM detaches.
func (s *shard) observe(slot int32, d *dataVM) error {
	h := s.hosts[slot]
	d.led.Attach(h.Now())
	if err := h.ObserveVM(d.guest.ID(), &d.led); err != nil {
		return fmt.Errorf("fleet: observe %s: %w", d.name, err)
	}
	return nil
}

// detach removes the dataVM from the machine's resident list and its
// guest from the host.
func (s *shard) detach(slot int32, d *dataVM, op string) error {
	if err := s.hosts[slot].RemoveVM(d.guest.ID()); err != nil {
		return fmt.Errorf("fleet: %s %s: %w", op, d.name, err)
	}
	res := s.resident[slot]
	for i, r := range res {
		if r == d {
			res[i] = res[len(res)-1]
			res[len(res)-1] = nil
			s.resident[slot] = res[:len(res)-1]
			break
		}
	}
	return nil
}

// fold ticks the VM's workload up to its host's clock and folds the
// demanded/attained deltas into the shard partials, returning the
// cumulative tallies. Batched host stretches skip workload ticks (the
// batching certification proves nothing arrives inside them), so
// ticking here is idempotent and keeps batched and reference runs
// reporting identical demand.
func (s *shard) fold(slot int32, d *dataVM) (demanded, attained sim.Work) {
	d.wl.Tick(s.hosts[slot].Now())
	dem, att := d.demanded(), d.wl.CompletedWork()
	if d.srv != nil {
		// The server advances on the interval's exact attained-work
		// ledger. Folds happen at the same (VM, time) points for every
		// shard and worker count — barriers and departures, dispatched at
		// coordinator times — so the served latencies are
		// sharding-invariant too.
		d.srv.Advance(s.hosts[slot].Now(), att-d.prevAttained, &s.lat[d.class])
	}
	s.ivDemanded += dem - d.prevDemanded
	s.ivAttained += att - d.prevAttained
	d.prevDemanded, d.prevAttained = dem, att
	return dem, att
}

func (s *shard) execRemoveVM(c *command) error {
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	d := c.d
	if err := s.detach(c.slot, d, "depart"); err != nil {
		return err
	}
	dem, att := s.fold(c.slot, d)
	c.out.DemandedWork = dem.Units()
	c.out.AttainedWork = att.Units()
	c.out.SLA = slaOf(att, dem)
	s.takeServing(d, c.out, false)
	if err := s.takeLedger(c.slot, d, c.out); err != nil {
		return err
	}
	s.f.putDataVM(d)
	return nil
}

// takeLedger closes the VM's ledger residency at the host clock, checks
// the conservation invariant (every residency microsecond in exactly one
// bucket), and moves the buckets into the outcome slot.
func (s *shard) takeLedger(slot int32, d *dataVM, out *VMOutcome) error {
	if s.f.rec == nil {
		return nil
	}
	d.led.Detach(s.hosts[slot].Now())
	if got := d.led.Sum(); got != d.led.SpanUs {
		return fmt.Errorf("fleet: VM %s attribution ledger mismatch: %d us attributed, %d us resident",
			d.name, got, d.led.SpanUs)
	}
	out.LifetimeUs = d.led.SpanUs
	out.RunUs = d.led.RunUs
	out.DownclockedUs = d.led.DownclockedUs
	out.CappedUs = d.led.CappedUs
	out.ContendedUs = d.led.ContendedUs
	out.MigratingUs = d.led.MigratingUs
	out.IdleUs = d.led.IdleUs
	return nil
}

// takeServing moves a VM's serving tallies into its outcome slot and
// the shard counters. A departing VM's unserved requests are abandoned
// (its clients leave with it); a VM recorded live at the horizon keeps
// them in flight.
func (s *shard) takeServing(d *dataVM, out *VMOutcome, live bool) {
	if d.srv == nil {
		return
	}
	off, comp := d.srv.Offered(), d.srv.Completed()
	ab, ret := d.srv.Abandoned(), d.srv.Retried()
	out.ReqOffered = off
	out.ReqCompleted = comp
	if comp > 0 {
		out.ReqMeanMs = float64(d.srv.SumLatencyUs()) / float64(comp) / 1e3
		out.ReqMaxMs = float64(d.srv.MaxLatencyUs()) / 1e3
	}
	s.servOffered += off
	s.servCompleted += comp
	s.servAbandoned += ab
	s.servRetried += ret
	if live {
		s.servInFlight += off - comp - ab - ret
	} else {
		s.servAbandoned += off - comp - ab - ret
	}
}

func (s *shard) execMigrateOut(c *command) error {
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	d := c.d
	if err := s.detach(c.slot, d, "migrate"); err != nil {
		return err
	}
	if s.f.rec != nil {
		// Close the source residency segment at the source clock; the
		// destination reopens it at its own (identically quantum-aligned)
		// clock, so segments concatenate without gap or overlap.
		d.led.Detach(s.hosts[c.slot].Now())
	}
	d.guest = nil
	return nil
}

func (s *shard) execMigrateIn(c *command) error {
	if err := s.sync(c.slot, c.at); err != nil {
		return err
	}
	d := c.d
	guest, err := vm.New(s.nextID[c.slot], vm.Config{Name: d.name, Credit: d.credit})
	if err != nil {
		return fmt.Errorf("fleet: migrate %s: %w", d.name, err)
	}
	s.nextID[c.slot]++
	guest.SetWorkload(d.wl)
	if err := s.hosts[c.slot].AddVM(guest); err != nil {
		return fmt.Errorf("fleet: migrate %s to machine %d: %w", d.name, s.globalIndex(c.slot), err)
	}
	d.guest = guest
	s.resident[c.slot] = append(s.resident[c.slot], d)
	if s.f.rec != nil {
		d.led.Migrating = false
		return s.observe(c.slot, d)
	}
	return nil
}

func (s *shard) execRecordLive(c *command) error {
	d := c.d
	d.wl.Tick(s.hosts[c.slot].Now())
	dem, att := d.demanded(), d.wl.CompletedWork()
	c.out.DemandedWork = dem.Units()
	c.out.AttainedWork = att.Units()
	c.out.SLA = slaOf(att, dem)
	// The final barrier (reportBarrier at the horizon, which precedes
	// every cmdRecordLive) already advanced the server to the horizon,
	// so the counters below are final.
	s.takeServing(d, c.out, true)
	return s.takeLedger(c.slot, d, c.out)
}

// execBarrier catches every powered-on machine of the shard up to t,
// rolls its energy delta and its residents' work deltas into the shard
// partials (exact integers: the machine -> shard reduction), and
// occasionally audits the shard's internal consistency on its private
// random stream.
func (s *shard) execBarrier(t sim.Time) error {
	for slot := range s.hosts {
		if !s.on[slot] {
			continue
		}
		h := s.hosts[slot]
		if h.Now() < t {
			if err := h.RunUntil(t); err != nil {
				return err
			}
		}
		e := h.Energy().Total()
		s.ivEnergy = s.ivEnergy.Add(e.Sub(s.prevEnergy[slot]))
		s.prevEnergy[slot] = e
		for _, d := range s.resident[slot] {
			s.fold(int32(slot), d)
		}
		if s.f.rec != nil {
			s.obsBarrier(int32(slot), t)
		}
	}
	if s.rng.Intn(64) == 0 {
		return s.audit()
	}
	return nil
}

// obsBarrier emits one powered-on machine's barrier telemetry: the
// engine's boundary-source counter deltas (in the fixed
// obs.BoundarySourceNames order, so the lane's sequence is
// sharding-invariant) and each resident serving VM's queue depth.
// Residents were attached in coordinator dispatch order and detach by
// swap-removal — both independent of sharding — so the iteration order
// is too.
func (s *shard) obsBarrier(slot int32, t sim.Time) {
	mo := s.machineObs(slot)
	bs := s.hosts[slot].Engine().BoundarySources()
	for bi, name := range obs.BoundarySourceNames {
		if d := bs[name] - s.prevBounds[slot][bi]; d != 0 {
			mo.Emit(t, obs.KindBoundary, name, d, 0)
			s.prevBounds[slot][bi] += d
		}
	}
	for _, d := range s.resident[slot] {
		if d.srv != nil {
			mo.Emit(t, obs.KindQueueDepth, d.name, int64(d.srv.Queued()), d.srv.Completed())
		}
	}
}

// audit spot-checks shard invariants: powered-off machines host
// nothing, powered-on machines have a constructed host. Sampled (1/64
// of barriers) so million-machine shards pay nothing measurable.
func (s *shard) audit() error {
	for slot := range s.hosts {
		if !s.on[slot] && len(s.resident[slot]) > 0 {
			return fmt.Errorf("fleet: shard %d: machine %d is off with %d resident VMs",
				s.id, s.globalIndex(int32(slot)), len(s.resident[slot]))
		}
		if s.on[slot] && s.hosts[slot] == nil {
			return fmt.Errorf("fleet: shard %d: machine %d is on without a host",
				s.id, s.globalIndex(int32(slot)))
		}
	}
	return nil
}
