package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pasched/internal/autoscale"
	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/engine"
	"pasched/internal/host"
	"pasched/internal/obs"
	"pasched/internal/serve"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// MachineClass is one hardware class of the fleet: Count identical
// machines built from the spec (memory size, frequency ladder, power
// curve, Dom0 reserve).
type MachineClass struct {
	// Name identifies the class in reports.
	Name string
	// Count is how many machines of this class the fleet has.
	Count int
	// Spec is the machine hardware, as in the consolidation package.
	Spec consolidation.HostSpec
}

// DefaultEstate splits n machines into the built-in heterogeneous mix
// shared by cmd/pasfleet, examples/fleet and the gated benchmark: half
// desktop-class Optiplex 755s, a third Elite 8300s, the rest big-memory
// Xeon E5-2620 servers (the Table 1 part with the strongest deviation
// from frequency proportionality).
func DefaultEstate(n int) []MachineClass {
	opti := n / 2
	elite := n / 3
	xeon := n - opti - elite
	var out []MachineClass
	if opti > 0 {
		out = append(out, MachineClass{Name: "optiplex-755", Count: opti,
			Spec: consolidation.HostSpec{MemoryMB: 8192, Profile: cpufreq.Optiplex755()}})
	}
	if elite > 0 {
		out = append(out, MachineClass{Name: "elite-8300", Count: elite,
			Spec: consolidation.HostSpec{MemoryMB: 16384, Profile: cpufreq.Elite8300()}})
	}
	if xeon > 0 {
		out = append(out, MachineClass{Name: "xeon-e5-2620", Count: xeon,
			Spec: consolidation.HostSpec{MemoryMB: 24576, Profile: cpufreq.XeonE5_2620()}})
	}
	return out
}

// Config configures a Fleet.
type Config struct {
	// Machines lists the machine classes. Required, at least one machine
	// in total.
	Machines []MachineClass
	// Scheduler selects the per-machine scheduler by name, resolved
	// against the machine builder's registry (host.NewMachine), shared
	// with the consolidation package, the paper experiments and the
	// CLIs — see SchedulerNames for the accepted names and aliases.
	// Empty selects "credit", the fix-credit baseline pinned at the
	// maximum frequency; "pas" is the paper's DVFS with credit
	// compensation.
	Scheduler string
	// Policy decides placement (and consolidation targets). The zero
	// value is first-fit.
	Policy Policy
	// ReportEvery is the reporting barrier interval: all shards
	// synchronize, energy and SLA reduce into one interval sample, and
	// empty machines power off. Default 30 s.
	ReportEvery sim.Time
	// ConsolidateEvery enables periodic consolidation: every interval the
	// fleet tries to empty its least-loaded machine through live
	// migrations chosen by the policy. Zero disables consolidation (empty
	// machines still power off at reporting barriers).
	ConsolidateEvery sim.Time
	// Shards partitions the machines round-robin into independently
	// stepped shards. Each shard executes the commands the sequential
	// coordinator staged on it, in the coordinator's (time, seq) order,
	// and all reductions are exact integers, so the report is
	// bit-identical for every shard count. Zero selects one shard per
	// worker; values above the machine count are clamped to it.
	Shards int
	// Workers bounds how many shards execute their staged commands
	// simultaneously (engine.RunParallel). The simulation result is
	// identical for any worker count. Zero selects GOMAXPROCS; 1 runs
	// every shard on the coordinator's goroutine; negative is rejected.
	Workers int
	// Seed seeds the per-VM workload arrival processes.
	Seed uint64
	// Reference forces every machine onto the reference
	// quantum-by-quantum stepping path (host.Config.Reference), the
	// baseline the batched==reference equivalence tests compare against.
	Reference bool
	// Sinks receive the report stream incrementally: every interval
	// sample, every per-VM outcome, and the final summary, in
	// deterministic order. See Sink.
	Sinks []Sink
	// DiscardReport drops the in-memory interval and per-VM buffers:
	// Run's Report carries only the Summary, and memory stays
	// O(machines + live VMs) instead of O(history) — the mode for
	// million-machine runs combined with streaming Sinks.
	DiscardReport bool
	// Serving enables the request-level serving layer: per-VM client
	// populations, service slots and reply-latency histograms layered
	// on the CPU simulation. See ServingConfig.
	Serving ServingConfig
	// Obs enables the opt-in flight recorder: a deterministic event
	// stream across every layer plus the per-VM throttle-attribution
	// ledger. See ObsConfig.
	Obs ObsConfig
	// Autoscale enables the elastic control loop: a policy-pluggable
	// controller deciding cap/weight resizes and replica scale-out/in at
	// every reporting barrier. Requires Serving.Enabled. See
	// AutoscaleConfig.
	Autoscale AutoscaleConfig
}

// AutoscaleConfig configures the optional autoscaler
// (internal/autoscale). When enabled, the coordinator observes every
// live VM at each reporting barrier — serving queue depth, booked and
// contracted credit, machine credit headroom, the interval reply-latency
// p99, and (with Obs enabled) the ledger's capped time — hands the
// signals to the policy, and applies its resize actions at the barrier
// instant as ordinary data-plane commands. Decisions are a pure
// function of coordinator-ordered state, so an autoscaled report stays
// DeepEqual-bit-exact for every shard and worker count.
type AutoscaleConfig struct {
	// Enabled switches the autoscaler on. Requires Serving.Enabled.
	Enabled bool
	// Policy names the decision policy (internal/autoscale registry:
	// "ditto", "queue", "latency"). Empty selects "ditto" — which
	// requires Obs.Enabled, since it triggers on attributed capped time
	// rather than raw queue depth.
	Policy string
	// Params tunes the policy; zero fields take the documented
	// defaults.
	Params autoscale.Params
}

// ObsConfig configures the optional flight recorder (internal/obs).
// When enabled, every machine host and the coordinator emit decision
// events into per-shard rings, drained and merged into
// (At, Lane, Seq)-sorted windows at reporting barriers; the merged
// stream — and the per-VM integer-microsecond attribution ledgers folded
// into VMOutcome and Summary — are bit-identical for every shard and
// worker count. When disabled, every hook collapses to one nil check:
// the hot path pays zero allocations (benchmark-gated).
type ObsConfig struct {
	// Enabled switches the recorder on.
	Enabled bool
	// Sink, when non-nil, receives every merged event window (e.g. a
	// Perfetto trace writer). Requires Enabled.
	Sink obs.EventSink
	// Buffer retains the merged stream in memory (Fleet.ObsEvents), for
	// tests and small runs. Requires Enabled.
	Buffer bool
}

// ServingConfig configures the optional request-level serving layer
// (internal/serve): every placed VM gets a seeded client population
// generating an open-loop request stream from the VM's demand profile,
// served by per-VM slots whose rate is the VM's *attained* CPU work —
// so credit enforcement and frequency scaling show up as user-visible
// queueing and tail latency. Servers advance at reporting barriers on
// the exact integer attained-work ledger, and latencies reduce
// machine → shard → fleet as fixed-ladder histogram sums, so every
// percentile in the report is bit-identical for any shard and worker
// count.
type ServingConfig struct {
	// Enabled switches the serving layer on.
	Enabled bool
	// Slots is the per-VM concurrent service slot count; zero selects
	// serve.DefaultSlots.
	Slots int
	// RequestCost is the service demand of one request in work units;
	// zero selects workload.DefaultRequestCost /
	// serve.DefaultRequestCostDivisor — a fifth of a demand request, so
	// a healthy VM serves its stream with five-fold headroom and
	// queueing appears exactly when enforcement throttles it.
	RequestCost float64
}

// SchedulerNames renders the scheduler names Config.Scheduler accepts —
// the machine builder's scheduler registry (internal/host), the single
// source of truth shared with every CLI — for usage strings and
// up-front validation.
func SchedulerNames() string { return host.SchedulerNames() }

// ValidScheduler reports whether name is an accepted Config.Scheduler
// value (the empty string selects "credit").
func ValidScheduler(name string) bool {
	_, ok := host.CanonicalScheduler(name)
	return name == "" || ok
}

// withDefaults validates the configuration and fills defaults.
func (cfg Config) withDefaults() (Config, error) {
	total := 0
	for i, mc := range cfg.Machines {
		if mc.Count < 0 {
			return cfg, fmt.Errorf("fleet: machine class %d (%s) has negative count", i, mc.Name)
		}
		if mc.Name == "" {
			return cfg, fmt.Errorf("fleet: machine class %d without a name", i)
		}
		total += mc.Count
	}
	if total < 1 {
		return cfg, fmt.Errorf("fleet: need at least 1 machine, got %d", total)
	}
	if cfg.ReportEvery == 0 {
		cfg.ReportEvery = 30 * sim.Second
	}
	if cfg.ReportEvery <= 0 {
		return cfg, fmt.Errorf("fleet: report interval %v not positive", cfg.ReportEvery)
	}
	if cfg.ConsolidateEvery < 0 {
		return cfg, fmt.Errorf("fleet: consolidation interval %v negative", cfg.ConsolidateEvery)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("fleet: worker count %d negative (0 selects GOMAXPROCS)", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = engine.DefaultWorkers()
	}
	if cfg.Shards < 0 {
		return cfg, fmt.Errorf("fleet: shard count %d negative (0 selects one shard per worker)", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = cfg.Workers
	}
	if cfg.Shards > total {
		cfg.Shards = total
	}
	if !ValidScheduler(cfg.Scheduler) {
		return cfg, fmt.Errorf("fleet: unknown scheduler %q (accepted: %s)", cfg.Scheduler, SchedulerNames())
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "credit"
	} else {
		cfg.Scheduler, _ = host.CanonicalScheduler(cfg.Scheduler)
	}
	if !cfg.Obs.Enabled {
		if cfg.Obs.Sink != nil {
			return cfg, fmt.Errorf("fleet: Obs.Sink set without Obs.Enabled")
		}
		if cfg.Obs.Buffer {
			return cfg, fmt.Errorf("fleet: Obs.Buffer set without Obs.Enabled")
		}
	}
	if cfg.Serving.Enabled {
		if cfg.Serving.Slots == 0 {
			cfg.Serving.Slots = serve.DefaultSlots
		}
		if cfg.Serving.RequestCost == 0 {
			cfg.Serving.RequestCost = workload.DefaultRequestCost / serve.DefaultRequestCostDivisor
		}
		// Probe-validate the resolved serving parameters here, so a bad
		// slot count or cost fails at NewStream instead of mid-run on a shard.
		if _, err := serve.New(serve.Config{
			Slots:       cfg.Serving.Slots,
			RequestCost: cfg.Serving.RequestCost,
		}); err != nil {
			return cfg, fmt.Errorf("fleet: %w", err)
		}
	} else {
		zero := ServingConfig{}
		if cfg.Serving != zero {
			return cfg, fmt.Errorf("fleet: serving options set without Serving.Enabled")
		}
	}
	if cfg.Autoscale.Enabled {
		if !cfg.Serving.Enabled {
			return cfg, fmt.Errorf("fleet: autoscaler requires the serving layer (Serving.Enabled)")
		}
		if cfg.Autoscale.Policy == "" {
			cfg.Autoscale.Policy = "ditto"
		}
		prm, err := cfg.Autoscale.Params.WithDefaults()
		if err != nil {
			return cfg, fmt.Errorf("fleet: %w", err)
		}
		cfg.Autoscale.Params = prm
		pol, err := autoscale.New(cfg.Autoscale.Policy, prm)
		if err != nil {
			return cfg, fmt.Errorf("fleet: %w", err)
		}
		if pol.RequiresObs() && !cfg.Obs.Enabled {
			return cfg, fmt.Errorf("fleet: autoscale policy %q reads the attribution ledger and requires Obs.Enabled",
				cfg.Autoscale.Policy)
		}
	} else if cfg.Autoscale.Policy != "" {
		return cfg, fmt.Errorf("fleet: Autoscale.Policy set without Autoscale.Enabled")
	}
	return cfg, nil
}

// ctlVM is the control-plane half of a placed VM: what the coordinator
// needs for placement, consolidation and lifecycle bookkeeping. The
// data-plane half (guest, workload, fold cursors) lives in dataVM and
// is owned by the hosting machine's shard.
type ctlVM struct {
	req     Request
	class   string
	machine int
	arrive  sim.Time
	mig     *migration // non-nil while migrating away
	gone    bool
	d       *dataVM

	// autoscaler state: baseCap is the contracted (trace class) credit
	// the cap shrinks toward while req.CreditPct tracks the current
	// booking; parent links a replica to its group parent; reps lists a
	// parent's live replicas in share order; spawned counts replicas
	// ever created (the replica seed/name lane, never reused).
	baseCap float64
	parent  *ctlVM
	reps    []*ctlVM
	spawned int
}

// migrationBandwidthMBps is the live-migration pre-copy bandwidth in MB
// per simulated second (a 10 GbE link's practical throughput): a VM's
// migration lasts its memory size divided by it.
const migrationBandwidthMBps = 1000

// migration is one in-flight live migration (pre-copy: the VM keeps
// running on the source; the target holds a reservation).
type migration struct {
	name     string
	from, to int
	done     sim.Time
}

// timedName orders heap entries by (time, name) so every queue pops
// deterministically. The heap is hand-rolled (no container/heap): the
// interface boxing there costs one allocation per push, and departure
// pushes happen for every arrival.
type timedName struct {
	at   sim.Time
	name string
}

type timedHeap []timedName

func (h timedHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].name < h[j].name
}

func (h *timedHeap) push(tn timedName) {
	a := append(*h, tn)
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	*h = a
}

func (h *timedHeap) pop() timedName {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = timedName{}
	a = a[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a.less(r, c) {
			c = r
		}
		if !a.less(c, i) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

func (h timedHeap) top() (sim.Time, bool) {
	if len(h) == 0 {
		return sim.Never, false
	}
	return h[0].at, true
}

// Fleet is the trace-driven heterogeneous datacenter simulator.
//
// It is split into a control plane and a data plane. The control plane
// — placement, consolidation planning, migration and power bookkeeping,
// every decision — runs sequentially on the coordinator (Run's
// goroutine) against pure bookkeeping state that never reads the
// simulated hosts. The data plane — host stepping, guest attach/detach,
// energy and work accounting — runs per shard: the coordinator stages
// timestamped commands on each shard in its deterministic order, and a
// flush executes every shard's commands through engine.RunParallel.
// Work and energy reduce machine -> shard -> fleet as exact integers,
// so the report is bit-identical for every shard and worker count.
type Fleet struct {
	cfg     Config
	nmach   int
	specs   []consolidation.HostSpec // per class, defaults applied
	caps    []float64                // per class: placeable credit capacity (%)
	classOf []int32                  // machine -> class index

	// trace source and its one-event lookahead: the fleet pulls arrivals
	// lazily, checking each event as it surfaces, so a 10M-arrival
	// trace costs one VMEvent of residency, not a materialized slice.
	src     TraceSource
	classes map[string]VMClass
	ev      VMEvent // next arrival, valid while evValid
	evValid bool
	check   eventCheck

	// pidx is the policy's placement index, the fleet's only placement
	// code: arrivals, replicas and consolidation all query it. Every
	// states[i] mutation calls pidx.update(i).
	pidx placeIndex

	// serving reduction state (Serving.Enabled only): the VM-class index
	// the shard histograms are keyed by, the cumulative per-class
	// latency histograms, and the current-interval fleet-wide histogram,
	// both merged from the shard partials at barriers.
	classNames []string
	classIdx   map[string]int32
	latClass   []serve.Histogram
	ivLat      serve.Histogram

	shards []*shard
	// runs holds each shard's run method, built once so a flush
	// allocates nothing; foldAt is the barrier time the current flush
	// folds at, noFold for none.
	runs    []func() error
	foldAt  sim.Time
	running atomic.Bool

	// flight recorder (Obs.Enabled only): the recorder owning the
	// per-shard rings, and the coordinator's own emitting lane.
	rec  *obs.Recorder
	cobs *obs.MachineObs
	// ledger totals accumulated from outcome slots in emission order;
	// exact integers, checked against each other at finalize.
	ledTot [7]int64 // run, downclocked, capped, contended, migrating, idle, span

	// live progress counters, updated at reporting barriers and read by
	// Progress from other goroutines (the pasfleet status heartbeat).
	progSimUs  atomic.Int64
	progEvents atomic.Int64
	progLive   atomic.Int64

	// control-plane per-machine scan state, struct-of-arrays: states is
	// the persistent placement view updated in place (never rebuilt), the
	// int32/bool arrays are what the coordinator scans every barrier.
	states  []machineState
	vmCount []int32
	inbound []int32
	everOn  []bool

	vms     map[string]*ctlVM
	order   []*ctlVM // insertion order; compacted at barriers and on churn
	goneN   int      // departed entries still occupying order
	migs    map[string]*migration
	migQ    timedHeap
	departQ timedHeap // trace departures, popped in (time, name) order

	// autoscaler (Autoscale.Enabled only): the controller wrapping the
	// policy, the reused signal buffer, and the decision counters.
	auto       *autoscale.Controller
	autoSigs   []autoscale.Signals
	asResizes  int64
	asOuts     int64
	asIns      int64
	asRejected int64

	// pools and scratch: the steady-state loop allocates only what must
	// outlive it (workloads, guests, phase slices).
	ctlFree    []*ctlVM
	outFree    []*VMOutcome
	dataPool   sync.Pool
	outPending []*VMOutcome // outcome slots of the current interval
	movingBuf  []*ctlVM
	hiddenBuf  []int
	planBuf    []consMove

	now     sim.Time
	horizon sim.Time
	ran     bool

	// cumulative counters. Energy and work are exact integer sums, so
	// the reduction order across machines, shards and VMs cannot
	// influence the result; float conversion happens only when an
	// Interval or the Summary is emitted.
	arrived, departed, rejected, migrated int
	poweredOn, poweredOff                 int
	energyTotal                           energy.Energy
	demanded, attained                    sim.Work

	// current-interval counters; the exact work/energy accumulators
	// back the float fields of the emitted Interval.
	iv         Interval
	ivEnergy   energy.Energy
	ivDemanded sim.Work
	ivAttained sim.Work
	lastSample sim.Time

	// streaming: every sink sees intervals, outcomes and the summary in
	// deterministic order; the in-memory Report is just the first sink
	// unless DiscardReport drops it.
	sinks []Sink
	rep   *Report

	// running summary aggregates, computed in emission order so they
	// match a post-run pass over the buffered report bit for bit.
	sumDt, sumActive float64
	prevTimeS        float64
	peakActive       int
	nOut             int
	sumVMSLA         float64
	minVMSLA         float64
	below95          int
}

// consMove is one planned consolidation move: the VM, its target, and
// the target's state before the move's trial booking.
type consMove struct {
	p    *ctlVM
	to   int
	prev machineState
}

// NewStream builds a fleet consuming its trace from a streaming source:
// the fleet never holds more than the one-event lookahead, so peak
// memory is O(machines + live VMs) regardless of the arrival count.
// Each event is checked against the TraceSource contract as it is
// pulled, and no two concurrently live VMs may share a name. Machines
// start powered off; hosts are constructed lazily at first power-on, so
// an estate of a million mostly-idle machines costs bookkeeping arrays,
// not a million simulated hosts.
func NewStream(cfg Config, src TraceSource) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("fleet: nil trace source")
	}
	if src.Horizon() <= 0 {
		return nil, fmt.Errorf("fleet: trace horizon %v not positive", src.Horizon())
	}
	classes := src.Classes()
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	total := 0
	for _, mc := range cfg.Machines {
		total += mc.Count
	}
	f := &Fleet{
		cfg:     cfg,
		src:     src,
		classes: classes,
		check:   eventCheck{classes: classes, horizon: src.Horizon()},
		nmach:   total,
		vms:     make(map[string]*ctlVM),
		migs:    make(map[string]*migration),
	}
	f.dataPool.New = func() any { return new(dataVM) }
	f.specs = make([]consolidation.HostSpec, len(cfg.Machines))
	f.caps = make([]float64, len(cfg.Machines))
	for ci := range cfg.Machines {
		mc := &cfg.Machines[ci]
		spec, err := mc.Spec.WithDefaults()
		if err != nil {
			return nil, fmt.Errorf("fleet: machine class %s: %w", mc.Name, err)
		}
		if _, err := spec.Profile.Throughput(spec.Profile.Max()); err != nil {
			return nil, fmt.Errorf("fleet: machine class %s: %w", mc.Name, err)
		}
		// Probe one host per class so construction errors still surface
		// at NewStream time, as they did when every host was built eagerly.
		if _, err := newMachineHost(spec, cfg, nil); err != nil {
			return nil, fmt.Errorf("fleet: machine class %s: %w", mc.Name, err)
		}
		f.specs[ci] = spec
		f.caps[ci] = 100 - spec.Dom0ReservePct
	}
	f.classOf = make([]int32, total)
	i := 0
	for ci, mc := range cfg.Machines {
		for k := 0; k < mc.Count; k++ {
			f.classOf[i] = int32(ci)
			i++
		}
	}
	f.states = make([]machineState, total)
	for i := range f.states {
		ci := f.classOf[i]
		f.states[i] = machineState{
			FreeMemMB:     f.specs[ci].MemoryMB,
			FreeCreditPct: f.caps[ci],
		}
	}
	f.vmCount = make([]int32, total)
	f.inbound = make([]int32, total)
	f.everOn = make([]bool, total)

	if cfg.Serving.Enabled {
		// Sorted class names give every run the same class indexing, so
		// per-class reductions and reports are trace-order-independent.
		f.classNames = make([]string, 0, len(classes))
		for name := range classes {
			f.classNames = append(f.classNames, name)
		}
		sort.Strings(f.classNames)
		f.classIdx = make(map[string]int32, len(f.classNames))
		for ci, name := range f.classNames {
			f.classIdx[name] = int32(ci)
		}
		f.latClass = make([]serve.Histogram, len(f.classNames))
	}

	if cfg.Autoscale.Enabled {
		pol, err := autoscale.New(cfg.Autoscale.Policy, cfg.Autoscale.Params)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err) // unreachable: withDefaults probed
		}
		f.auto = autoscale.NewController(pol)
	}

	ns := cfg.Shards
	if cfg.Obs.Enabled {
		f.rec = obs.NewRecorder(ns, cfg.Obs.Sink, cfg.Obs.Buffer)
		f.cobs = obs.NewMachineObs(f.rec.CoordinatorRing(), obs.LaneCoordinator)
	}
	f.shards = make([]*shard, ns)
	f.runs = make([]func() error, ns)
	for si := 0; si < ns; si++ {
		n := (total - si + ns - 1) / ns // machines with index ≡ si (mod ns)
		s := &shard{
			f:          f,
			id:         si,
			hosts:      make([]*host.Host, n),
			on:         make([]bool, n),
			prevEnergy: make([]energy.Energy, n),
			nextID:     make([]vm.ID, n),
			resident:   make([][]*dataVM, n),
			rng:        sim.NewRNG(cfg.Seed ^ (uint64(si+1) * 0x9e3779b97f4a7c15)),
		}
		if cfg.Serving.Enabled {
			s.lat = make([]serve.Histogram, len(f.classNames))
		}
		if cfg.Obs.Enabled {
			s.mobs = make([]*obs.MachineObs, n)
			s.prevBounds = make([][boundarySources]int64, n)
		}
		for slot := range s.nextID {
			s.nextID[slot] = 1
		}
		f.shards[si] = s
		f.runs[si] = s.run
	}
	profiles := make([]*cpufreq.Profile, len(f.specs))
	for ci, spec := range f.specs {
		profiles[ci] = spec.Profile
	}
	f.pidx = newPlaceIndex(cfg.Policy, f.states, f.classOf, profiles)
	return f, nil
}

// newMachineHost builds one machine host. Fleet machines disable the
// per-host recorder entirely: the fleet reports its own interval curves
// from exact integer accumulators and never reads host series, whose
// per-VM entries would otherwise grow with every VM that ever lived on
// the host — an O(arrivals) term at trace scale. mo is the machine's
// flight-recorder lane; nil disables observation for this host.
func newMachineHost(spec consolidation.HostSpec, cfg Config, mo *obs.MachineObs) (*host.Host, error) {
	return host.NewMachine(cfg.Scheduler, spec.Dom0ReservePct, host.Config{
		Profile:        spec.Profile,
		Reference:      cfg.Reference,
		SampleInterval: -1,
		Obs:            mo,
	})
}

// Machines returns the number of machines.
func (f *Fleet) Machines() int { return f.nmach }

// Shards returns the shard count the fleet partitioned its machines
// into.
func (f *Fleet) Shards() int { return len(f.shards) }

// Now returns the fleet's simulated time. It is owned by the
// coordinator: do not call it from other goroutines while Run executes.
func (f *Fleet) Now() sim.Time { return f.now }

// BatchedQuanta returns the total quanta executed through batched steps
// across every machine, for the equivalence tests' vacuity checks. It
// returns 0 while Run is executing: the engines belong to the shards
// until the run completes.
func (f *Fleet) BatchedQuanta() int64 {
	if f.running.Load() {
		return 0
	}
	var n int64
	for _, s := range f.shards {
		for _, h := range s.hosts {
			if h != nil {
				n += h.Engine().BatchedQuanta()
			}
		}
	}
	return n
}

// Host exposes one machine's simulated host (for tests and metrics).
// It fails while Run is executing — the hosts are owned by the shards —
// and lazily constructs the host of a machine that was never
// powered on, so callers can always inspect a completed run.
func (f *Fleet) Host(i int) (*host.Host, error) {
	if i < 0 || i >= f.nmach {
		return nil, fmt.Errorf("fleet: machine %d out of range", i)
	}
	if f.running.Load() {
		return nil, fmt.Errorf("fleet: machine %d unavailable while Run executes (hosts are owned by the shards)", i)
	}
	s := f.shards[i%len(f.shards)]
	slot := i / len(f.shards)
	if s.hosts[slot] == nil {
		h, err := newMachineHost(f.specs[f.classOf[i]], f.cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d: %w", i, err)
		}
		s.hosts[slot] = h
	}
	return s.hosts[slot], nil
}

// ObsEvents returns the retained merged event stream, nil unless the
// fleet was built with Obs.Enabled and Obs.Buffer. Call it only after
// Run returns.
func (f *Fleet) ObsEvents() []obs.Event {
	if f.rec == nil {
		return nil
	}
	return f.rec.Events()
}

// Progress reports the run's live progress — simulated time reached,
// flight-recorder events drained, and resident VMs — as of the most
// recent reporting barrier. Unlike every other accessor it is safe to
// call from other goroutines while Run executes: it backs the pasfleet
// status heartbeat.
func (f *Fleet) Progress() (simTime sim.Time, events int64, liveVMs int64) {
	return sim.Time(f.progSimUs.Load()), f.progEvents.Load(), f.progLive.Load()
}

// pools ---------------------------------------------------------------

func (f *Fleet) getCtlVM() *ctlVM {
	if n := len(f.ctlFree); n > 0 {
		p := f.ctlFree[n-1]
		f.ctlFree[n-1] = nil
		f.ctlFree = f.ctlFree[:n-1]
		return p
	}
	return &ctlVM{}
}

// poolCap bounds the coordinator free lists: a departure burst can park
// tens of thousands of recycled slots at once, and an uncapped list
// would pin that high-water mark for the rest of the run. Beyond the
// cap, slots fall to the garbage collector.
const poolCap = 8192

func (f *Fleet) putCtlVM(p *ctlVM) {
	if len(f.ctlFree) >= poolCap {
		return
	}
	*p = ctlVM{}
	f.ctlFree = append(f.ctlFree, p)
}

func (f *Fleet) getOutcome() *VMOutcome {
	if n := len(f.outFree); n > 0 {
		o := f.outFree[n-1]
		f.outFree[n-1] = nil
		f.outFree = f.outFree[:n-1]
		*o = VMOutcome{}
		return o
	}
	return &VMOutcome{}
}

// getDataVM and putDataVM go through a sync.Pool: dataVMs are created
// by the coordinator and freed by whichever shard executes the depart.
func (f *Fleet) getDataVM() *dataVM { return f.dataPool.Get().(*dataVM) }

func (f *Fleet) putDataVM(d *dataVM) {
	*d = dataVM{}
	f.dataPool.Put(d)
}

// bookkeeping helpers -------------------------------------------------

// reserve books a request's resources on a machine in the persistent
// placement view; release is its inverse.
func (f *Fleet) reserve(i int, r Request) {
	st := &f.states[i]
	st.FreeMemMB -= r.MemoryMB
	st.FreeCreditPct -= r.CreditPct
	st.OfferedLoadPct += r.CreditPct * r.MeanActivity
	f.pidx.update(i)
}

func (f *Fleet) release(i int, r Request) {
	st := &f.states[i]
	st.FreeMemMB += r.MemoryMB
	st.FreeCreditPct += r.CreditPct
	st.OfferedLoadPct -= r.CreditPct * r.MeanActivity
	f.pidx.update(i)
}

// dispatch stages one data-plane command on the owning shard. Each
// shard executes its staged commands in the coordinator's (time, seq)
// order at the next flush.
func (f *Fleet) dispatch(machine int, c command) error {
	s := f.shards[machine%len(f.shards)]
	c.slot = int32(machine / len(f.shards))
	s.pending = append(s.pending, c)
	if len(s.pending) >= stageFlushLen {
		return f.flush(noFold)
	}
	return nil
}

// stageFlushLen bounds a shard's staged commands, so a long reporting
// interval cannot hold every arrival's dataVM until the barrier.
const stageFlushLen = 256

// noFold is flush's foldAt for a flush without a barrier fold.
const noFold sim.Time = -1

// flush runs every shard's staged commands, one engine.RunParallel task
// per shard, each followed by the shard's barrier fold at foldAt when
// foldAt >= 0. Shards share no mutable state and never wait on each
// other, so any worker count yields the same state; the error is the
// first in shard order.
func (f *Fleet) flush(foldAt sim.Time) error {
	f.foldAt = foldAt
	return engine.RunParallel(f.cfg.Workers, f.runs)
}

// barrier synchronizes every shard to t and reduces the shard interval
// partials into the fleet accumulators (the shard -> fleet stage of the
// hierarchical exact reduction).
func (f *Fleet) barrier(t sim.Time) error {
	if err := f.flush(t); err != nil {
		return err
	}
	for _, s := range f.shards {
		f.ivEnergy = f.ivEnergy.Add(s.ivEnergy)
		f.ivDemanded += s.ivDemanded
		f.ivAttained += s.ivAttained
		s.ivEnergy = energy.Energy{}
		s.ivDemanded, s.ivAttained = 0, 0
		// Latency partials merge by elementwise sum — commutative and
		// associative — so the shard iteration order cannot influence
		// the merged histograms.
		for ci := range s.lat {
			if s.lat[ci].Count() == 0 {
				continue
			}
			f.ivLat.Merge(&s.lat[ci])
			f.latClass[ci].Merge(&s.lat[ci])
			s.lat[ci].Reset()
		}
	}
	return nil
}

// Run advances the fleet from time zero to the horizon, consuming the
// trace, and returns the cluster-level report. The fleet is single-shot:
// a second Run returns an error.
//
// The loop is event-driven: the coordinator computes the earliest
// upcoming fleet-level event — a VM arrival or departure, a migration
// completion, a consolidation round, a reporting barrier — resolves all
// control-plane consequences sequentially, and dispatches the resulting
// data-plane commands to the shards, which let each involved machine
// advance to exactly that moment so per-host event-horizon batching
// folds the whole uninterrupted stretch. All shards only synchronize
// together at reporting barriers.
func (f *Fleet) Run(horizon sim.Time) (*Report, error) {
	if f.ran {
		return nil, fmt.Errorf("fleet: already ran; build a new fleet for another run")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("fleet: run horizon %v not positive", horizon)
	}
	f.ran = true
	f.horizon = horizon
	f.rep = &Report{}
	f.minVMSLA = 1
	if !f.cfg.DiscardReport {
		f.sinks = append(f.sinks, f.rep)
	}
	f.sinks = append(f.sinks, f.cfg.Sinks...)

	f.running.Store(true)
	defer f.running.Store(false)

	nextReport := f.cfg.ReportEvery
	if nextReport > horizon {
		nextReport = horizon
	}
	nextConsolidate := sim.Never
	if f.cfg.ConsolidateEvery > 0 {
		nextConsolidate = f.cfg.ConsolidateEvery
	}

	// Prime the one-event lookahead; an empty source surfaces here.
	if err := f.nextSourceEvent(); err != nil {
		return nil, err
	}
	if !f.evValid {
		return nil, fmt.Errorf("fleet: trace without VM events")
	}

	for {
		t := horizon
		if f.evValid && f.ev.Arrive < t {
			t = f.ev.Arrive
		}
		if at, ok := f.departQ.top(); ok && at < t {
			t = at
		}
		if at, ok := f.migQ.top(); ok && at < t {
			t = at
		}
		if nextConsolidate < t {
			t = nextConsolidate
		}
		if nextReport < t {
			t = nextReport
		}
		f.now = t

		// Fixed processing order at one instant: migrations land first,
		// departures free capacity, arrivals consume it, consolidation
		// sees the settled state, and the reporting barrier samples last.
		for len(f.migQ) > 0 && f.migQ[0].at <= t {
			if err := f.completeMigration(f.migQ.pop()); err != nil {
				return nil, err
			}
		}
		for len(f.departQ) > 0 && f.departQ[0].at <= t {
			if err := f.depart(f.departQ.pop().name); err != nil {
				return nil, err
			}
		}
		// Amortized churn compaction: once gone entries dominate the
		// list, sweep them instead of waiting for the barrier. The
		// trigger depends only on the (shard-invariant) arrival and
		// departure sequence, so reports stay bit-exact.
		if f.goneN >= 4096 && f.goneN*2 >= len(f.order) {
			f.compactOrder()
		}
		for f.evValid && f.ev.Arrive <= t {
			ev := f.ev
			if err := f.nextSourceEvent(); err != nil {
				return nil, err
			}
			if ev.Arrive >= horizon {
				continue
			}
			if err := f.arrive(&ev); err != nil {
				return nil, err
			}
		}
		if t == nextConsolidate {
			if err := f.consolidate(); err != nil {
				return nil, err
			}
			nextConsolidate += f.cfg.ConsolidateEvery
		}
		if t == nextReport || t == horizon {
			if err := f.reportBarrier(t); err != nil {
				return nil, err
			}
			if t == nextReport {
				nextReport += f.cfg.ReportEvery
				if nextReport > horizon {
					nextReport = horizon
				}
			}
		}
		if t >= horizon {
			break
		}
	}
	if err := f.finalize(); err != nil {
		return nil, err
	}
	return f.rep, nil
}

// nextSourceEvent advances the trace lookahead by one event, checked
// against the TraceSource contract. Global name uniqueness cannot be
// checked in O(1) memory; arrive rejects a name that is still live.
func (f *Fleet) nextSourceEvent() error {
	ev, ok := f.src.Next()
	if !ok {
		f.evValid = false
		return f.src.Err()
	}
	if err := f.check.next(&ev); err != nil {
		return fmt.Errorf("fleet: trace event %d: %w", f.check.n, err)
	}
	f.ev, f.evValid = ev, true
	return nil
}

// powerOn switches a machine on in the control plane and dispatches the
// host-side power-on (lazy construction, catch-up, energy snapshot).
func (f *Fleet) powerOn(idx int) error {
	st := &f.states[idx]
	if st.On {
		return nil
	}
	st.On = true
	f.pidx.update(idx)
	f.everOn[idx] = true
	f.poweredOn++
	if f.cobs != nil {
		f.cobs.Emit(f.now, obs.KindPowerOn, "", int64(idx), 0)
	}
	return f.dispatch(idx, command{kind: cmdPowerOn, at: f.now})
}

// arrive handles one trace arrival: the placement index picks a machine
// from the persistent bookkeeping view, the coordinator books the
// resources, and the owning shard attaches the VM.
func (f *Fleet) arrive(ev *VMEvent) error {
	if _, live := f.vms[ev.Name]; live {
		// No two concurrently live VMs may share a name.
		return fmt.Errorf("fleet: duplicate VM name %q", ev.Name)
	}
	class := f.classes[ev.Class]
	req := Request{
		Name:         ev.Name,
		CreditPct:    class.CreditPct,
		MemoryMB:     class.MemoryMB,
		MeanActivity: ev.Activity,
	}
	idx, ok := f.pidx.place(req, true)
	if !ok {
		f.rejected++
		f.iv.Rejected++
		if f.cobs != nil {
			f.cobs.Emit(f.now, obs.KindReject, ev.Name, 0, 0)
		}
		return nil
	}
	if err := f.checkPlacement(idx, req, false); err != nil {
		return err
	}
	if err := f.powerOn(idx); err != nil {
		return err
	}
	if f.cobs != nil {
		f.cobs.Emit(f.now, obs.KindPlace, ev.Name, int64(idx), 0)
	}

	d := f.getDataVM()
	d.name = ev.Name
	d.credit = class.CreditPct
	d.seed = vmSeed(f.cfg.Seed, f.arrived, seedLaneWorkload)
	d.phases = ev.demandPhases(class, f.horizon)
	if f.cfg.Serving.Enabled {
		d.class = f.classIdx[ev.Class]
		d.serveSeed = vmSeed(f.cfg.Seed, f.arrived, seedLaneServing)
	}
	if err := f.dispatch(idx, command{kind: cmdAddVM, at: f.now, d: d}); err != nil {
		return err
	}
	f.reserve(idx, req)
	f.vmCount[idx]++

	p := f.getCtlVM()
	p.req, p.class, p.machine, p.arrive, p.d = req, ev.Class, idx, f.now, d
	p.baseCap = req.CreditPct
	f.vms[ev.Name] = p
	f.order = append(f.order, p)
	if depart := ev.Arrive + ev.Lifetime; depart < f.horizon {
		f.departQ.push(timedName{at: depart, name: ev.Name})
	}
	f.arrived++
	f.iv.Arrivals++
	return nil
}

// Seed lanes of an admitted VM: its demand workload and its serving
// clients draw from decorrelated streams of the same arrival index.
const (
	seedLaneWorkload = 1
	seedLaneServing  = 2
)

// vmSeed is the seed of one lane of the arrival-th admitted VM. It is a
// function of the global arrival index, assigned in coordinator order,
// so workloads draw identical randomness for every shard and worker
// count.
func vmSeed(seed uint64, arrival int, lane uint64) uint64 {
	return seed + uint64(arrival)*0x9e3779b97f4a7c15 + lane
}

// checkPlacement validates a policy decision against the bookkeeping
// state, turning a bad pick into a diagnosable error instead of silent
// misaccounting.
func (f *Fleet) checkPlacement(idx int, req Request, migrating bool) error {
	kind := "place"
	if migrating {
		kind = "migrate"
	}
	if idx < 0 || idx >= f.nmach {
		return fmt.Errorf("fleet: policy %s: %s %s on machine %d: out of range [0,%d)",
			f.cfg.Policy.Name(), kind, req.Name, idx, f.nmach)
	}
	st := &f.states[idx]
	if migrating && !st.On {
		return fmt.Errorf("fleet: policy %s: %s %s on machine %d: machine is powered off",
			f.cfg.Policy.Name(), kind, req.Name, idx)
	}
	ci := f.classOf[idx]
	if st.FreeMemMB < req.MemoryMB {
		return fmt.Errorf("fleet: policy %s: %s %s on machine %d: memory %d+%d > %d MB",
			f.cfg.Policy.Name(), kind, req.Name, idx,
			f.specs[ci].MemoryMB-st.FreeMemMB, req.MemoryMB, f.specs[ci].MemoryMB)
	}
	if st.FreeCreditPct < req.CreditPct {
		return fmt.Errorf("fleet: policy %s: %s %s on machine %d: credit %v+%v > %v%%",
			f.cfg.Policy.Name(), kind, req.Name, idx,
			f.caps[ci]-st.FreeCreditPct, req.CreditPct, f.caps[ci])
	}
	return nil
}

// depart removes a VM at the end of its lifetime: the coordinator frees
// the booking and assigns the outcome slot, the owning shard detaches
// the guest and fills the slot's work tallies. A VM departing
// mid-migration aborts the pre-copy and releases the target
// reservation.
func (f *Fleet) depart(name string) error {
	p, ok := f.vms[name]
	if !ok || p.gone {
		return fmt.Errorf("fleet: departure of unknown VM %q", name)
	}
	// A departing parent takes its autoscaled replicas with it: their
	// share of the arrival stream leaves with the clients.
	for _, q := range p.reps {
		if err := f.removeVM(q); err != nil {
			return err
		}
		f.asIns++
	}
	p.reps = p.reps[:0]
	if err := f.removeVM(p); err != nil {
		return err
	}
	f.departed++
	f.iv.Departures++
	return nil
}

// removeVM is the shared removal mechanics of trace departures and
// replica scale-in: abort any in-flight migration, assign the outcome
// slot, dispatch the data-plane detach, and free the booking. Lifecycle
// counters stay with the callers (trace departures count in
// Summary.Departed, replica removals in AutoscaleScaleIns).
func (f *Fleet) removeVM(p *ctlVM) error {
	if p.mig != nil {
		f.abortMigration(p)
	}
	o := f.getOutcome()
	o.Name, o.Class, o.Machine = p.req.Name, p.class, p.machine
	o.ArriveS, o.DepartS, o.Departed = p.arrive.Seconds(), f.now.Seconds(), true
	f.outPending = append(f.outPending, o)
	if err := f.dispatch(p.machine, command{kind: cmdRemoveVM, at: f.now, d: p.d, out: o}); err != nil {
		return err
	}
	f.release(p.machine, p.req)
	f.vmCount[p.machine]--
	p.gone = true
	p.d = nil
	delete(f.vms, p.req.Name)
	f.goneN++
	return nil
}

// compactOrder drops departed VMs from the insertion-order list,
// recycling their control slots. Run amortizes it on churn (gone
// entries dominating the list) so a departure-heavy reporting window
// holds O(live VMs) control state, not O(departures per window); the
// reporting barrier runs it unconditionally so autoscale signal builds
// never see gone entries pile up.
func (f *Fleet) compactOrder() {
	live := f.order[:0]
	for _, p := range f.order {
		if p.gone {
			f.putCtlVM(p)
			continue
		}
		live = append(live, p)
	}
	for i := len(live); i < len(f.order); i++ {
		f.order[i] = nil
	}
	f.order = live
	f.goneN = 0
}

// slaOf is attained/demanded, defined as 1 when nothing was demanded.
// The inputs are exact integer work tallies; the division is the float
// report edge.
func slaOf(attained, demanded sim.Work) float64 {
	if demanded <= 0 {
		return 1
	}
	sla := float64(attained) / float64(demanded)
	if sla > 1 {
		sla = 1
	}
	return sla
}

// consolidate tries to empty the least-offered-load machine through live
// migrations chosen by the placement index. Only machines already
// carrying load are eligible targets — moving a victim's VMs onto an
// empty machine cannot reduce the active count, it just ping-pongs the
// load — so the round hides the victim and the empty powered-on
// machines from the index. Rounds are skipped while migrations are in
// flight, and abandoned (without partial moves) when the victim cannot
// be fully emptied — a partial move cannot free a machine. Planning is
// pure control plane: no host is touched until a migration completes.
func (f *Fleet) consolidate() error {
	// f.migs is the exact in-flight census: completions and aborts both
	// delete from it, while aborted entries linger in the migQ heap
	// until their original completion time pops. With none in flight,
	// no machine has an inbound reservation and no VM is migrating.
	if len(f.migs) > 0 {
		return nil
	}
	victim, loaded := -1, 0
	hidden := f.hiddenBuf[:0]
	for i := 0; i < f.nmach; i++ {
		if !f.states[i].On {
			continue
		}
		if f.vmCount[i] == 0 {
			hidden = append(hidden, i)
			continue
		}
		loaded++
		if victim < 0 || f.states[i].OfferedLoadPct < f.states[victim].OfferedLoadPct {
			victim = i
		}
	}
	if victim < 0 || loaded < 2 {
		return nil
	}
	hidden = append(hidden, victim)
	f.hiddenBuf = hidden
	moving := f.movingBuf[:0]
	for _, p := range f.order {
		if !p.gone && p.machine == victim {
			moving = append(moving, p)
		}
	}
	f.movingBuf = moving[:0]
	// Largest memory first (the classic FFD order).
	sort.Slice(moving, func(i, j int) bool {
		if moving[i].req.MemoryMB != moving[j].req.MemoryMB {
			return moving[i].req.MemoryMB > moving[j].req.MemoryMB
		}
		return moving[i].req.Name < moving[j].req.Name
	})
	for _, i := range hidden {
		f.states[i].hidden = true
		f.pidx.update(i)
	}
	// Book each move as it is planned, so the next query sees it. An
	// abandoned round puts the saved states back newest first: releasing
	// the bookings instead would leave sub-ulp float dust behind.
	plan := f.planBuf[:0]
	defer func() { f.planBuf = plan[:0] }()
	for _, p := range moving {
		to, ok := f.pidx.place(p.req, false)
		if !ok {
			for k := len(plan) - 1; k >= 0; k-- {
				f.states[plan[k].to] = plan[k].prev
				f.pidx.update(plan[k].to)
			}
			plan = plan[:0]
			break
		}
		if err := f.checkPlacement(to, p.req, true); err != nil {
			return err
		}
		plan = append(plan, consMove{p: p, to: to, prev: f.states[to]})
		f.reserve(to, p.req)
	}
	for _, i := range hidden {
		f.states[i].hidden = false
		f.pidx.update(i)
	}
	for _, mv := range plan {
		f.inbound[mv.to]++
		dur := sim.FromSeconds(float64(mv.p.req.MemoryMB) / migrationBandwidthMBps)
		mg := &migration{name: mv.p.req.Name, from: victim, to: mv.to, done: f.now + dur}
		mv.p.mig = mg
		f.migs[mg.name] = mg
		f.migQ.push(timedName{at: mg.done, name: mg.name})
		if f.cobs != nil {
			f.cobs.Emit(f.now, obs.KindMigStart, mg.name, int64(victim), int64(mv.to))
			// Mark the pre-copy on the source's ledger at the plan
			// instant: non-executing time from here until the VM lands on
			// the destination attributes to MigratingUs.
			if err := f.dispatch(victim, command{kind: cmdObsMigMark, at: f.now, d: mv.p.d}); err != nil {
				return err
			}
		}
	}
	return nil
}

// abortMigration cancels an in-flight migration (the VM is departing),
// releasing the target-side reservation. The queued completion entry
// stays in the heap and is skipped when it pops, even if a later VM of
// the same name is migrating by then.
func (f *Fleet) abortMigration(p *ctlVM) {
	mg := p.mig
	f.release(mg.to, p.req)
	f.inbound[mg.to]--
	p.mig = nil
	delete(f.migs, mg.name)
}

// completeMigration finishes the migration of one popped migQ entry:
// the source shard detaches the guest, and the destination shard
// attaches a fresh guest running the same dataVM's still-running
// workload. An entry whose migration was aborted is skipped; so is one
// left by an aborted migration of an earlier VM of the same name, whose
// completion time is not the live migration's.
func (f *Fleet) completeMigration(e timedName) error {
	mg, ok := f.migs[e.name]
	if !ok || mg.done != e.at {
		return nil // aborted by a departure
	}
	delete(f.migs, e.name)
	p := f.vms[e.name]
	if err := f.dispatch(mg.from, command{kind: cmdMigrateOut, at: f.now, d: p.d}); err != nil {
		return err
	}
	// Shards order only their own commands: run the detach before the
	// destination can attach the same dataVM.
	if err := f.flush(noFold); err != nil {
		return err
	}
	if err := f.dispatch(mg.to, command{kind: cmdMigrateIn, at: f.now, d: p.d}); err != nil {
		return err
	}
	f.release(mg.from, p.req)
	f.vmCount[mg.from]--
	f.inbound[mg.to]--
	f.vmCount[mg.to]++
	p.machine = mg.to
	p.mig = nil
	f.migrated++
	f.iv.Migrations++
	if f.cobs != nil {
		f.cobs.Emit(f.now, obs.KindMigDone, mg.name, int64(mg.to), 0)
	}
	return nil
}

// flushOutcomes streams the interval's per-VM outcome slots — filled by
// the shards, sealed by the preceding barrier — to the sinks, folding
// them into the running summary aggregates in emission order.
func (f *Fleet) flushOutcomes() error {
	for _, o := range f.outPending {
		f.nOut++
		f.sumVMSLA += o.SLA
		if o.SLA < f.minVMSLA {
			f.minVMSLA = o.SLA
		}
		if o.SLA < 0.95 {
			f.below95++
		}
		if f.rec != nil {
			f.ledTot[0] += o.RunUs
			f.ledTot[1] += o.DownclockedUs
			f.ledTot[2] += o.CappedUs
			f.ledTot[3] += o.ContendedUs
			f.ledTot[4] += o.MigratingUs
			f.ledTot[5] += o.IdleUs
			f.ledTot[6] += o.LifetimeUs
		}
		for _, sink := range f.sinks {
			if err := sink.Outcome(o); err != nil {
				return err
			}
		}
		if len(f.outFree) < poolCap {
			f.outFree = append(f.outFree, o)
		}
	}
	f.outPending = f.outPending[:0]
	return nil
}

// reportBarrier synchronizes every shard to t, reduces the interval
// exactly, streams the interval's outcomes and sample to the sinks, and
// powers off machines that ended up empty.
func (f *Fleet) reportBarrier(t sim.Time) error {
	if err := f.barrier(t); err != nil {
		return err
	}
	active := 0
	for i := range f.states {
		if f.states[i].On {
			active++
		}
	}
	f.compactOrder()
	liveN := len(f.order) // the population the barrier samples, pre-autoscale

	if err := f.flushOutcomes(); err != nil {
		return err
	}

	f.iv.TimeS = t.Seconds()
	f.iv.ActiveMachines = active
	f.iv.LiveVMs = liveN
	// Emit the interval: the exact integer accumulators convert to the
	// report's float fields here and nowhere earlier.
	f.iv.Joules = f.ivEnergy.Joules()
	f.iv.DemandedWork = f.ivDemanded.Units()
	f.iv.AttainedWork = f.ivAttained.Units()
	f.iv.SLA = slaOf(f.ivAttained, f.ivDemanded)
	ivLen := t - f.lastSample
	if dt := ivLen.Seconds(); dt > 0 {
		f.iv.AvgPowerW = f.iv.Joules / dt
	}
	var ivP50Us, ivP99Us int64
	if f.cfg.Serving.Enabled {
		f.iv.Requests = f.ivLat.Count()
		if f.iv.Requests > 0 {
			// Stash the interval quantiles in microseconds before the
			// reset below: the autoscaler's signals read the p99 too.
			ivP50Us, ivP99Us = f.ivLat.Quantile(0.50), f.ivLat.Quantile(0.99)
			f.iv.ReqP50Ms = float64(ivP50Us) / 1e3
			f.iv.ReqP95Ms = float64(f.ivLat.Quantile(0.95)) / 1e3
			f.iv.ReqP99Ms = float64(ivP99Us) / 1e3
			if f.cobs != nil {
				f.cobs.Emit(t, obs.KindLatency, "", ivP50Us, ivP99Us)
			}
		}
		f.ivLat.Reset()
	}
	dt := f.iv.TimeS - f.prevTimeS
	f.prevTimeS = f.iv.TimeS
	f.sumDt += dt
	f.sumActive += float64(active) * dt
	if active > f.peakActive {
		f.peakActive = active
	}
	for _, sink := range f.sinks {
		if err := sink.Interval(&f.iv); err != nil {
			return err
		}
	}
	f.energyTotal = f.energyTotal.Add(f.ivEnergy)
	f.demanded += f.ivDemanded
	f.attained += f.ivAttained
	f.lastSample = t
	f.iv = Interval{}
	f.ivEnergy = energy.Energy{}
	f.ivDemanded, f.ivAttained = 0, 0

	// The elastic loop runs with nothing staged (the barrier flush ran
	// every command, so the coordinator may read data-plane state) and
	// the interval's latency quantiles in hand. The final barrier skips
	// it: there is nothing left to resize.
	if f.auto != nil && t < f.horizon {
		if err := f.autoscaleStep(t, ivP99Us, ivLen); err != nil {
			return err
		}
		if f.rec != nil {
			// The resize and scale-out commands just staged emit host
			// events at the barrier instant; run them before the drain
			// below so those events land in this window's merge.
			if err := f.flush(noFold); err != nil {
				return err
			}
		}
	}

	// Power off machines the departures emptied (their energy up to the
	// barrier was already reduced above). Keeping them on until the
	// barrier is the fleet's power-off grace period.
	for i := range f.states {
		if f.states[i].On && f.vmCount[i] == 0 && f.inbound[i] == 0 {
			st := &f.states[i]
			st.On = false
			// Snap the emptied machine back to pristine capacity: paired
			// float reserve/release leaves sub-ulp dust on the free
			// credit and offered load, and the placement index relies on
			// every off machine of a class being bit-identical (a
			// machine with nothing resident has its full capacity free
			// by definition).
			ci := f.classOf[i]
			st.FreeMemMB = f.specs[ci].MemoryMB
			st.FreeCreditPct = f.caps[ci]
			st.OfferedLoadPct = 0
			f.pidx.update(i)
			f.poweredOff++
			if f.cobs != nil {
				f.cobs.Emit(t, obs.KindPowerOff, "", int64(i), 0)
			}
			if err := f.dispatch(i, command{kind: cmdPowerOff, at: t}); err != nil {
				return err
			}
		}
	}
	if f.rec != nil {
		// Every machine event up to t is in its shard's ring; fold the
		// coordinator's own barrier marker in, then merge the window.
		f.cobs.Emit(t, obs.KindBarrier, "", int64(liveN), 0)
		if err := f.rec.Drain(); err != nil {
			return err
		}
		f.progEvents.Store(f.rec.Total())
	}
	f.progSimUs.Store(int64(t))
	f.progLive.Store(int64(liveN))
	return nil
}

// finalize records the still-live VMs, assembles the summary, and
// finishes the sinks.
func (f *Fleet) finalize() error {
	for _, p := range f.order {
		if p.gone {
			continue
		}
		o := f.getOutcome()
		o.Name, o.Class, o.Machine = p.req.Name, p.class, p.machine
		o.ArriveS, o.DepartS, o.Departed = p.arrive.Seconds(), f.now.Seconds(), false
		f.outPending = append(f.outPending, o)
		if err := f.dispatch(p.machine, command{kind: cmdRecordLive, at: f.now, d: p.d, out: o}); err != nil {
			return err
		}
	}
	if err := f.flush(noFold); err != nil {
		return err
	}
	if err := f.flushOutcomes(); err != nil {
		return err
	}
	if f.rec != nil {
		if err := f.rec.Finish(f.horizon); err != nil {
			return err
		}
		f.progEvents.Store(f.rec.Total())
	}

	sched := f.cfg.Scheduler
	if sched == "credit" {
		sched = "fix-credit" // keep the historical report name
	}
	s := Summary{
		Policy:    f.cfg.Policy.Name(),
		Scheduler: sched,
		Machines:  f.nmach,
		HorizonS:  f.horizon.Seconds(),
		Arrived:   f.arrived,
		Departed:  f.departed,
		Rejected:  f.rejected,
		Migrated:  f.migrated,
		PowerOns:  f.poweredOn,
		PowerOffs: f.poweredOff,

		TotalJoules: f.energyTotal.Joules(),
		OverallSLA:  slaOf(f.attained, f.demanded),
	}
	for i := 0; i < f.nmach; i++ {
		if f.everOn[i] {
			s.EverPoweredOn++
		}
	}
	for _, sh := range f.shards {
		for _, h := range sh.hosts {
			if h != nil {
				s.BatchedQuanta += h.Engine().BatchedQuanta()
				s.SteppedQuanta += h.Engine().SteppedQuanta()
			}
		}
	}
	s.PeakActiveMachines = f.peakActive
	if f.sumDt > 0 {
		s.MeanActiveMachines = f.sumActive / f.sumDt
		s.MeanPowerW = s.TotalJoules / f.sumDt
	}
	s.MinVMSLA = f.minVMSLA
	s.VMsBelow95 = f.below95
	if f.nOut > 0 {
		s.MeanVMSLA = f.sumVMSLA / float64(f.nOut)
	} else {
		s.MeanVMSLA = 1
	}
	if f.rec != nil {
		s.ObsEvents = f.rec.Total()
		s.LedgerRunUs = f.ledTot[0]
		s.LedgerDownclockedUs = f.ledTot[1]
		s.LedgerCappedUs = f.ledTot[2]
		s.LedgerContendedUs = f.ledTot[3]
		s.LedgerMigratingUs = f.ledTot[4]
		s.LedgerIdleUs = f.ledTot[5]
		s.LedgerSpanUs = f.ledTot[6]
		// Each VM's ledger was conservation-checked at its detach; the
		// totals are sums of those, so a mismatch here means the emission
		// path itself leaked — the same class of guard as the serving
		// request conservation below.
		sum := f.ledTot[0] + f.ledTot[1] + f.ledTot[2] + f.ledTot[3] + f.ledTot[4] + f.ledTot[5]
		if sum != f.ledTot[6] {
			return fmt.Errorf("fleet: attribution ledger mismatch: %d us attributed, %d us of VM residency", sum, f.ledTot[6])
		}
	}
	if f.auto != nil {
		s.AutoscaleResizes = f.asResizes
		s.AutoscaleScaleOuts = f.asOuts
		s.AutoscaleScaleIns = f.asIns
		s.AutoscaleRejected = f.asRejected
		var reps int64
		for _, p := range f.order {
			if !p.gone && p.parent != nil {
				reps++
			}
		}
		if s.AutoscaleScaleOuts-s.AutoscaleScaleIns != reps {
			return fmt.Errorf("fleet: autoscale replica ledger mismatch: %d out - %d in != %d live",
				s.AutoscaleScaleOuts, s.AutoscaleScaleIns, reps)
		}
	}
	if f.cfg.Serving.Enabled {
		for _, sh := range f.shards {
			s.RequestsOffered += sh.servOffered
			s.RequestsCompleted += sh.servCompleted
			s.RequestsAbandoned += sh.servAbandoned
			s.RequestsInFlight += sh.servInFlight
		}
		var all serve.Histogram
		for ci := range f.latClass {
			all.Merge(&f.latClass[ci])
		}
		// Every VM's completions were both recorded into a histogram at
		// fold time and tallied at its depart/horizon record; a mismatch
		// means the serving ledger leaked.
		if all.Count() != s.RequestsCompleted {
			return fmt.Errorf("fleet: serving ledger mismatch: %d completions recorded, %d tallied",
				all.Count(), s.RequestsCompleted)
		}
		if n := all.Count(); n > 0 {
			s.ReqP50Ms = float64(all.Quantile(0.50)) / 1e3
			s.ReqP95Ms = float64(all.Quantile(0.95)) / 1e3
			s.ReqP99Ms = float64(all.Quantile(0.99)) / 1e3
			s.ReqMeanMs = float64(all.Sum()) / float64(n) / 1e3
			s.ReqMaxMs = float64(all.Max()) / 1e3
		}
		for ci, name := range f.classNames {
			h := &f.latClass[ci]
			if h.Count() == 0 {
				continue
			}
			s.ClassLatency = append(s.ClassLatency, ClassLatency{
				Class:    name,
				Requests: h.Count(),
				P50Ms:    float64(h.Quantile(0.50)) / 1e3,
				P95Ms:    float64(h.Quantile(0.95)) / 1e3,
				P99Ms:    float64(h.Quantile(0.99)) / 1e3,
				MeanMs:   float64(h.Sum()) / float64(h.Count()) / 1e3,
				MaxMs:    float64(h.Max()) / 1e3,
			})
		}
	}
	f.rep.Summary = s
	for _, sink := range f.sinks {
		if err := sink.Finish(&s); err != nil {
			return err
		}
	}
	return nil
}
