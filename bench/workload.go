package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"pasched"
	"pasched/internal/autoscale"
	"pasched/internal/fleet"
	"pasched/internal/obs"
	"pasched/internal/sim"
	simload "pasched/internal/workload"
)

// workload is one input set of the benchmark. A nil shape is the paper
// workload: every experiment of the reproduction, in a seed-shuffled order.
type workload struct {
	name  string
	why   string
	shape *fleetShape
}

// fleetShape is a fleet workload: the trace generator, the fleet
// configuration, and the sharding of the measured and the reference run.
// Both runs must produce the same digest (the fleet's sharding contract),
// which is how outputs are checked on seeds with no committed golden.
type fleetShape struct {
	machines         int
	gen              fleet.GenConfig // Seed is set per run
	policy           fleet.Policy
	reportEvery      sim.Time
	consolidateEvery sim.Time
	shards, workers  int
	refShards        int
	refWorkers       int
	// serve turns on full-cost serving, the ditto autoscaler and the flight
	// recorder streaming into a Perfetto writer, with a JSONL report sink;
	// otherwise the report streams to a CSV sink.
	serve bool
}

// The scales are chosen so that one run takes about two seconds on a
// 2-vCPU host, which lets a measurement window hold several runs.
var workloads = []*workload{
	{
		name: "paper",
		why:  "every paper experiment and its 94 shape checks: single-host engine, schedulers and governors, no fleet layers",
	},
	{
		name: "fleet-place",
		why:  "20k-machine estate under dvfs-aware placement with heavy churn: placement index queries and updates dominate",
		shape: &fleetShape{
			machines: 20000,
			// 40k arrivals per simulated second with 0.2 s mean lifetimes:
			// thousands of machines stay on, so every placement scores a
			// large index, and departures update it as fast as arrivals
			// query it. Longer lifetimes shift the time to host stepping.
			gen:              fleet.GenConfig{Arrivals: 30000, Horizon: 750 * sim.Millisecond, MeanLifetime: 200 * sim.Millisecond},
			policy:           fleet.NewDVFSAware(),
			reportEvery:      50 * sim.Millisecond,
			consolidateEvery: 250 * sim.Millisecond,
			shards:           1, workers: 1,
			refShards: 2, refWorkers: 2,
		},
	},
	{
		name: "fleet-host",
		why:  "1000 machines stepped on 8 shards by 2 workers: host, scheduler and engine stepping dominate, placement is negligible",
		shape: &fleetShape{
			machines:         1000,
			gen:              fleet.GenConfig{Arrivals: 5000, Horizon: 200 * sim.Second, MeanLifetime: 20 * sim.Second},
			policy:           fleet.NewDVFSAware(),
			reportEvery:      10 * sim.Second,
			consolidateEvery: 20 * sim.Second,
			shards:           8, workers: 2,
			refShards: 1, refWorkers: 1,
		},
	},
	{
		name: "fleet-serve",
		why:  "40 saturated machines with full-cost serving, ditto autoscaling and the flight recorder into Perfetto: recorder drain dominates",
		shape: &fleetShape{
			machines: 40,
			gen: fleet.GenConfig{Arrivals: 600, Horizon: 60 * sim.Second, MeanLifetime: 10 * sim.Second,
				BaseActivity: 0.95, DiurnalAmplitude: 0.2, SegmentLen: 15 * sim.Second},
			policy: fleet.NewBestFit(),
			// The recorder buffers one reporting interval of events, so peak
			// RSS follows the busiest interval; 1 s intervals halved the
			// ten-seed spread of peak RSS against 2 s (17% to 9%).
			reportEvery: sim.Second,
			shards:      1, workers: 1,
			refShards: 2, refWorkers: 2,
			serve: true,
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// workers is the largest worker count any run of the workload uses.
func (w *workload) workers() int {
	if w.shape == nil {
		return 1
	}
	return max(w.shape.workers, w.shape.refWorkers)
}

// opOutput is what one run of a workload produced.
type opOutput struct {
	digest    string
	attempted int
	failed    int
	problems  []string
	counts    map[string]float64
}

// prepare builds a workload's inputs for one run — the set-up that
// setup_s times — and returns the run itself. seams is nil for an
// untraced run; a traced run wraps every public seam with it.
func prepare(w *workload, seed uint64, ref bool, seams *seamStats) (func() (*opOutput, error), error) {
	if w.shape == nil {
		return preparePaper(seed, seams), nil
	}
	return w.shape.prepare(seed, ref, seams)
}

func (s *fleetShape) prepare(seed uint64, ref bool, seams *seamStats) (func() (*opOutput, error), error) {
	gen := s.gen
	gen.Seed = seed
	src, err := fleet.GenerateStream(gen)
	if err != nil {
		return nil, err
	}
	cfg := fleet.Config{
		Machines:         fleet.DefaultEstate(s.machines),
		Scheduler:        "pas",
		Policy:           s.policy,
		ReportEvery:      s.reportEvery,
		ConsolidateEvery: s.consolidateEvery,
		Shards:           s.shards,
		Workers:          s.workers,
		Seed:             seed,
		DiscardReport:    true,
	}
	if ref {
		cfg.Shards, cfg.Workers = s.refShards, s.refWorkers
	}
	report := &countingWriter{}
	writers := []*countingWriter{report}
	var sink fleet.Sink
	if s.serve {
		sink = fleet.NewJSONLSink(report)
		// PerfettoWriter.Finish closes the still-open slices in map
		// order, so only the trace's length repeats from run to run.
		trace := &countingWriter{lengthOnly: true}
		writers = append(writers, trace)
		var events obs.EventSink = obs.NewPerfettoWriter(trace)
		if seams != nil {
			events = &timedEventSink{next: events, st: seams, w: trace}
		}
		cfg.Serving = fleet.ServingConfig{Enabled: true, RequestCost: simload.DefaultRequestCost}
		cfg.Obs = fleet.ObsConfig{Enabled: true, Sink: events}
		// The examples/autoscaling parameters, tuned there for 2 s
		// intervals; at 1 s they act about 800 times a run.
		cfg.Autoscale = fleet.AutoscaleConfig{Enabled: true, Policy: "ditto", Params: autoscale.Params{
			MaxCapPct: 60, MaxReplicas: 2, QueueHigh: 4, CappedHighPermille: 100,
		}}
	} else {
		sink = fleet.NewCSVSink(report)
	}
	if seams != nil {
		src = &timedSource{next: src, st: seams}
		sink = &timedSink{next: sink, st: seams, w: report}
	}
	cfg.Sinks = []fleet.Sink{sink}
	fl, err := fleet.NewStream(cfg, src)
	if err != nil {
		return nil, err
	}
	return func() (*opOutput, error) {
		rep, err := fl.Run(gen.Horizon)
		if err != nil {
			return nil, err
		}
		return s.check(&rep.Summary, gen.Arrivals, writers), nil
	}, nil
}

// check digests a fleet run and tests the invariants any correct run
// holds, whatever the seed.
func (s *fleetShape) check(sum *fleet.Summary, arrivals int, writers []*countingWriter) *opOutput {
	out := &opOutput{attempted: 1, digest: fleetDigest(sum, writers), counts: fleetCounts(sum)}
	if sum.Arrived+sum.Rejected != arrivals {
		out.problems = append(out.problems, fmt.Sprintf("arrived %d + rejected %d != %d trace arrivals", sum.Arrived, sum.Rejected, arrivals))
	}
	if sum.Departed > sum.Arrived {
		out.problems = append(out.problems, fmt.Sprintf("departed %d > arrived %d", sum.Departed, sum.Arrived))
	}
	if sum.BatchedQuanta == 0 {
		out.problems = append(out.problems, "no batched quanta: the engine fast path never engaged")
	}
	if s.serve {
		if got := sum.RequestsCompleted + sum.RequestsAbandoned + sum.RequestsRetried + sum.RequestsInFlight; got != sum.RequestsOffered || got == 0 {
			out.problems = append(out.problems, fmt.Sprintf("requests offered %d, accounted %d", sum.RequestsOffered, got))
		}
		if sum.ObsEvents == 0 || sum.AutoscaleResizes+sum.AutoscaleScaleOuts == 0 {
			out.problems = append(out.problems, "vacuous serving run: no recorder events or no autoscale actions")
		}
	}
	if len(out.problems) > 0 {
		out.failed = 1
	}
	return out
}

// fleetDigest hashes the summary's JSON and the length and CRC-32C of
// every output stream.
func fleetDigest(sum *fleet.Summary, writers []*countingWriter) string {
	h := sha256.New()
	b, err := json.Marshal(sum)
	if err != nil {
		panic(err) // a plain struct of numbers and strings always encodes
	}
	h.Write(b)
	for _, w := range writers {
		fmt.Fprintf(h, "|%d:%08x", w.n, w.crc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fleetCounts(s *fleet.Summary) map[string]float64 {
	quanta := float64(s.BatchedQuanta + s.SteppedQuanta)
	frac := 0.0
	if quanta > 0 {
		frac = float64(s.BatchedQuanta) / quanta
	}
	return map[string]float64{
		"fleet.arrived":         float64(s.Arrived),
		"fleet.departed":        float64(s.Departed),
		"fleet.rejected":        float64(s.Rejected),
		"fleet.migrated":        float64(s.Migrated),
		"fleet.power_ons":       float64(s.PowerOns),
		"engine.batched_quanta": float64(s.BatchedQuanta),
		"engine.stepped_quanta": float64(s.SteppedQuanta),
		"engine.batched_frac":   frac,
		"serve.offered":         float64(s.RequestsOffered),
		"serve.completed":       float64(s.RequestsCompleted),
		"serve.abandoned":       float64(s.RequestsAbandoned),
		"obs.events":            float64(s.ObsEvents),
		"autoscale.actions":     float64(s.AutoscaleResizes + s.AutoscaleScaleOuts + s.AutoscaleScaleIns),
		"autoscale.rejected":    float64(s.AutoscaleRejected),
	}
}

// preparePaper shuffles the experiment order with the seed: the
// experiments have fixed inputs, so the seed changes only the order in
// which they run, and the digest, taken in ID order, must not move.
func preparePaper(seed uint64, seams *seamStats) func() (*opOutput, error) {
	ids := pasched.ExperimentIDs()
	rng := sim.NewRNG(seed)
	for i := len(ids) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return func() (*opOutput, error) {
		results := make(map[string]*pasched.ExperimentResult, len(ids))
		for _, id := range ids {
			t0 := time.Now()
			res, err := pasched.RunExperiment(id)
			if err != nil {
				return nil, err
			}
			if seams != nil {
				seams.ExperimentsMs = append(seams.ExperimentsMs, ms(time.Since(t0)))
			}
			results[id] = res
		}
		return paperCheck(results), nil
	}
}

func paperCheck(results map[string]*pasched.ExperimentResult) *opOutput {
	ids := make([]string, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	out := &opOutput{}
	for _, id := range ids {
		for _, c := range results[id].Checks {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%t\n", id, c.Name, c.Paper, c.Measured, c.Pass)
			out.attempted++
			if !c.Pass {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("%s: shape check %q failed: paper %s, measured %s", id, c.Name, c.Paper, c.Measured))
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.counts = map[string]float64{
		"paper.checks":        float64(out.attempted),
		"paper.checks_failed": float64(out.failed),
	}
	return out
}
