package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/obs"
	"pasched/internal/sim"
)

// churnTrace generates a trace with heavy lifecycle churn: short
// lifetimes against the horizon so departures keep emptying machines
// and consolidation keeps migrating.
func churnTrace(t *testing.T, seed uint64) *testTrace {
	t.Helper()
	return genTrace(t, GenConfig{
		Seed:         seed,
		Arrivals:     140,
		Horizon:      300 * sim.Second,
		MeanLifetime: 45 * sim.Second,
		BaseActivity: 0.5,
		SegmentLen:   30 * sim.Second,
	})
}

func churnConfig(shards, workers int, seed uint64) Config {
	return Config{
		Machines:         testMachines(6, 4),
		Scheduler:        "pas",
		Policy:           NewBestFit(),
		ReportEvery:      20 * sim.Second,
		ConsolidateEvery: 20 * sim.Second, // every barrier: maximal migration churn
		Shards:           shards,
		Workers:          workers,
		Seed:             seed,
		// Serving on: the shard-equivalence checks below then also prove
		// the latency percentiles are bit-exact across shardings.
		Serving: ServingConfig{Enabled: true},
		// Flight recorder on and buffered: the same checks then also
		// prove the event stream and the attribution ledgers are
		// bit-exact across shardings.
		Obs: ObsConfig{Enabled: true, Buffer: true},
	}
}

// TestFleetShardEquivalence is the tentpole acceptance check: the report
// of a sharded run is DeepEqual-bit-exact to the single-shard,
// single-worker run for every shard count x worker count combination,
// on traces with heavy migration and consolidation churn. Each seed's
// 1x1 reference run is shared by its comparison subtests, which run in
// parallel.
func TestFleetShardEquivalence(t *testing.T) {
	for _, seed := range []uint64{7, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := churnTrace(t, seed)
			want, wantEv := runFleetObs(t, churnConfig(1, 1, seed), tr, 300*sim.Second)
			if want.Summary.Migrated == 0 || want.Summary.Departed == 0 {
				t.Fatalf("no churn, comparison is vacuous: %+v", want.Summary)
			}
			if len(wantEv) == 0 || want.Summary.LedgerSpanUs == 0 || want.Summary.LedgerMigratingUs == 0 {
				t.Fatalf("no observability signal, comparison is vacuous: %d events, %+v",
					len(wantEv), want.Summary)
			}
			for _, shards := range []int{1, 2, 4, 7} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
						t.Parallel()
						got, gotEv := runFleetObs(t, churnConfig(shards, workers, seed), tr, 300*sim.Second)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("report differs from 1x1:\n%+v\nvs\n%+v", got.Summary, want.Summary)
						}
						if !reflect.DeepEqual(gotEv, wantEv) {
							t.Errorf("event stream differs from 1x1 (%d vs %d events)", len(gotEv), len(wantEv))
							for i := range gotEv {
								if i < len(wantEv) && gotEv[i] != wantEv[i] {
									t.Errorf("first divergence at event %d:\n%+v\nvs\n%+v", i, gotEv[i], wantEv[i])
									break
								}
							}
						}
					})
				}
			}
		})
	}
}

// runFleetObs is runFleet plus the retained flight-recorder stream (nil
// with the recorder off); see runObs.
func runFleetObs(t *testing.T, cfg Config, tr *testTrace, horizon sim.Time) (*Report, []obs.Event) {
	t.Helper()
	f, err := NewStream(cfg, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	return runObs(t, f, horizon)
}

// runObs runs a built fleet and returns its report and retained event
// stream. With the recorder on it also checks that every drained window
// kept the per-lane order contract, so the recorder merged it without
// the sort fallback.
func runObs(t *testing.T, f *Fleet, horizon sim.Time) (*Report, []obs.Event) {
	t.Helper()
	rep, err := f.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if f.rec != nil {
		if n := f.rec.Fallbacks(); n != 0 {
			t.Errorf("shards=%d workers=%d: %d windows broke the per-lane order contract and fell back to sorting",
				f.cfg.Shards, f.cfg.Workers, n)
		}
	}
	return rep, f.ObsEvents()
}

// TestFleetMigrationDuration: a live migration across shards lasts the
// VM's memory over the 1000 MB/s pre-copy bandwidth, exactly, and the VM
// ends on the machine it migrated to.
func TestFleetMigrationDuration(t *testing.T) {
	tr := parseTrace(t, `
horizon,120
class,big,30,6144
class,medium,15,2048
class,small,10,1000
class,tiny,5,500
# a+b fill machine 0; c and d spill to machine 1, on the other shard.
# Once b departs at t=31, the t=60 round folds c and d onto machine 0.
vm,a,0,120,big,0.4
vm,b,1,30,medium,0.4
vm,c,2,120,small,0.4
vm,d,3,120,tiny,0.4
`)
	rep, events := runFleetObs(t, Config{
		Machines:         testMachines(2, 0),
		Scheduler:        "pas",
		Policy:           NewFirstFit(),
		ReportEvery:      30 * sim.Second,
		ConsolidateEvery: 30 * sim.Second,
		Shards:           2,
		Obs:              ObsConfig{Enabled: true, Buffer: true},
	}, tr, 120*sim.Second)
	want := map[string]sim.Time{"c": sim.Second, "d": sim.Second / 2}
	started := map[string]sim.Time{}
	landed := map[string]int{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindMigStart:
			started[ev.VM] = ev.At
		case obs.KindMigDone:
			if got := ev.At - started[ev.VM]; got != want[ev.VM] {
				t.Errorf("%s: migration took %v, want %v", ev.VM, got, want[ev.VM])
			}
			landed[ev.VM] = int(ev.A)
		}
	}
	if len(landed) != len(want) || rep.Summary.Migrated != len(want) {
		t.Fatalf("migrated %v (summary: %d), want c and d", landed, rep.Summary.Migrated)
	}
	for _, o := range rep.PerVM {
		if m, ok := landed[o.Name]; ok && (m != 0 || o.Machine != m) {
			t.Errorf("%s ends on machine %d, migrated to %d; want 0", o.Name, o.Machine, m)
		}
	}
}

// TestFleetMigrationNameReuse: a migration aborted by its VM's
// departure leaves its completion entry in the queue, and a later VM of
// the same name that starts migrating before that entry pops must still
// land at its own completion time. The first x migrates 2 s -> 6 s but
// departs at 3 s; the second x arrives at 3.5 s and migrates 4 s -> 8 s.
func TestFleetMigrationNameReuse(t *testing.T) {
	tr := parseTrace(t, `
horizon,20
class,big,50,1000
class,mid,30,1000
class,xc,30,4000
vm,b1,0,20,big,0.9
vm,b2,0,1,big,0.9
vm,c,0,20,mid,0.9
vm,d,0,20,big,0.9
vm,x,0,3,xc,0.05
vm,x,3.5,10,xc,0.05
`)
	_, events := runFleetObs(t, Config{
		Machines:         testMachines(3, 0),
		Scheduler:        "pas",
		Policy:           NewFirstFit(),
		ReportEvery:      10 * sim.Second,
		ConsolidateEvery: 2 * sim.Second,
		Shards:           1,
		Obs:              ObsConfig{Enabled: true, Buffer: true},
	}, tr, 20*sim.Second)
	var starts, dones []sim.Time
	for _, ev := range events {
		if ev.VM != "x" {
			continue
		}
		switch ev.Kind {
		case obs.KindMigStart:
			starts = append(starts, ev.At)
		case obs.KindMigDone:
			dones = append(dones, ev.At)
		}
	}
	wantStarts := []sim.Time{2 * sim.Second, 4 * sim.Second}
	wantDones := []sim.Time{8 * sim.Second}
	if !reflect.DeepEqual(starts, wantStarts) || !reflect.DeepEqual(dones, wantDones) {
		t.Errorf("x migrations started at %v and landed at %v; want starts %v, one landing at %v",
			starts, dones, wantStarts, wantDones)
	}
}

// TestFleetShardDefaultsAndClamp covers the shard- and worker-count
// configuration surface: negatives rejected, zero shards defaulting to
// the worker count, and clamping to the machine count.
func TestFleetShardDefaultsAndClamp(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	if _, err := NewStream(Config{Machines: testMachines(2, 0), Shards: -1}, tr.source()); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("negative shard count accepted: %v", err)
	}
	if _, err := NewStream(Config{Machines: testMachines(2, 0), Workers: -1}, tr.source()); err == nil ||
		!strings.Contains(err.Error(), "worker count") {
		t.Errorf("negative worker count accepted: %v", err)
	}
	f, err := NewStream(Config{Machines: testMachines(2, 0), Shards: 64}, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 2 {
		t.Errorf("64 shards on 2 machines: got %d, want clamp to 2", f.Shards())
	}
	f, err = NewStream(Config{Machines: testMachines(3, 0), Workers: 2}, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 2 {
		t.Errorf("shards=0 workers=2: got %d shards, want 2", f.Shards())
	}
}

// TestFleetShardErrorSurfaces drives the data-plane error path: one
// shard fails a command while the others execute ordinary ones, and the
// barrier must return that command's error for every shard and worker
// count. Shards never wait on each other, so a failed shard cannot hang
// a peer or the coordinator; run under a -timeout so a regression that
// hangs fails rather than stalls.
func TestFleetShardErrorSurfaces(t *testing.T) {
	horizon := 120 * sim.Second
	tr := genTrace(t, GenConfig{Seed: 4, Arrivals: 12, Horizon: horizon, MeanLifetime: horizon})
	for _, shards := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, 4} {
			f, err := NewStream(Config{
				Machines: testMachines(6, 4),
				Policy:   NewFirstFit(),
				Shards:   shards,
				Workers:  workers,
				Seed:     4,
			}, tr.source())
			if err != nil {
				t.Fatal(err)
			}
			arriveAll(t, f, tr, horizon)
			f.now = 5 * sim.Second
			bad := f.order[0]
			if err := f.dispatch(bad.machine, command{kind: cmdResize, at: f.now, d: bad.d,
				rz: resizeArgs{op: 99}}); err != nil {
				t.Fatal(err)
			}
			// Ordinary commands on every shard, the failing one included.
			for i := 0; i < f.nmach; i++ {
				if err := f.powerOn(i); err != nil {
					t.Fatal(err)
				}
			}
			want := "fleet: resize " + bad.req.Name + ": unknown op"
			for i := 0; i < 2; i++ { // the shard's error sticks
				if err := f.barrier(10 * sim.Second); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("shards=%d workers=%d: barrier %d returned %v, want %q",
						shards, workers, i, err, want)
				}
			}
		}
	}
}

// TestFleetStreamedCSVMatchesBuffered checks the streaming contract:
// the CSV a CSVSink emits during the run is byte-identical to
// Report.WriteCSV on the buffered report of an identical run.
func TestFleetStreamedCSVMatchesBuffered(t *testing.T) {
	seed := uint64(13)
	tr := churnTrace(t, seed)
	want := runFleet(t, churnConfig(2, 2, seed), tr, 300*sim.Second)
	var buffered bytes.Buffer
	if err := want.WriteCSV(&buffered); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	cfg := churnConfig(2, 2, seed)
	cfg.Sinks = []Sink{NewCSVSink(&streamed)}
	cfg.DiscardReport = true
	rep := runFleet(t, cfg, tr, 300*sim.Second)

	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Errorf("streamed CSV differs from buffered:\n--- streamed ---\n%s\n--- buffered ---\n%s",
			streamed.String(), buffered.String())
	}
	// DiscardReport keeps only the summary, and it must equal the
	// buffered run's bit for bit.
	if len(rep.Intervals) != 0 || len(rep.PerVM) != 0 {
		t.Errorf("DiscardReport buffered %d intervals, %d outcomes", len(rep.Intervals), len(rep.PerVM))
	}
	if !reflect.DeepEqual(rep.Summary, want.Summary) {
		t.Errorf("DiscardReport summary differs:\n%+v\nvs\n%+v", rep.Summary, want.Summary)
	}
}

// TestFleetJSONLSink checks the JSON Lines stream carries the complete
// report: every interval, every per-VM outcome, and the summary.
func TestFleetJSONLSink(t *testing.T) {
	seed := uint64(29)
	tr := churnTrace(t, seed)
	var stream bytes.Buffer
	cfg := churnConfig(2, 2, seed)
	cfg.Sinks = []Sink{NewJSONLSink(&stream)}
	rep := runFleet(t, cfg, tr, 300*sim.Second)

	var intervals []Interval
	var outcomes []VMOutcome
	var summaries []Summary
	sc := bufio.NewScanner(&stream)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec JSONLRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Interval != nil:
			intervals = append(intervals, *rec.Interval)
		case rec.VM != nil:
			outcomes = append(outcomes, *rec.VM)
		case rec.Summary != nil:
			summaries = append(summaries, *rec.Summary)
		default:
			t.Fatalf("empty JSONL record: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intervals, rep.Intervals) {
		t.Errorf("streamed intervals differ from buffered (%d vs %d)", len(intervals), len(rep.Intervals))
	}
	if !reflect.DeepEqual(outcomes, rep.PerVM) {
		t.Errorf("streamed outcomes differ from buffered (%d vs %d)", len(outcomes), len(rep.PerVM))
	}
	if len(summaries) != 1 || !reflect.DeepEqual(summaries[0], rep.Summary) {
		t.Errorf("streamed summary differs: %+v", summaries)
	}
}

// guardSink probes the fleet's accessors from inside the run (sinks are
// called on the coordinator while the shards own the hosts).
type guardSink struct {
	t       *testing.T
	f       *Fleet
	checked bool
}

func (g *guardSink) Interval(*Interval) error {
	if g.checked {
		return nil
	}
	g.checked = true
	if _, err := g.f.Host(0); err == nil || !strings.Contains(err.Error(), "while Run executes") {
		g.t.Errorf("Host(0) during Run: %v, want ownership error", err)
	}
	if n := g.f.BatchedQuanta(); n != 0 {
		g.t.Errorf("BatchedQuanta during Run = %d, want 0", n)
	}
	return nil
}

func (g *guardSink) Outcome(*VMOutcome) error { return nil }
func (g *guardSink) Finish(*Summary) error    { return nil }

// TestFleetAccessorGuards: Host and BatchedQuanta refuse to touch
// worker-owned hosts during Run and work normally after, including on
// machines that were never powered on (lazily constructed on demand).
func TestFleetAccessorGuards(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 3, Arrivals: 10, Horizon: 60 * sim.Second})
	cfg := Config{Machines: testMachines(4, 2), Workers: 2, Shards: 3, Seed: 3}
	g := &guardSink{t: t}
	cfg.Sinks = []Sink{g}
	f, err := NewStream(cfg, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	g.f = f
	if _, err := f.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !g.checked {
		t.Fatal("guard sink never ran")
	}
	if f.BatchedQuanta() == 0 {
		t.Error("no batched quanta after the run")
	}
	for i := 0; i < f.Machines(); i++ {
		h, err := f.Host(i)
		if err != nil || h == nil {
			t.Fatalf("Host(%d) after Run: %v", i, err)
		}
	}
	if _, err := f.Host(f.Machines()); err == nil {
		t.Error("out-of-range Host accepted")
	}
	if _, err := f.Host(-1); err == nil {
		t.Error("negative Host index accepted")
	}
}

// failSink fails on the first interval, checking sink errors abort the
// run cleanly (workers torn down, error propagated).
type failSink struct{ err error }

func (s *failSink) Interval(*Interval) error { return s.err }
func (s *failSink) Outcome(*VMOutcome) error { return nil }
func (s *failSink) Finish(*Summary) error    { return nil }

func TestFleetSinkErrorAbortsRun(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 5, Arrivals: 20, Horizon: 60 * sim.Second})
	cfg := Config{Machines: testMachines(4, 0), Workers: 2, Shards: 2, Seed: 5}
	sinkErr := &failSink{err: errSentinel}
	cfg.Sinks = []Sink{sinkErr}
	f, err := NewStream(cfg, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(60 * sim.Second); err != errSentinel {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel sink failure" }
