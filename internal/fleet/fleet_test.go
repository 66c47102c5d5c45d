package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// testMachines is a small heterogeneous estate: fast desktops and
// slower, bigger Xeons.
func testMachines(opti, xeon int) []MachineClass {
	return []MachineClass{
		{Name: "optiplex", Count: opti, Spec: consolidation.HostSpec{
			MemoryMB: 8192, Profile: cpufreq.Optiplex755()}},
		{Name: "xeon-e5", Count: xeon, Spec: consolidation.HostSpec{
			MemoryMB: 16384, Profile: cpufreq.XeonE5_2620()}},
	}
}

// testTrace is a trace held in memory, so a test can run several
// fleets on it and read its events: the class catalogue, the events in
// (Arrive, Name) order, and the horizon.
type testTrace struct {
	Classes map[string]VMClass
	Events  []VMEvent
	Horizon sim.Time
}

// source returns a fresh slice-backed TraceSource over the trace.
func (tr *testTrace) source() TraceSource { return &sliceSource{tr: tr} }

// sliceSource streams a testTrace's events as they are, unchecked: the
// fleet's pull must catch whatever the slice gets wrong.
type sliceSource struct {
	tr *testTrace
	i  int
}

func (s *sliceSource) Classes() map[string]VMClass { return s.tr.Classes }
func (s *sliceSource) Horizon() sim.Time           { return s.tr.Horizon }
func (s *sliceSource) Err() error                  { return nil }

func (s *sliceSource) Next() (VMEvent, bool) {
	if s.i >= len(s.tr.Events) {
		return VMEvent{}, false
	}
	s.i++
	return s.tr.Events[s.i-1], true
}

// drain reads a source to its end into a testTrace, returning the
// source's error if it ends early.
func drain(src TraceSource) (*testTrace, error) {
	tr := &testTrace{Classes: src.Classes(), Horizon: src.Horizon()}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, src.Err()
}

// genTrace drains the generator into memory.
func genTrace(t *testing.T, cfg GenConfig) *testTrace {
	t.Helper()
	src, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// parseTrace drains a CSV trace into memory.
func parseTrace(t *testing.T, csv string) *testTrace {
	t.Helper()
	src, err := ParseTraceStream(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runFleet(t *testing.T, cfg Config, tr *testTrace, horizon sim.Time) *Report {
	t.Helper()
	f, err := NewStream(cfg, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetDeterminism is the acceptance check: the same seed produces a
// bit-identical report for any worker count.
func TestFleetDeterminism(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 42, Arrivals: 120, Horizon: 240 * sim.Second,
		MeanLifetime: 60 * sim.Second})
	run := func(workers int) *Report {
		cfg := Config{
			Machines:         testMachines(10, 6),
			Scheduler:        "pas",
			Policy:           NewDVFSAware(),
			ReportEvery:      20 * sim.Second,
			ConsolidateEvery: 40 * sim.Second,
			Workers:          workers,
			Seed:             42,
		}
		return runFleet(t, cfg, tr, 240*sim.Second)
	}
	want := run(1)
	if want.Summary.Arrived == 0 || want.Summary.Departed == 0 {
		t.Fatalf("vacuous scenario: %+v", want.Summary)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: report differs from workers=1:\n%+v\nvs\n%+v",
				workers, got.Summary, want.Summary)
		}
	}
}

// TestFleetBatchedEquivalence runs a contended fleet scenario (2-4
// runnable VMs per machine) through the batching engine and the
// reference quantum-by-quantum loop and requires bit-identical reports
// on every field: counts, energy, work and SLA alike. There are no
// tolerances — the whole accounting spine is exact integers, and every
// report float derives from the same integers through the same
// conversion on both sides.
func TestFleetBatchedEquivalence(t *testing.T) {
	for _, scheduler := range []string{"credit", "pas", "credit2", "pas-credit2"} {
		scheduler := scheduler
		name := scheduler
		if scheduler == "credit" {
			name = "fix-credit"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Few machines + max activity: machines host several VMs whose
			// queues stay busy, keeping 2-4 VMs runnable at once.
			tr := genTrace(t, GenConfig{Seed: 3, Arrivals: 12, Horizon: 40 * sim.Second,
				MeanLifetime: 30 * sim.Second, BaseActivity: 0.9, SegmentLen: 10 * sim.Second})
			run := func(reference bool) (*Report, *Fleet) {
				cfg := Config{
					Machines:         testMachines(2, 1),
					Scheduler:        scheduler,
					Policy:           NewFirstFit(),
					ReportEvery:      10 * sim.Second,
					ConsolidateEvery: 20 * sim.Second,
					Seed:             3,
					Reference:        reference,
				}
				f, err := NewStream(cfg, tr.source())
				if err != nil {
					t.Fatal(err)
				}
				rep, err := f.Run(40 * sim.Second)
				if err != nil {
					t.Fatal(err)
				}
				return rep, f
			}
			got, bf := run(false)
			want, rf := run(true)
			if bf.BatchedQuanta() == 0 {
				t.Fatal("batching never engaged; the comparison is vacuous")
			}
			if rf.BatchedQuanta() != 0 {
				t.Fatalf("reference fleet batched %d quanta", rf.BatchedQuanta())
			}
			// Contention must actually occur for the scenario to mean
			// anything: some machine hosted >= 2 VMs at once.
			peak := 0
			for _, iv := range want.Intervals {
				if iv.LiveVMs > peak {
					peak = iv.LiveVMs
				}
			}
			if peak < 4 {
				t.Fatalf("peak live VMs %d on 3 machines; scenario is not contended", peak)
			}

			// The two reports must be bit-identical in their entirety:
			// summary, every interval (time, work, energy, SLA) and every
			// per-VM outcome.
			// The engine-introspection counters are the one intentional
			// difference (the reference run never batches); everything the
			// run *simulated* must match bit-for-bit.
			gs, ws := got.Summary, want.Summary
			gs.BatchedQuanta, gs.SteppedQuanta = 0, 0
			ws.BatchedQuanta, ws.SteppedQuanta = 0, 0
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("summary differs: batched %+v reference %+v", gs, ws)
			}
			if !reflect.DeepEqual(got.Intervals, want.Intervals) {
				if len(got.Intervals) != len(want.Intervals) {
					t.Fatalf("interval count %d vs %d", len(got.Intervals), len(want.Intervals))
				}
				for i := range want.Intervals {
					if got.Intervals[i] != want.Intervals[i] {
						t.Errorf("interval %d: batched %+v reference %+v",
							i, got.Intervals[i], want.Intervals[i])
					}
				}
			}
			if !reflect.DeepEqual(got.PerVM, want.PerVM) {
				if len(got.PerVM) != len(want.PerVM) {
					t.Fatalf("per-VM count %d vs %d", len(got.PerVM), len(want.PerVM))
				}
				for i := range want.PerVM {
					if got.PerVM[i] != want.PerVM[i] {
						t.Errorf("per-VM %d: batched %+v reference %+v", i, got.PerVM[i], want.PerVM[i])
					}
				}
			}
		})
	}
}

// TestFleetConsolidationMigratesAndPowersOff drives a hand-written trace
// through consolidation: departures empty most of machine duty, the
// remaining VM migrates away, and the emptied machine powers off.
func TestFleetConsolidationMigratesAndPowersOff(t *testing.T) {
	trace := `
horizon,300
class,big,30,6144
class,medium,15,2048
class,small,10,1024
# a+b fill machine 0 (8192 MB); c and d spill to machine 1. When b
# departs at t=61, machine 0 has room again and consolidation can fold
# c and d back, emptying machine 1.
vm,a,0,300,big,0.4
vm,b,1,60,medium,0.4
vm,c,2,300,small,0.4
vm,d,3,300,small,0.4
`
	tr := parseTrace(t, trace)
	cfg := Config{
		Machines: []MachineClass{{Name: "optiplex", Count: 3, Spec: consolidation.HostSpec{
			MemoryMB: 8192, Profile: cpufreq.Optiplex755()}}},
		Scheduler:        "pas",
		Policy:           NewFirstFit(),
		ReportEvery:      30 * sim.Second,
		ConsolidateEvery: 30 * sim.Second,
	}
	rep := runFleet(t, cfg, tr, 300*sim.Second)
	if rep.Summary.Migrated == 0 {
		t.Errorf("no migrations: %+v", rep.Summary)
	}
	if rep.Summary.EverPoweredOn < 2 {
		t.Errorf("expected at least 2 machines used, got %d", rep.Summary.EverPoweredOn)
	}
	last := rep.Intervals[len(rep.Intervals)-1]
	if last.ActiveMachines != 1 {
		t.Errorf("expected consolidation to end on 1 active machine, got %d", last.ActiveMachines)
	}
	if rep.Summary.OverallSLA < 0.95 {
		t.Errorf("lightly loaded fleet should meet its SLA, got %v", rep.Summary.OverallSLA)
	}
	// Credits still hold after a VM moves.
	for _, o := range rep.PerVM {
		if o.SLA < 0.95 {
			t.Errorf("VM %s SLA %v after consolidation, want >= 0.95", o.Name, o.SLA)
		}
	}

	// The twin run without consolidation keeps machine 1 on to the end:
	// switching it off must save energy, and an off machine is not
	// charged.
	cfg.ConsolidateEvery = 0
	twin := runFleet(t, cfg, tr, 300*sim.Second)
	if rep.Summary.TotalJoules >= twin.Summary.TotalJoules {
		t.Errorf("consolidation used %v J, no consolidation %v J; want strictly less",
			rep.Summary.TotalJoules, twin.Summary.TotalJoules)
	}
	twinLast := twin.Intervals[len(twin.Intervals)-1]
	if last.Joules >= twinLast.Joules {
		t.Errorf("last interval: %v J on %d machine(s), twin %v J on %d; an off machine was charged",
			last.Joules, last.ActiveMachines, twinLast.Joules, twinLast.ActiveMachines)
	}
}

// TestFleetRejectsWhenFull: a fleet too small for the trace rejects
// arrivals instead of failing.
func TestFleetRejectsWhenFull(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 5, Arrivals: 60, Horizon: 60 * sim.Second,
		MeanLifetime: 300 * sim.Second})
	cfg := Config{
		Machines: []MachineClass{{Name: "tiny", Count: 1, Spec: consolidation.HostSpec{
			MemoryMB: 4096, Profile: cpufreq.Optiplex755()}}},
		Policy: NewBestFit(),
	}
	rep := runFleet(t, cfg, tr, 60*sim.Second)
	if rep.Summary.Rejected == 0 {
		t.Errorf("expected rejections on an undersized fleet: %+v", rep.Summary)
	}
	if rep.Summary.Arrived+rep.Summary.Rejected != 60 {
		t.Errorf("arrived %d + rejected %d != 60", rep.Summary.Arrived, rep.Summary.Rejected)
	}
}

// TestFleetDiagnosesBadPlacement: checkPlacement turns a pick the
// bookkeeping disagrees with into a diagnosable error instead of silent
// misaccounting — an out-of-range machine, a powered-off migration
// target, and a machine without room.
func TestFleetDiagnosesBadPlacement(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 5, Horizon: 30 * sim.Second})
	f, err := NewStream(Config{Machines: testMachines(2, 1)}, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	f.states[0].On = true
	f.states[0].FreeCreditPct = 5
	f.states[2].On = true
	f.states[2].FreeMemMB = 100
	req := Request{Name: "v", CreditPct: 10, MemoryMB: 512}
	for _, tc := range []struct {
		idx       int
		migrating bool
		want      string
	}{
		{999, false, "first-fit: place v on machine 999: out of range [0,3)"},
		{-1, true, "migrate v on machine -1: out of range"},
		{1, true, "migrate v on machine 1: machine is powered off"},
		{0, true, "migrate v on machine 0: credit"},
		{2, true, "migrate v on machine 2: memory 16284+512 > 16384 MB"},
		{1, false, ""}, // an arrival may land on an off machine
	} {
		err := f.checkPlacement(tc.idx, req, tc.migrating)
		if tc.want == "" {
			if err != nil {
				t.Errorf("machine %d migrating=%v: %v", tc.idx, tc.migrating, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("machine %d migrating=%v: error %v, want %q", tc.idx, tc.migrating, err, tc.want)
		}
	}
}

// TestFleetPoliciesDiffer: the three built-in policies produce valid but
// distinct placements on a heterogeneous estate, and the DVFS-aware
// policy does not use more energy than first-fit on the same trace.
func TestFleetPoliciesDiffer(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 11, Arrivals: 80, Horizon: 180 * sim.Second,
		MeanLifetime: 90 * sim.Second})
	reports := map[string]*Report{}
	for _, pol := range []Policy{NewFirstFit(), NewBestFit(), NewDVFSAware()} {
		cfg := Config{
			Machines:    testMachines(6, 6),
			Scheduler:   "pas",
			Policy:      pol,
			ReportEvery: 30 * sim.Second,
			Seed:        11,
		}
		reports[pol.Name()] = runFleet(t, cfg, tr, 180*sim.Second)
	}
	for name, rep := range reports {
		if rep.Summary.Arrived != 80 || rep.Summary.Rejected != 0 {
			t.Errorf("%s: arrived %d rejected %d", name, rep.Summary.Arrived, rep.Summary.Rejected)
		}
		if rep.Summary.TotalJoules <= 0 {
			t.Errorf("%s: no energy accounted", name)
		}
		if rep.Summary.OverallSLA <= 0 || rep.Summary.OverallSLA > 1 {
			t.Errorf("%s: SLA %v out of range", name, rep.Summary.OverallSLA)
		}
	}
	ff := reports["first-fit"].Summary.TotalJoules
	da := reports["dvfs-aware"].Summary.TotalJoules
	if da > ff*1.05 {
		t.Errorf("dvfs-aware used %v J, first-fit %v J; expected no worse than +5%%", da, ff)
	}
}

// TestFleetPASBeatsFixCreditOnEnergy reproduces the paper's headline at
// fleet scale: under partial load, PAS machines run at reduced frequency
// and consume less than fix-credit machines pinned at maximum, while the
// SLA stays comparable.
func TestFleetPASBeatsFixCreditOnEnergy(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 21, Arrivals: 60, Horizon: 180 * sim.Second,
		MeanLifetime: 90 * sim.Second, BaseActivity: 0.4})
	run := func(scheduler string) *Report {
		cfg := Config{
			Machines:    testMachines(8, 0),
			Scheduler:   scheduler,
			Policy:      NewFirstFit(),
			ReportEvery: 30 * sim.Second,
			Seed:        21,
		}
		return runFleet(t, cfg, tr, 180*sim.Second)
	}
	pas := run("pas")
	fix := run("credit")
	if pas.Summary.TotalJoules >= fix.Summary.TotalJoules {
		t.Errorf("PAS %v J >= fix-credit %v J; DVFS saved nothing",
			pas.Summary.TotalJoules, fix.Summary.TotalJoules)
	}
	if pas.Summary.OverallSLA < fix.Summary.OverallSLA-0.05 {
		t.Errorf("PAS SLA %v fell more than 5%% below fix-credit %v",
			pas.Summary.OverallSLA, fix.Summary.OverallSLA)
	}
}

func TestFleetReportOutputs(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 2, Arrivals: 20, Horizon: 60 * sim.Second})
	rep := runFleet(t, Config{Machines: testMachines(4, 0), ReportEvery: 20 * sim.Second}, tr,
		60*sim.Second)
	var csv, js bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "time_s,joules,avg_power_w,active_machines") {
		t.Errorf("csv header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if got := strings.Count(csv.String(), "\n"); got != len(rep.Intervals)+1 {
		t.Errorf("csv rows %d, intervals %d", got, len(rep.Intervals))
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"summary"`) || !strings.Contains(js.String(), `"per_vm"`) {
		t.Errorf("json missing sections: %s", js.String()[:120])
	}
}

// TestFleetRunValidation covers the one-shot and bad-horizon guards.
func TestFleetRunValidation(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	f, err := NewStream(Config{Machines: testMachines(1, 0)}, tr.source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := f.Run(10 * sim.Second); err != nil {
		t.Errorf("run after a rejected horizon: %v", err)
	}
	if _, err := f.Run(10 * sim.Second); err == nil {
		t.Error("second Run accepted")
	}
	if _, err := NewStream(Config{}, tr.source()); err == nil {
		t.Error("fleet without machines accepted")
	}
	if _, err := NewStream(Config{Machines: testMachines(1, 0)}, (&testTrace{}).source()); err == nil {
		t.Error("source without a horizon accepted")
	}
}

// TestFleetConfigValidation: NewStream rejects a bad configuration up front
// and names what is wrong.
func TestFleetConfigValidation(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	one := testMachines(1, 0)
	edit := func(fn func(*MachineClass)) []MachineClass {
		m := testMachines(1, 0)
		fn(&m[0])
		return m
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero count", Config{Machines: edit(func(m *MachineClass) { m.Count = 0 })}, "at least 1 machine"},
		{"negative count", Config{Machines: edit(func(m *MachineClass) { m.Count = -1 })}, "negative count"},
		{"unnamed class", Config{Machines: edit(func(m *MachineClass) { m.Name = "" })}, "without a name"},
		{"no memory", Config{Machines: edit(func(m *MachineClass) { m.Spec.MemoryMB = 0 })}, "host memory"},
		{"no profile", Config{Machines: edit(func(m *MachineClass) { m.Spec.Profile = nil })}, "processor profile"},
		{"full dom0 reserve", Config{Machines: edit(func(m *MachineClass) { m.Spec.Dom0ReservePct = 100 })}, "dom0 reserve"},
		{"negative report interval", Config{Machines: one, ReportEvery: -sim.Second}, "report interval"},
		{"negative consolidation interval", Config{Machines: one, ConsolidateEvery: -sim.Second}, "consolidation interval"},
		{"unknown scheduler", Config{Machines: one, Scheduler: "cfs"}, SchedulerNames()},
		{"obs buffer without recorder", Config{Machines: one, Obs: ObsConfig{Buffer: true}}, "Obs.Buffer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewStream(tc.cfg, tr.source()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestFleetConsolidationRespectsCapacity: consolidation never folds a
// machine whose VMs fit nowhere else, whether memory or CPU credit
// binds, and a lone loaded machine has nothing to fold into. No VM
// migrates and every machine in use stays on.
func TestFleetConsolidationRespectsCapacity(t *testing.T) {
	for _, tc := range []struct {
		name, trace string
		on          int
	}{
		{"memory-bound", "horizon,60\nclass,m,20,6144\nvm,a,0,120,m,0.2\nvm,b,1,120,m,0.2\n", 2},
		{"credit-bound", "horizon,60\nclass,c,50,1024\nvm,a,0,120,c,0.2\nvm,b,1,120,c,0.2\n", 2},
		{"single machine", "horizon,60\nclass,s,10,1024\nvm,a,0,120,s,0.2\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := parseTrace(t, tc.trace)
			rep := runFleet(t, Config{
				Machines:         testMachines(2, 0),
				Scheduler:        "pas",
				Policy:           NewFirstFit(),
				ReportEvery:      10 * sim.Second,
				ConsolidateEvery: 10 * sim.Second,
			}, tr, 60*sim.Second)
			last := rep.Intervals[len(rep.Intervals)-1]
			if rep.Summary.Migrated != 0 || rep.Summary.EverPoweredOn != tc.on || last.ActiveMachines != tc.on {
				t.Errorf("%d migrations, %d machines used, %d on at the end; want 0, %d, %d",
					rep.Summary.Migrated, rep.Summary.EverPoweredOn, last.ActiveMachines, tc.on, tc.on)
			}
		})
	}
}
