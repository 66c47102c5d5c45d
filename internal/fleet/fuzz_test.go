package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/autoscale"
	"pasched/internal/obs"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// FuzzParseTrace hammers the fleet trace parser with hostile input: the
// parser must never panic, every accepted trace must pass Validate, and
// writing it back out must reparse to the same trace (the CSV round
// trip the CLI relies on), through ParseTrace and ParseTraceStream alike.
func FuzzParseTrace(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")
	f.Add("horizon,10\r\nclass,a,10,1024\r\nvm,x,0,5,a,0.5\r\n") // CRLF
	f.Add("vm,x,0,5,a,0.5\nhorizon,10\nclass,a,10,1024\n")       // out of order records
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,5,1,a,0.5\nvm,y,1,1,a,0.5\n")
	f.Add("horizon,10\nvm,x,0,5,ghost,0.5\n")                 // unknown class
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,NaN\n")    // NaN activity
	f.Add("horizon,NaN\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")   // NaN horizon
	f.Add("horizon,1e300\nclass,a,10,1024\nvm,x,0,5,a,0.5\n") // horizon overflow
	f.Add("horizon,10\nclass,a,1e308,1024\nvm,x,0,5,a,0.5\n") // huge credit
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a\n")        // missing field
	f.Add("wat,1,2\n")                                        // unknown record
	f.Add("# empty\n\n")
	f.Add("horizon,10\nhorizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")             // dup horizon
	f.Add(" horizon , 10 \n class , a , 10 , 1024 \n vm , x , 0 , 5 , a , 0.5 \n") // stray spaces
	f.Add(strings.Repeat("#x\n", 5))                                               // comments only
	f.Add("horizon,10\nclass,a,ten,1024\nvm,x,0,5,a,0.5\n")                        // not a number
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,-1,5,a,0.5\n")                        // negative time
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,-0.5\n")                        // negative activity
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,+Inf\n")                        // infinite activity
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5,1\n")                       // too many fields
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\nvm,x,1,5,a,0.5\n")         // dup vm
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,1e22,a,0.5\n")                      // lifetime overflow

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace fails WriteCSV: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.Horizon != tr.Horizon || len(back.Events) != len(tr.Events) ||
			len(back.Classes) != len(tr.Classes) {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, tr)
		}
		for i := range tr.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Name != b.Name || a.Class != b.Class || a.Arrive != b.Arrive ||
				a.Lifetime != b.Lifetime || a.Activity != b.Activity {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, a, b)
			}
		}
		// The streaming reader parses the written CSV to the same trace.
		src, err := ParseTraceStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("stream rejected the written trace: %v\n%s", err, buf.String())
		}
		streamed, err := Drain(src)
		if err != nil {
			t.Fatalf("streamed trace fails Drain: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(streamed, tr) {
			t.Fatalf("streamed parse differs from ParseTrace:\n%+v\nvs\n%+v", streamed, tr)
		}
	})
}

// Feature bits of FuzzShardEquivalence's features byte.
const (
	// fuzzServe enables the serving layer: latency histograms fold on
	// the shards and merge on the coordinator, including requests
	// whose service spans a live migration.
	fuzzServe = 1 << iota
	// fuzzObs enables the buffered flight recorder, so the per-VM
	// attribution ledgers and the merged event stream are compared too.
	fuzzObs
	// fuzzAutoscale enables the ditto autoscaler resizing caps, spawning
	// and retiring replicas, and repartitioning arrival streams mid-run.
	// It forces serving and the recorder.
	fuzzAutoscale
	// fuzzStream feeds the sharded side from the streaming generator, so
	// its trace is never materialized.
	fuzzStream
)

// FuzzShardEquivalence fuzzes the sharding contract: for arbitrary
// shard/worker counts, churn parameters and feature sets, the sharded
// run's report and event stream must be DeepEqual-bit-exact to the
// single-shard, single-worker run on the same generated trace.
// Consolidation fires every barrier, so VMs keep crossing shard
// boundaries mid-run.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(30), uint8(3), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(60), uint8(15), uint8(7), uint8(4), uint8(0))
	f.Add(uint64(42), uint8(25), uint8(60), uint8(2), uint8(1), uint8(0))
	f.Add(uint64(99), uint8(50), uint8(20), uint8(5), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(30), uint8(3), uint8(2), uint8(fuzzServe))
	f.Add(uint64(11), uint8(60), uint8(15), uint8(7), uint8(4), uint8(fuzzServe))
	f.Add(uint64(31), uint8(25), uint8(60), uint8(2), uint8(1), uint8(fuzzServe))
	f.Add(uint64(77), uint8(50), uint8(20), uint8(5), uint8(3), uint8(fuzzServe))
	f.Add(uint64(3), uint8(40), uint8(30), uint8(3), uint8(2), uint8(fuzzServe|fuzzObs))
	f.Add(uint64(13), uint8(60), uint8(15), uint8(7), uint8(4), uint8(fuzzServe|fuzzObs))
	f.Add(uint64(37), uint8(25), uint8(60), uint8(2), uint8(1), uint8(fuzzServe|fuzzObs))
	f.Add(uint64(71), uint8(50), uint8(20), uint8(5), uint8(3), uint8(fuzzServe|fuzzObs))
	f.Add(uint64(5), uint8(40), uint8(30), uint8(3), uint8(2), uint8(fuzzAutoscale))
	f.Add(uint64(17), uint8(60), uint8(15), uint8(7), uint8(4), uint8(fuzzAutoscale))
	f.Add(uint64(41), uint8(25), uint8(60), uint8(2), uint8(1), uint8(fuzzAutoscale))
	f.Add(uint64(73), uint8(50), uint8(20), uint8(5), uint8(3), uint8(fuzzAutoscale))
	f.Add(uint64(1), uint8(40), uint8(30), uint8(3), uint8(2), uint8(fuzzStream))
	f.Add(uint64(7), uint8(60), uint8(15), uint8(7), uint8(4), uint8(fuzzStream))
	f.Add(uint64(42), uint8(25), uint8(60), uint8(2), uint8(1), uint8(fuzzStream))

	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers, features uint8) {
		activity := 0.6
		if features&fuzzAutoscale != 0 {
			features |= fuzzServe | fuzzObs
			activity = 0.9
		}
		horizon := 120 * sim.Second
		gen := GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      horizon,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: activity,
			SegmentLen:   30 * sim.Second,
		}
		tr, err := Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		cfg := func(s, w int) Config {
			c := Config{
				Machines:         testMachines(4, 2),
				Scheduler:        "pas",
				Policy:           NewBestFit(),
				ReportEvery:      15 * sim.Second,
				ConsolidateEvery: 15 * sim.Second,
				Shards:           s,
				Workers:          w,
				Seed:             seed,
			}
			if features&fuzzServe != 0 {
				c.Serving.Enabled = true
			}
			if features&fuzzObs != 0 {
				c.Obs = ObsConfig{Enabled: true, Buffer: true}
			}
			if features&fuzzAutoscale != 0 {
				// Full-cost requests so credit throttling turns into
				// queueing the policies can see (see autoscale_test.go).
				c.Serving.RequestCost = workload.DefaultRequestCost
				c.Autoscale = AutoscaleConfig{
					Enabled: true,
					Policy:  "ditto",
					Params: autoscale.Params{
						MaxCapPct:          30,
						MaxReplicas:        3,
						CappedHighPermille: 10,
					},
				}
			}
			return c
		}
		want, wantEv := runFleetObs(t, cfg(1, 1), tr, horizon)
		s, w := 1+int(shards)%7, 1+int(workers)%4
		var got *Report
		var gotEv []obs.Event
		if features&fuzzStream != 0 {
			src, err := GenerateStream(gen)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := NewStream(cfg(s, w), src)
			if err != nil {
				t.Fatal(err)
			}
			got, gotEv = runObs(t, fl, horizon)
		} else {
			got, gotEv = runFleetObs(t, cfg(s, w), tr, horizon)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("features=%#x shards=%d workers=%d: report differs from 1x1:\n%+v\nvs\n%+v",
				features, s, w, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("features=%#x shards=%d workers=%d: event stream differs from 1x1 (%d vs %d events)",
				features, s, w, len(gotEv), len(wantEv))
		}
	})
}
