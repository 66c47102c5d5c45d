package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/autoscale"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// FuzzParseTrace hammers the CSV trace reader with hostile input: the
// reader must never panic, and every stream it accepts, written back
// with WriteCSVStream, must reparse to identical classes, horizon and
// events (the CSV round trip the CLI relies on).
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
		src, err := ParseTraceStream(strings.NewReader(input))
		if err != nil {
			return
		}
		tr, err := drain(src)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSVStream(tr.source(), &buf); err != nil {
			t.Fatalf("accepted trace fails WriteCSVStream: %v", err)
		}
		src, err = ParseTraceStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		back, err := drain(src)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", back, tr)
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
		tr := genTrace(t, gen)
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
		got, gotEv := runFleetObs(t, cfg(s, w), tr, horizon)
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
