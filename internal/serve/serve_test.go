package serve

import (
	"math"
	"reflect"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// TestBucketLadder checks the ladder invariants over the exact region,
// octave boundaries and extremes: buckets tile the value space in
// order, and the reported upper bound overstates a value by at most
// 1/histSub of it.
func TestBucketLadder(t *testing.T) {
	probes := []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 1023, 1024,
		1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	prev := -1
	for _, v := range probes {
		b := bucketOf(v)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d outside [0, %d)", v, b, NumBuckets)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		upper := BucketUpper(b)
		if upper < v {
			t.Fatalf("BucketUpper(%d) = %d below value %d", b, upper, v)
		}
		if b > 0 && BucketUpper(b-1) >= v {
			t.Fatalf("value %d not in bucket %d: lower bucket upper %d", v, b, BucketUpper(b-1))
		}
		if err := upper - v; err > v/histSub+1 {
			t.Fatalf("value %d: quantization error %d above %d", v, err, v/histSub+1)
		}
	}
	for v := int64(0); v < histExact; v++ {
		if bucketOf(v) != int(v) || BucketUpper(int(v)) != v {
			t.Fatalf("value %d not exact: bucket %d upper %d", v, bucketOf(v), BucketUpper(bucketOf(v)))
		}
	}
}

// TestHistogramExactQuantiles uses the exact sub-histExact region where
// the percentile of a known distribution is fully determined.
func TestHistogramExactQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	// rank(q) = ceil(32q); value = rank-1 since values 0..31 are exact.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 0}, {0.5, 15}, {0.75, 23}, {0.95, 30}, {0.99, 31}, {1, 31}} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Fatalf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if h.Count() != 32 || h.Sum() != 31*16 || h.Max() != 31 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
}

// TestHistogramKnownBucketQuantile pins the documented semantics above
// the exact region: every quantile of a point mass reports the
// containing bucket's inclusive upper bound.
func TestHistogramKnownBucketQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(1000)
	}
	// 1000 lies in octave [512, 1024), sub-bucket width 16:
	// upper = 512 + 31*16 - 1 = 1007.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1007 {
			t.Fatalf("Quantile(%v) = %d, want 1007", q, got)
		}
	}
	if h.Max() != 1000 {
		t.Fatalf("Max() = %d, want exact 1000", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

// TestHistogramMergeOrderIndependence is the property behind the
// fleet's shard-count-independent reduction: merging any permutation
// of partial histograms, in any association, yields identical state.
func TestHistogramMergeOrderIndependence(t *testing.T) {
	rng := sim.NewRNG(7)
	parts := make([]*Histogram, 8)
	for i := range parts {
		parts[i] = &Histogram{}
		for k := 0; k < 200; k++ {
			// Heavy-tailed-ish values across many octaves.
			v := int64(rng.Uint64() % (1 << (3 + rng.Intn(40))))
			parts[i].Record(v)
		}
	}
	var fwd, rev, pair Histogram
	for _, p := range parts {
		fwd.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	// Tree association: ((0+1)+(2+3)) + ((4+5)+(6+7)).
	var l, r Histogram
	l.Merge(parts[0])
	l.Merge(parts[1])
	l.Merge(parts[2])
	l.Merge(parts[3])
	r.Merge(parts[4])
	r.Merge(parts[5])
	r.Merge(parts[6])
	r.Merge(parts[7])
	pair.Merge(&l)
	pair.Merge(&r)
	if !reflect.DeepEqual(fwd, rev) || !reflect.DeepEqual(fwd, pair) {
		t.Fatal("merge order changed histogram state")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if fwd.Quantile(q) != rev.Quantile(q) {
			t.Fatalf("quantile %v differs across merge orders", q)
		}
	}
}

// server tests ---------------------------------------------------------

// mustServer builds a server over one constant-rate phase.
func mustServer(t *testing.T, slots int, costUnits float64, rate float64, end sim.Time) *Server {
	t.Helper()
	s, err := New(Config{
		Slots:         slots,
		RequestCost:   costUnits,
		Phases:        []workload.Phase{{Start: 0, End: end, Rate: rate}},
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerExactLatency drives a single-slot server at a service rate
// exactly matching the deterministic arrival gap: every request is
// served in exactly one second with no queueing.
func TestServerExactLatency(t *testing.T) {
	// Cost 1000 units = 1e6 milli-units; attained 1e7 milli over 10 s
	// means 1 milli-unit per microsecond per slot: a request takes
	// exactly 1e6 us. Deterministic arrivals at 1 req/s land at 1..9 s.
	s := mustServer(t, 1, 1000, 1, 10*sim.Second)
	var h Histogram
	s.Advance(10*sim.Second, sim.WorkFromUnits(10*1000), &h)
	if s.Offered() != 9 || s.Completed() != 9 {
		t.Fatalf("offered/completed = %d/%d, want 9/9", s.Offered(), s.Completed())
	}
	if s.SumLatencyUs() != 9*1_000_000 || s.MaxLatencyUs() != 1_000_000 {
		t.Fatalf("sum/max latency = %d/%d", s.SumLatencyUs(), s.MaxLatencyUs())
	}
	if h.Count() != 9 || h.Sum() != 9*1_000_000 {
		t.Fatalf("histogram count/sum = %d/%d", h.Count(), h.Sum())
	}
}

// TestServerStallAndResume: with zero attained work nothing completes;
// when work resumes, the stalled request finishes with the exact
// queueing delay included.
func TestServerStallAndResume(t *testing.T) {
	// One deterministic arrival at 2 s (gap 1/0.5; the 4 s draw crosses
	// the phase end at 3 s and is dropped).
	s := mustServer(t, 1, 1000, 0.5, 3*sim.Second)
	var h Histogram
	s.Advance(3*sim.Second, 0, &h)
	if s.Offered() != 1 || s.Completed() != 0 {
		t.Fatalf("stalled server offered/completed = %d/%d, want 1/0", s.Offered(), s.Completed())
	}
	// Over [3 s, 4 s] the VM attains twice the request cost: service
	// rate 2e6 milli / 1e6 us = 2 milli/us, so the residual 1e6 milli
	// finishes at 3.5 s — latency exactly 1.5 s.
	s.Advance(4*sim.Second, sim.WorkFromUnits(2000), &h)
	if s.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", s.Completed())
	}
	if s.MaxLatencyUs() != 1_500_000 {
		t.Fatalf("latency = %d us, want exactly 1500000", s.MaxLatencyUs())
	}
}

// TestServerFIFOAndSlots: two slots, three near-simultaneous requests.
// The third waits for the first completion, and completions preserve
// arrival order.
func TestServerFIFOAndSlots(t *testing.T) {
	// Deterministic 100 req/s in [0, 31 ms): arrivals at 10, 20, 30 ms.
	s := mustServer(t, 2, 1000, 100, 31*sim.Millisecond)
	var h Histogram
	// 1 milli-unit per us per slot => D = 2*span; attained = 2 units/us.
	span := sim.Time(3 * sim.Second)
	s.Advance(span, sim.Work(2*int64(span)), &h)
	if s.Offered() != 3 || s.Completed() != 3 {
		t.Fatalf("offered/completed = %d/%d, want 3/3", s.Offered(), s.Completed())
	}
	// Service time is exactly 1 s per request. Arrivals at 10 and 20 ms
	// start immediately (latency 1 s each); the 30 ms arrival waits for
	// the 1.010 s completion, finishing at 2.010 s: latency 1.980 s.
	wantSum := int64(1_000_000 + 1_000_000 + 1_980_000)
	if s.SumLatencyUs() != wantSum || s.MaxLatencyUs() != 1_980_000 {
		t.Fatalf("sum/max latency = %d/%d, want %d/1980000", s.SumLatencyUs(), s.MaxLatencyUs(), wantSum)
	}
}

// TestServerCarryAcrossSpans splits the same attained stream across
// many Advance calls and checks the result is identical to one big
// span — the residual-work carry is exact. The rate is chosen so each
// slot serves at an integer milli-unit-per-microsecond rate (4 units
// per us over 2 slots), making every capacity floor exact; with exact
// floors, span slicing must not move any completion by even 1 us.
func TestServerCarryAcrossSpans(t *testing.T) {
	mk := func() *Server { return mustServer(t, 2, 500, 7, 20*sim.Second) }
	one, many := mk(), mk()
	var hOne, hMany Histogram
	const rate = 4 // milli-units per us, whole-VM (integer per slot)
	one.Advance(20*sim.Second, sim.Work(rate*20*int64(sim.Second)), &hOne)
	for t0 := sim.Time(0); t0 < 20*sim.Second; t0 += 250 * sim.Millisecond {
		to := t0 + 250*sim.Millisecond
		many.Advance(to, sim.Work(rate*int64(250*sim.Millisecond)), &hMany)
	}
	if one.Completed() != many.Completed() || one.Offered() != many.Offered() {
		t.Fatalf("split run diverged: %d/%d vs %d/%d completed/offered",
			one.Completed(), one.Offered(), many.Completed(), many.Offered())
	}
	if one.SumLatencyUs() != many.SumLatencyUs() || one.MaxLatencyUs() != many.MaxLatencyUs() {
		t.Fatalf("split run latencies diverged: sum %d vs %d, max %d vs %d",
			one.SumLatencyUs(), many.SumLatencyUs(), one.MaxLatencyUs(), many.MaxLatencyUs())
	}
	if !reflect.DeepEqual(hOne, hMany) {
		t.Fatal("split run histograms diverged")
	}
}

// TestServerArrivalStreamMatchesWebApp: the serving client population
// and the CPU workload share the renewal-chain process, so identical
// (phases, seed) produce identical offered counts.
func TestServerArrivalStreamMatchesWebApp(t *testing.T) {
	phases := []workload.Phase{
		{Start: 0, End: 5 * sim.Second, Rate: 40},
		{Start: 8 * sim.Second, End: 20 * sim.Second, Rate: 11},
	}
	srv, err := New(Config{Phases: phases, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.NewWebApp(workload.WebAppConfig{Phases: phases, Seed: 99, MaxBacklog: -1})
	if err != nil {
		t.Fatal(err)
	}
	var h Histogram
	srv.Advance(20*sim.Second, 0, &h)
	wl.Tick(20 * sim.Second)
	if srv.Offered() != wl.Offered() {
		t.Fatalf("serving stream offered %d, workload offered %d", srv.Offered(), wl.Offered())
	}
	if srv.Offered() == 0 {
		t.Fatal("vacuous: no arrivals generated")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Slots: -1}); err == nil {
		t.Fatal("negative slots accepted")
	}
	if _, err := New(Config{RequestCost: -1}); err == nil {
		t.Fatal("negative cost accepted")
	}
	if _, err := New(Config{Phases: []workload.Phase{{Start: 1, End: 0, Rate: 1}}}); err == nil {
		t.Fatal("invalid phases accepted")
	}
	if _, err := New(Config{Share: 2, Shares: 2}); err == nil {
		t.Fatal("share outside its modulus accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShare(2, 2); err == nil {
		t.Fatal("SetShare outside its modulus accepted")
	}
}

// TestServeQueueShrinksAfterBurst: one deep burst must not pin its
// high-watermark backing array for the VM's lifetime — after the queue
// drains, the backing capacity shrinks back toward the live length.
func TestServeQueueShrinksAfterBurst(t *testing.T) {
	// Deterministic 10k req/s for 1 s with no attained work: everything
	// after the slots fill queues up.
	s := mustServer(t, 1, 100, 10000, sim.Second)
	var h Histogram
	s.Advance(sim.Second, 0, &h)
	if s.Queued() < 5000 {
		t.Fatalf("vacuous: burst queued only %d", s.Queued())
	}
	peak := cap(s.queue)
	// Drain the whole queue: plenty of attained work over a long span.
	s.Advance(10*sim.Second, sim.WorkFromUnits(100*20000), &h)
	if s.Queued() != 0 {
		t.Fatalf("queue not drained: %d left", s.Queued())
	}
	if c := cap(s.queue); c >= peak/4 {
		t.Fatalf("backing array not released: cap %d after drain (peak %d)", c, peak)
	}
}

// TestShareSplitPartition: replica share-splitting partitions one
// seeded arrival stream exactly — every arrival is offered to exactly
// one member, and a fast-forwarded late joiner sees exactly the
// arrivals after its start.
func TestShareSplitPartition(t *testing.T) {
	phases := []workload.Phase{{Start: 0, End: 20 * sim.Second, Rate: 40}}
	mk := func(share, shares int, start sim.Time, ff bool) *Server {
		s, err := New(Config{
			Phases: phases, Seed: 99,
			Share: share, Shares: shares,
			Start: start, FastForward: ff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var h Histogram
	whole := mk(0, 1, 0, false)
	whole.Advance(20*sim.Second, 0, &h)
	total := whole.Offered()
	if total == 0 {
		t.Fatal("vacuous: no arrivals")
	}

	s0, s1 := mk(0, 2, 0, false), mk(1, 2, 0, false)
	s0.Advance(20*sim.Second, 0, &h)
	s1.Advance(20*sim.Second, 0, &h)
	if s0.Offered()+s1.Offered() != total {
		t.Fatalf("split lost arrivals: %d + %d != %d", s0.Offered(), s1.Offered(), total)
	}
	if s0.Offered() == 0 || s1.Offered() == 0 {
		t.Fatalf("vacuous split: %d / %d", s0.Offered(), s1.Offered())
	}

	head := mk(0, 1, 0, false)
	head.Advance(10*sim.Second, 0, &h)
	late := mk(0, 1, 10*sim.Second, true)
	late.Advance(20*sim.Second, 0, &h)
	if head.Offered()+late.Offered() != total {
		t.Fatalf("fast-forward misaligned: %d + %d != %d", head.Offered(), late.Offered(), total)
	}
}
