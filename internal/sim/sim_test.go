package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		secs float64
	}{
		{"zero", 0, 0},
		{"one second", Second, 1},
		{"one millisecond", Millisecond, 0.001},
		{"90 minutes", 90 * Minute, 5400},
		{"mixed", 2*Second + 500*Millisecond, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t.Seconds(); got != tt.secs {
				t.Errorf("Seconds() = %v, want %v", got, tt.secs)
			}
		})
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms int32) bool {
		s := float64(ms) / 1000
		return FromSeconds(s) == Time(ms)*Millisecond
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(ms int32) bool {
		if ms < 0 {
			ms = -ms
		}
		return f(ms)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := (2500 * Millisecond).String(); got != "2.500s" {
		t.Errorf("String() = %q, want %q", got, "2.500s")
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
	if err := c.Advance(5 * Second); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if c.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s", c.Now())
	}
	if err := c.Advance(-1); err == nil {
		t.Error("Advance(-1) succeeded, want error")
	}
	if err := c.AdvanceTo(4 * Second); err == nil {
		t.Error("AdvanceTo(past) succeeded, want error")
	}
	if err := c.AdvanceTo(10 * Second); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if c.Now() != 10*Second {
		t.Errorf("Now() = %v, want 10s", c.Now())
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var order []int
	q.Schedule(3*Second, func(Time) { order = append(order, 3) })
	q.Schedule(1*Second, func(Time) { order = append(order, 1) })
	q.Schedule(2*Second, func(Time) { order = append(order, 2) })

	n, err := q.RunDue(10 * Second)
	if err != nil {
		t.Fatalf("RunDue: %v", err)
	}
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Errorf("order[%d] = %d, want %d", i, order[i], v)
		}
	}
}

func TestQueueTieBreakIsFIFO(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(Second, func(Time) { order = append(order, i) })
	}
	if _, err := q.RunDue(Second); err != nil {
		t.Fatalf("RunDue: %v", err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-broken order %v not FIFO", order)
		}
	}
}

func TestQueueRunDuePartial(t *testing.T) {
	var q Queue
	fired := 0
	q.Schedule(1*Second, func(Time) { fired++ })
	q.Schedule(5*Second, func(Time) { fired++ })

	if _, err := q.RunDue(2 * Second); err != nil {
		t.Fatalf("RunDue: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if q.Len() != 1 {
		t.Errorf("Len() = %d, want 1", q.Len())
	}
	next, ok := q.Next()
	if !ok || next != 5*Second {
		t.Errorf("Next() = %v, %v; want 5s, true", next, ok)
	}
}

func TestQueueEventSchedulesEvent(t *testing.T) {
	var q Queue
	var got []Time
	q.Schedule(1*Second, func(now Time) {
		got = append(got, now)
		q.Schedule(now+Second, func(now Time) { got = append(got, now) })
	})
	if _, err := q.RunDue(3 * Second); err != nil {
		t.Fatalf("RunDue: %v", err)
	}
	if len(got) != 2 || got[0] != Second || got[1] != 2*Second {
		t.Errorf("cascade fired at %v, want [1s 2s]", got)
	}
}

func TestQueueNilFuncIgnored(t *testing.T) {
	var q Queue
	q.Schedule(Second, nil)
	if q.Len() != 0 {
		t.Errorf("Len() = %d after scheduling nil, want 0", q.Len())
	}
}

func TestQueueClear(t *testing.T) {
	var q Queue
	q.Schedule(Second, func(Time) {})
	q.Clear()
	if q.Len() != 0 {
		t.Errorf("Len() = %d after Clear, want 0", q.Len())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
	if r.Intn(0) != 0 {
		t.Error("Intn(0) != 0")
	}
}

func TestQuickQueueAlwaysOrdered(t *testing.T) {
	// Property: regardless of scheduling order, events fire in
	// non-decreasing time order.
	f := func(times []uint16) bool {
		var q Queue
		var fired []Time
		for _, at := range times {
			q.Schedule(Time(at)*Millisecond, func(now Time) {
				fired = append(fired, now)
			})
		}
		if _, err := q.RunDue(Hour); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
