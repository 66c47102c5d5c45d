package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pasched/internal/sim"
)

func TestDeltaMeterValidation(t *testing.T) {
	if _, err := NewDeltaMeter(0, 3); err == nil {
		t.Error("NewDeltaMeter(0 interval) succeeded")
	}
	if _, err := NewDeltaMeter(sim.Second, 0); err == nil {
		t.Error("NewDeltaMeter(0 depth) succeeded")
	}
}

func TestDeltaMeterUtilization(t *testing.T) {
	m, err := NewDeltaMeter(sim.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Average() != 0 || m.Last() != 0 {
		t.Error("fresh meter reports non-zero utilization")
	}
	// 1st second: 200ms busy; 2nd: 400ms; 3rd: 600ms.
	m.Sample(1*sim.Second, 200*sim.Millisecond)
	m.Sample(2*sim.Second, 600*sim.Millisecond)
	m.Sample(3*sim.Second, 1200*sim.Millisecond)
	if got := m.Last(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Last = %v, want 0.6", got)
	}
	if got := m.Average(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("Average = %v, want 0.4 (paper's 3-sample mean)", got)
	}
	// 4th second: fully busy; the 200ms sample falls out of the ring.
	m.Sample(4*sim.Second, 2200*sim.Millisecond)
	want := (0.4 + 0.6 + 1.0) / 3
	if got := m.Average(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Average = %v, want %v", got, want)
	}
}

func TestDeltaMeterIgnoresNonAdvancingSamples(t *testing.T) {
	m, err := NewDeltaMeter(sim.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Sample(sim.Second, 500*sim.Millisecond)
	m.Sample(sim.Second, 900*sim.Millisecond) // same time: ignored
	if got := m.Last(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Last = %v, want 0.5", got)
	}
}

func TestSeriesStatistics(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{10, 20, 30, 40} {
		s.Add(float64(i), v)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if got := s.Mean(); got != 25 {
		t.Errorf("Mean = %v, want 25", got)
	}
	if got := s.Min(); got != 10 {
		t.Errorf("Min = %v, want 10", got)
	}
	if got := s.Max(); got != 40 {
		t.Errorf("Max = %v, want 40", got)
	}
	if got, n := s.MeanBetween(1, 3); got != 25 || n != 2 {
		t.Errorf("MeanBetween(1,3) = %v, %d; want 25, 2", got, n)
	}
	if _, n := s.MeanBetween(100, 200); n != 0 {
		t.Errorf("MeanBetween(empty) n = %d, want 0", n)
	}
	wantSD := math.Sqrt((225 + 25 + 25 + 225) / 4)
	if got := s.Stddev(); math.Abs(got-wantSD) > 1e-9 {
		t.Errorf("Stddev = %v, want %v", got, wantSD)
	}
}

func TestSeriesTransitions(t *testing.T) {
	s := NewSeries("freq")
	for _, v := range []float64{1600, 1600, 2667, 1600, 1600, 2667} {
		s.Add(0, v)
	}
	if got := s.Transitions(1); got != 3 {
		t.Errorf("Transitions = %d, want 3", got)
	}
}

func TestEmptySeriesEdgeCases(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Stddev() != 0 {
		t.Error("empty series Mean/Stddev not zero")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty series Min/Max not infinities")
	}
}

func TestRecorderOrderAndIdentity(t *testing.T) {
	r := NewRecorder()
	a := r.Series("a")
	b := r.Series("b")
	if r.Series("a") != a {
		t.Error("Series(name) returned a different instance")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
	all := r.All()
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Error("All() mismatch")
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewSeries("v20")
	a.Add(0, 20)
	a.Add(1, 21)
	b := NewSeries("v70,raw") // comma forces quoting
	b.Add(1, 70)

	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "time_s,v20,\"v70,raw\"\n0,20,\n1,21,70\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if err := WriteCSV(&sb); err != nil {
		t.Errorf("WriteCSV() with no series: %v", err)
	}
}

func TestASCIIChart(t *testing.T) {
	s := NewSeries("load")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i%50))
	}
	out := ASCIIChart(60, 10, s)
	if out == "" {
		t.Fatal("empty chart")
	}
	if !strings.Contains(out, "load") {
		t.Error("chart missing legend")
	}
	if !strings.Contains(out, "*") {
		t.Error("chart missing data glyphs")
	}
	// Degenerate inputs return empty rather than panicking.
	if ASCIIChart(5, 2, s) != "" {
		t.Error("tiny chart not rejected")
	}
	if ASCIIChart(60, 10) != "" {
		t.Error("chart with no series not rejected")
	}
	if ASCIIChart(60, 10, NewSeries("empty")) != "" {
		t.Error("chart with empty series not rejected")
	}
}

func TestASCIIChartFlatSeries(t *testing.T) {
	s := NewSeries("flat")
	s.Add(0, 5)
	s.Add(1, 5)
	if ASCIIChart(40, 6, s) == "" {
		t.Error("flat series produced no chart")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1. cf_min", "Processor", "cf_min")
	tb.AddRow("Intel Xeon X3440", Fmt(0.94867, 5))
	tb.AddRow("short")
	out := tb.Render()
	for _, want := range []string{"Table 1. cf_min", "Processor", "0.94867", "short"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestQuickMeterBounds(t *testing.T) {
	// Property: utilization stays in [0, 1] for any monotone counter whose
	// increments never exceed the elapsed time.
	f := func(steps []uint8) bool {
		m, err := NewDeltaMeter(100*sim.Millisecond, 3)
		if err != nil {
			return false
		}
		now, cum := sim.Time(0), sim.Time(0)
		for _, st := range steps {
			now += 100 * sim.Millisecond
			busy := sim.Time(st) * sim.Millisecond
			if busy > 100*sim.Millisecond {
				busy = 100 * sim.Millisecond
			}
			cum += busy
			m.Sample(now, cum)
			if a := m.Average(); a < 0 || a > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeltaMeterAverageIsRingMean checks the average Sample stores
// against the mean recomputed from the ring, summed in index order as
// Average once summed it: bit for bit after every sample, at depths 1 to
// 4 through many ring wraps, with utilizations that round differently in
// another order, and with samples at or before the last one, which must
// change nothing.
func TestDeltaMeterAverageIsRingMean(t *testing.T) {
	ringMean := func(m *DeltaMeter) float64 {
		if m.filled == 0 {
			return 0
		}
		sum := 0.0
		for i := 0; i < int(m.filled); i++ {
			sum += m.ring[i]
		}
		return sum / float64(m.filled)
	}
	for depth := 1; depth <= 4; depth++ {
		m, err := NewDeltaMeter(100*sim.Millisecond, depth)
		if err != nil {
			t.Fatal(err)
		}
		if m.Average() != 0 {
			t.Fatalf("depth %d: average %v before any sample", depth, m.Average())
		}
		now, cum := sim.Time(0), sim.Time(0)
		noops := 0
		for i := 0; i < 200; i++ {
			if i%7 == 3 {
				// At or before the last sample: a no-op.
				before := *m
				before.ring = append([]float64(nil), m.ring...)
				m.Sample(now-sim.Time(i%2), cum+sim.Millisecond)
				if !reflect.DeepEqual(*m, before) {
					t.Fatalf("depth %d: sample at %v after %v changed the meter", depth, now-sim.Time(i%2), now)
				}
				noops++
			}
			span := 100*sim.Millisecond + sim.Time(i%5)*37
			now += span
			cum += sim.Time((i*7919)%101) * span / 100 // 0-100 % of the span
			m.Sample(now, cum)
			if got, want := m.Average(), ringMean(m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("depth %d, sample %d: average %v, ring mean %v", depth, i, got, want)
			}
		}
		if noops == 0 || m.filled != int32(depth) {
			t.Fatalf("depth %d: %d no-op samples, ring filled %d", depth, noops, m.filled)
		}
	}
}
