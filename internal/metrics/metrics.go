// Package metrics provides the measurement infrastructure of the simulated
// host: utilization meters (the paper's "VM load", "VM global load",
// "Global load" and "Absolute load" quantities of Section 4), recorded time
// series for the figures, and rendering helpers (aligned tables, CSV,
// ASCII charts) used by the experiment harness.
package metrics

import (
	"fmt"
	"math"

	"pasched/internal/sim"
)

// DeltaMeter measures utilization by sampling a cumulative busy-time
// counter at a fixed interval and retaining the last k interval
// utilizations. The paper's Global load "represents an average of three
// successive processor utilization" (footnote 5); a DeltaMeter with k=3
// reproduces exactly that.
//
// The meter is read far more often than it samples (PAS reads it every
// 10 ms, the host samples every 100 ms), so Sample computes the average
// and Average returns it.
type DeltaMeter struct {
	interval sim.Time
	ring     []float64
	filled   int32
	idx      int32
	avg      float64 // the mean of the retained samples
	lastCum  sim.Time
	lastT    sim.Time
}

// NewDeltaMeter returns a meter sampling every interval and averaging the
// last k samples. It returns an error for non-positive interval or k.
func NewDeltaMeter(interval sim.Time, k int) (*DeltaMeter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("metrics: meter interval must be positive, got %v", interval)
	}
	if k <= 0 || k > math.MaxInt32 {
		return nil, fmt.Errorf("metrics: meter depth must be in [1, %d], got %d", math.MaxInt32, k)
	}
	return &DeltaMeter{interval: interval, ring: make([]float64, k)}, nil
}

// Interval returns the sampling interval.
func (m *DeltaMeter) Interval() sim.Time { return m.interval }

// Sample records the cumulative busy time cum observed at time now. The
// caller is responsible for sampling at (approximately) the meter interval;
// the meter computes the utilization of the elapsed span exactly.
func (m *DeltaMeter) Sample(now sim.Time, cum sim.Time) {
	if now <= m.lastT {
		return
	}
	util := float64(cum-m.lastCum) / float64(now-m.lastT)
	if util < 0 {
		util = 0
	}
	m.ring[m.idx] = util
	m.idx = (m.idx + 1) % int32(len(m.ring))
	if int(m.filled) < len(m.ring) {
		m.filled++
	}
	sum := 0.0
	for _, u := range m.ring[:m.filled] {
		sum += u
	}
	m.avg = sum / float64(m.filled)
	m.lastCum = cum
	m.lastT = now
}

// Last returns the utilization of the most recent sample, in [0,1].
func (m *DeltaMeter) Last() float64 {
	if m.filled == 0 {
		return 0
	}
	i := (int(m.idx) - 1 + len(m.ring)) % len(m.ring)
	return m.ring[i]
}

// Average returns the mean utilization of the retained samples, in [0,1]:
// the value the last Sample computed, summed in ring-index order, or 0
// before any sample.
func (m *DeltaMeter) Average() float64 { return m.avg }

// Series is a named time series: pairs of (simulated seconds, value).
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Mean returns the arithmetic mean of all values, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// MeanBetween returns the mean of the values with t0 <= t < t1, and the
// number of points considered.
func (s *Series) MeanBetween(t0, t1 float64) (float64, int) {
	sum, n := 0.0, 0
	for i, t := range s.T {
		if t >= t0 && t < t1 {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// Min returns the smallest value, or +Inf for an empty series.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.V {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest value, or -Inf for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.V {
		if v > max {
			max = v
		}
	}
	return max
}

// Stddev returns the population standard deviation of the values.
func (s *Series) Stddev() float64 {
	if len(s.V) == 0 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.V {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.V)))
}

// Transitions counts how many consecutive point pairs differ by more than
// eps, a measure of instability used to compare governors (Fig. 3 vs 4).
func (s *Series) Transitions(eps float64) int {
	n := 0
	for i := 1; i < len(s.V); i++ {
		if math.Abs(s.V[i]-s.V[i-1]) > eps {
			n++
		}
	}
	return n
}

// Recorder is an ordered collection of named series.
type Recorder struct {
	order []string
	by    map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{by: make(map[string]*Series)}
}

// Series returns the series with the given name, creating it on first use.
func (r *Recorder) Series(name string) *Series {
	if s, ok := r.by[name]; ok {
		return s
	}
	s := NewSeries(name)
	r.by[name] = s
	r.order = append(r.order, name)
	return s
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// All returns the series in creation order.
func (r *Recorder) All() []*Series {
	out := make([]*Series, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.by[n])
	}
	return out
}
