package main

import (
	"hash/crc32"
	"time"

	"pasched/internal/fleet"
	"pasched/internal/obs"
	"pasched/internal/sim"
)

// seamStats accumulates the spans a traced run records at the program's
// public seams. Every seam is called from the fleet coordinator only, so
// no locking is needed.
type seamStats struct {
	SourceCalls int64         `json:"source_calls"`
	SourceBusy  time.Duration `json:"source_busy_ns"`
	SinkCalls   int64         `json:"sink_calls"`
	SinkBusy    time.Duration `json:"sink_busy_ns"`
	SinkBytes   int64         `json:"sink_bytes"`
	// IntervalsMs holds the wall time between consecutive Sink.Interval
	// calls: one full reporting interval each.
	IntervalsMs []float64     `json:"intervals_ms"`
	ObsWindows  int64         `json:"obs_windows"`
	ObsEvents   int64         `json:"obs_events"`
	ObsBusy     time.Duration `json:"obs_busy_ns"`
	ObsBytes    int64         `json:"obs_bytes"`
	// ExperimentsMs holds the wall time of each paper experiment.
	ExperimentsMs []float64 `json:"experiments_ms"`

	lastInterval time.Time
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countingWriter discards what it is given, keeping its length and,
// unless lengthOnly, its CRC-32C for the run digest.
type countingWriter struct {
	n          int64
	crc        uint32
	lengthOnly bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if !w.lengthOnly {
		w.crc = crc32.Update(w.crc, castagnoli, p)
	}
	return len(p), nil
}

// timedSource times TraceSource.Next.
type timedSource struct {
	next fleet.TraceSource
	st   *seamStats
}

func (s *timedSource) Classes() map[string]fleet.VMClass { return s.next.Classes() }
func (s *timedSource) Horizon() sim.Time                 { return s.next.Horizon() }
func (s *timedSource) Err() error                        { return s.next.Err() }

func (s *timedSource) Next() (fleet.VMEvent, bool) {
	t0 := time.Now()
	ev, ok := s.next.Next()
	s.st.SourceBusy += time.Since(t0)
	s.st.SourceCalls++
	return ev, ok
}

// timedSink times every report Sink call and the gaps between intervals.
type timedSink struct {
	next fleet.Sink
	st   *seamStats
	w    *countingWriter
}

func (s *timedSink) Interval(iv *fleet.Interval) error {
	t0 := time.Now()
	if !s.st.lastInterval.IsZero() {
		s.st.IntervalsMs = append(s.st.IntervalsMs, ms(t0.Sub(s.st.lastInterval)))
	}
	s.st.lastInterval = t0
	err := s.next.Interval(iv)
	s.done(t0)
	return err
}

func (s *timedSink) Outcome(o *fleet.VMOutcome) error {
	t0 := time.Now()
	err := s.next.Outcome(o)
	s.done(t0)
	return err
}

func (s *timedSink) Finish(sum *fleet.Summary) error {
	t0 := time.Now()
	err := s.next.Finish(sum)
	s.done(t0)
	return err
}

func (s *timedSink) done(t0 time.Time) {
	s.st.SinkBusy += time.Since(t0)
	s.st.SinkCalls++
	s.st.SinkBytes = s.w.n
}

// timedEventSink times the recorder's obs.EventSink calls.
type timedEventSink struct {
	next obs.EventSink
	st   *seamStats
	w    *countingWriter
}

func (s *timedEventSink) Events(window []obs.Event) error {
	t0 := time.Now()
	err := s.next.Events(window)
	s.st.ObsBusy += time.Since(t0)
	s.st.ObsWindows++
	s.st.ObsEvents += int64(len(window))
	s.st.ObsBytes = s.w.n
	return err
}

func (s *timedEventSink) Finish(at sim.Time) error {
	t0 := time.Now()
	err := s.next.Finish(at)
	s.st.ObsBusy += time.Since(t0)
	s.st.ObsBytes = s.w.n
	return err
}
