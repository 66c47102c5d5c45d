// Package sim provides the discrete-time simulation kernel used by the
// virtualized-host model: a simulated clock, an ordered event queue and a
// deterministic random source.
//
// All simulated time is expressed as Time, an integer count of microseconds
// since the start of the simulation. The kernel is single-threaded and fully
// deterministic: two runs with the same seed and the same event schedule
// produce identical traces.
package sim

import (
	"fmt"
	"strconv"
	"time"
)

// Time is a point in simulated time, counted in microseconds from the start
// of the simulation. It is deliberately distinct from time.Time: simulations
// run millions of times faster than the wall clock and must not accidentally
// mix the two domains.
type Time int64

// Duration constants for building simulated times and intervals.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Never is the sentinel "no deadline" time returned by the horizon
// methods (sched.Scheduler.NextBoundary, workload.Workload.NextChange,
// governor.Governor.NextDecision) when no future boundary exists. It is
// far beyond any reachable simulated time while leaving headroom against
// overflow in comparisons.
const Never Time = 1 << 62

// Seconds returns t expressed in (simulated) seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Milliseconds returns t expressed in (simulated) milliseconds.
func (t Time) Milliseconds() float64 {
	return float64(t) / float64(Millisecond)
}

// Duration converts t into a time.Duration of equal simulated length. It is
// provided for interoperability with formatting helpers only.
func (t Time) Duration() time.Duration {
	return time.Duration(t) * time.Microsecond
}

// String renders t in a compact human-readable form, e.g. "12.500s".
func (t Time) String() string {
	return strconv.FormatFloat(t.Seconds(), 'f', 3, 64) + "s"
}

// FromSeconds converts a floating-point number of seconds into a Time,
// rounding to the nearest microsecond.
func FromSeconds(s float64) Time {
	return Time(s*float64(Second) + 0.5)
}

// Clock is the simulation clock. The zero value is a clock at time zero,
// ready to use.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. It returns an error if d is
// negative; simulated time never flows backwards.
func (c *Clock) Advance(d Time) error {
	if d < 0 {
		return fmt.Errorf("sim: advance by negative duration %d", d)
	}
	c.now += d
	return nil
}

// AdvanceTo moves the clock forward to t. It returns an error if t is in the
// simulated past.
func (c *Clock) AdvanceTo(t Time) error {
	if t < c.now {
		return fmt.Errorf("sim: advance to %v before current time %v", t, c.now)
	}
	c.now = t
	return nil
}
