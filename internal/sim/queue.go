package sim

import (
	"container/heap"
	"fmt"
)

// EventFunc is a callback fired by the event queue. The argument is the
// simulated time at which the event fires.
type EventFunc func(now Time)

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant so that firing order matches scheduling order.
type event struct {
	at  Time
	seq uint64
	fn  EventFunc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Queue is an ordered queue of future events. Events scheduled for the same
// instant fire in the order they were scheduled. The zero value is an empty
// queue ready to use.
type Queue struct {
	h   eventHeap
	seq uint64
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Schedule enqueues fn to fire at time at. Scheduling an event in the past
// relative to other events is allowed here; RunDue enforces monotonicity at
// execution time.
func (q *Queue) Schedule(at Time, fn EventFunc) {
	if fn == nil {
		return
	}
	q.seq++
	heap.Push(&q.h, event{at: at, seq: q.seq, fn: fn})
}

// Next returns the firing time of the earliest pending event. The second
// return value is false when the queue is empty.
func (q *Queue) Next() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// RunDue pops and fires, in order, every event whose time is <= now.
// Callbacks may schedule further events, including events due within the
// same call; those fire too. It returns the number of events fired, or an
// error if an event was found scheduled before a previously fired one would
// allow (which indicates a corrupted schedule).
func (q *Queue) RunDue(now Time) (int, error) {
	fired := 0
	last := Time(-1 << 62)
	for len(q.h) > 0 && q.h[0].at <= now {
		e := heap.Pop(&q.h).(event)
		if e.at < last {
			return fired, fmt.Errorf("sim: event queue out of order: %v after %v", e.at, last)
		}
		last = e.at
		e.fn(e.at)
		fired++
	}
	return fired, nil
}

// Clear drops all pending events.
func (q *Queue) Clear() {
	q.h = q.h[:0]
}
