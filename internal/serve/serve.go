package serve

import (
	"fmt"
	"math/bits"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// DefaultSlots is the default per-VM service slot count.
const DefaultSlots = 4

// DefaultRequestCostDivisor relates the default served-page cost to the
// CPU workload's request cost: a reply costs 1/5 of a demand request
// (4 ms of reference CPU against the workload's 20 ms), so a healthy VM
// serves its client stream with five-fold headroom and queueing delay
// appears exactly when enforcement throttles the attained rate below
// the demand.
const DefaultRequestCostDivisor = 5

// Config configures one VM's serving model.
type Config struct {
	// Slots is the number of concurrent service slots. The VM's attained
	// work rate is statically partitioned across slots (each serves at
	// rate attained/Slots), the simms-style fixed per-slot service model.
	// Zero selects DefaultSlots.
	Slots int
	// RequestCost is the service demand of one request in work units.
	// Zero selects workload.DefaultRequestCost / DefaultRequestCostDivisor.
	RequestCost float64
	// Phases is the client population's request-rate profile (requests
	// per second, absolute simulated time) — the fleet passes the VM's
	// demand profile, so serving load mirrors CPU load with an
	// independent seeded stream.
	Phases []workload.Phase
	// Deterministic selects fixed inter-arrival gaps instead of Poisson.
	Deterministic bool
	// Seed seeds the client arrival stream.
	Seed uint64
	// Start is the server clock origin (the VM's attach time).
	Start sim.Time

	// Share and Shares split one open-loop arrival stream across replica
	// servers: a server admits exactly the arrivals whose global stream
	// index is congruent to Share modulo Shares (skipped arrivals are
	// not counted as offered). Zero Shares means a single unsplit stream.
	Share  int
	Shares int
	// FastForward discards (without offering) all arrivals at or before
	// Start, aligning a replica's stream copy with the history its
	// parent has already served.
	FastForward bool
}

// slot is one service slot: the request being served, if any.
type slot struct {
	busy    bool
	arrival sim.Time // request issue time (latency = completion - issue)
	since   sim.Time // when service last (re)started accounting
	rem     sim.Work // remaining service demand
}

// Server is one VM's serving state: the seeded open-loop client stream,
// the FIFO queue and the service slots. Advance is driven by the exact
// integer attained-work ledger of the VM's CPU workload, so every
// latency is a pure function of the (machine, time, attained) fold
// sequence — which the fleet keeps identical across shard and worker
// counts.
type Server struct {
	arr   *workload.ArrivalProcess
	slots []slot
	cost  sim.Work
	now   sim.Time

	queue []sim.Time // FIFO of waiting requests' issue instants
	qhead int

	// Share splitting (replicas).
	arrIdx int64
	share  int64
	shares int64

	offered   int64
	completed int64
	sumLatUs  int64
	maxLatUs  int64
}

// New builds a server. The phase profile is validated as in
// workload.NewWebApp.
func New(cfg Config) (*Server, error) {
	if cfg.Slots == 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Slots < 0 || cfg.Slots > 1024 {
		return nil, fmt.Errorf("serve: slot count %d outside [1, 1024]", cfg.Slots)
	}
	if cfg.RequestCost == 0 {
		cfg.RequestCost = workload.DefaultRequestCost / DefaultRequestCostDivisor
	}
	if cfg.RequestCost < 0 {
		return nil, fmt.Errorf("serve: negative request cost %v", cfg.RequestCost)
	}
	if cfg.Shares == 0 {
		cfg.Shares, cfg.Share = 1, 0
	}
	if cfg.Shares < 1 || cfg.Shares > 1024 || cfg.Share < 0 || cfg.Share >= cfg.Shares {
		return nil, fmt.Errorf("serve: share %d/%d invalid", cfg.Share, cfg.Shares)
	}
	cost := sim.WorkFromUnits(cfg.RequestCost)
	if cost <= 0 {
		cost = 1 // a zero-work request would complete before it starts
	}
	arr, err := workload.NewArrivalProcess(cfg.Phases, cfg.Deterministic, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Server{
		arr:    arr,
		slots:  make([]slot, cfg.Slots),
		cost:   cost,
		now:    cfg.Start,
		share:  int64(cfg.Share),
		shares: int64(cfg.Shares),
	}
	if cfg.FastForward {
		for {
			a, ok := s.arr.Peek()
			if !ok || a > cfg.Start {
				break
			}
			s.arr.Pop()
			s.arrIdx++
		}
	}
	return s, nil
}

// mulDivFloor returns floor(a*b/d) for 0 <= a, b and 0 < d, exact via a
// 128-bit intermediate. Callers guarantee the quotient fits in int64.
func mulDivFloor(a, b, d int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi == 0 {
		return int64(lo / uint64(d))
	}
	q, _ := bits.Div64(hi, lo, uint64(d))
	return int64(q)
}

// mulDivCeil returns ceil(a*b/d) under the same contract.
func mulDivCeil(a, b, d int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	lo, carry := bits.Add64(lo, uint64(d-1), 0)
	hi += carry
	if hi == 0 {
		return int64(lo / uint64(d))
	}
	q, _ := bits.Div64(hi, lo, uint64(d))
	return int64(q)
}

// Advance runs the server from its clock to `to`, given the exact
// integer work the VM attained over that span. Per-slot service rate is
// attained/(span*Slots) work per microsecond, applied piecewise-exactly:
// a slot serving from s completes a residual demand rem at
// s + ceil(rem*span*Slots/attained), all in 128-bit-safe integer
// arithmetic. Requests that do not finish carry their exact residual
// into the next span, so latency is independent of how the fleet's
// barriers slice time. Completions record into h (the owning shard's
// per-class interval histogram) and into the server's own counters.
//
// Event order within the span: slot completions and owned arrivals,
// earliest first, with a completion before an arrival on ties (a slot
// freed at an instant serves the request arriving at that instant).
//
// attained == 0 stalls service: arrivals queue and nothing completes.
func (s *Server) Advance(to sim.Time, attained sim.Work, h *Histogram) {
	if to <= s.now {
		return
	}
	from := s.now
	// D = span*slots: the per-slot rate denominator. Span is bounded by
	// the trace horizon (~1e15 us) and slots by 1024, so D fits int64.
	D := int64(to-from) * int64(len(s.slots))
	att := int64(attained)
	if att < 0 {
		att = 0
	}
	// Carried requests restart accounting at the span start: their
	// pre-span progress is already subtracted from rem.
	for i := range s.slots {
		if s.slots[i].busy {
			s.slots[i].since = from
		}
	}
	for {
		na, haveA := s.nextArrival(to)
		nc, ci := s.nextCompletion(att, D, to)
		if ci >= 0 && (!haveA || nc <= na) {
			sl := &s.slots[ci]
			lat := int64(nc - sl.arrival)
			h.Record(lat)
			s.completed++
			s.sumLatUs += lat
			if lat > s.maxLatUs {
				s.maxLatUs = lat
			}
			sl.busy = false
			if s.qlen() > 0 {
				s.start(ci, s.qpop(), nc)
			}
			continue
		}
		if !haveA {
			break
		}
		s.arr.Pop()
		s.arrIdx++
		s.offered++
		if idle := s.idleSlot(); idle >= 0 {
			at := na
			if at < from {
				at = from // defensive: a pre-span arrival cannot earn pre-span service
			}
			s.start(idle, na, at)
		} else {
			s.queue = append(s.queue, na)
		}
	}
	// Span end: charge partial service to still-busy slots.
	if att > 0 {
		for i := range s.slots {
			if sl := &s.slots[i]; sl.busy {
				sl.rem -= sim.Work(mulDivFloor(att, int64(to-sl.since), D))
			}
		}
	}
	s.now = to
}

// nextArrival returns the next in-span arrival this server owns,
// skipping — without offering — arrivals belonging to other shares.
func (s *Server) nextArrival(to sim.Time) (sim.Time, bool) {
	for {
		a, ok := s.arr.Peek()
		if !ok || a > to {
			return 0, false
		}
		if s.shares > 1 && s.arrIdx%s.shares != s.share {
			s.arr.Pop()
			s.arrIdx++
			continue
		}
		return a, true
	}
}

// nextCompletion returns the earliest in-span completion among busy
// slots (ties to the lowest slot index), or (0, -1) if none completes
// by `to`. A slot completes in-span iff its remaining service fits the
// slot's capacity to the span end; only then is the exact completion
// instant computed, which keeps every intermediate inside int64.
func (s *Server) nextCompletion(att, D int64, to sim.Time) (sim.Time, int) {
	if att <= 0 {
		return 0, -1
	}
	best, bi := sim.Time(0), -1
	for i := range s.slots {
		sl := &s.slots[i]
		if !sl.busy {
			continue
		}
		if mulDivFloor(att, int64(to-sl.since), D) < int64(sl.rem) {
			continue
		}
		// floor(att*e/D) >= rem implies ceil(rem*D/att) <= e = to-since,
		// so the quotient is a span-bounded time.
		u := sl.since + sim.Time(mulDivCeil(int64(sl.rem), D, att))
		if u <= sl.since {
			u = sl.since + 1 // positive demand takes at least a microsecond
		}
		if bi < 0 || u < best {
			best, bi = u, i
		}
	}
	return best, bi
}

// start begins serving the request issued at arrival on slot i at time
// at.
func (s *Server) start(i int, arrival, at sim.Time) {
	s.slots[i] = slot{busy: true, arrival: arrival, since: at, rem: s.cost}
}

func (s *Server) idleSlot() int {
	for i := range s.slots {
		if !s.slots[i].busy {
			return i
		}
	}
	return -1
}

func (s *Server) qlen() int { return len(s.queue) - s.qhead }

func (s *Server) qpop() sim.Time {
	r := s.queue[s.qhead]
	s.qhead++
	if s.qhead > 64 && s.qhead*2 >= len(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
		// Shrink once the live queue is well below the high watermark,
		// so one burst does not pin its peak allocation for the VM's
		// lifetime.
		if c := cap(s.queue); c > 256 && n*4 <= c {
			nc := n * 2
			if nc < 64 {
				nc = 64
			}
			nq := make([]sim.Time, n, nc)
			copy(nq, s.queue)
			s.queue = nq
		}
	}
	return r
}

// SetShare reassigns the server's slice of a split open-loop arrival
// stream (replica scale-out/in). All members of a replica group must
// be retargeted at the same simulated instant.
func (s *Server) SetShare(share, shares int) error {
	if shares < 1 || shares > 1024 || share < 0 || share >= shares {
		return fmt.Errorf("serve: share %d/%d invalid", share, shares)
	}
	s.share, s.shares = int64(share), int64(shares)
	return nil
}

// Now returns the server clock.
func (s *Server) Now() sim.Time { return s.now }

// Offered returns how many requests clients have issued; the
// Offered − Completed not yet served are queued or in service.
func (s *Server) Offered() int64 { return s.offered }

// Queued returns how many requests are waiting for a service slot (not
// counting requests in service), for queue-depth telemetry samples.
func (s *Server) Queued() int { return s.qlen() }

// Completed returns how many requests have been served.
func (s *Server) Completed() int64 { return s.completed }

// SumLatencyUs returns the exact sum of completed-request latencies in
// microseconds.
func (s *Server) SumLatencyUs() int64 { return s.sumLatUs }

// MaxLatencyUs returns the maximum completed-request latency in
// microseconds.
func (s *Server) MaxLatencyUs() int64 { return s.maxLatUs }
