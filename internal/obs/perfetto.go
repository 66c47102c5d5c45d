package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"pasched/internal/sim"
)

// PerfettoWriter streams the recorder's merged event windows as a
// Chrome trace-event JSON file (the legacy JSON format Perfetto and
// chrome://tracing both load). The layout:
//
//   - one process per lane: pid 0 is the coordinator, pid i+1 is
//     machine i (named by process_name metadata);
//   - tid 0 of each machine process is the machine track, carrying
//     refill/pattern instants and the pstate_mhz / batching counters;
//   - each VM seen on a machine gets its own thread (named by
//     thread_name metadata) whose complete ("X") slices tile the VM's
//     residency with its attribution states — run, downclocked,
//     capped, contended, migrating — with idle left as gaps;
//   - coordinator instants record placement, rejection, migration and
//     power decisions, and per-interval latency counters.
//
// Timestamps are the simulation's integer microseconds, which is
// exactly the trace-event "ts" unit, so no conversion happens.
//
// The writer consumes windows in barrier order. Within a lane, event
// times never decrease, so every track's slices and counter samples
// are emitted with monotonically non-decreasing timestamps
// (cmd/tracecheck validates exactly that).
//
// Each record is appended with strconv appends to one reused output
// buffer, written out in chunks of about 64 KiB, so encoding a window
// of already-seen tracks allocates nothing.
type PerfettoWriter struct {
	w     io.Writer
	err   error
	wrote bool
	buf   []byte    // encoded records not yet written to w
	procs []process // indexed by pid
}

// flushAt is the buffered size that triggers a write to the underlying
// writer.
const flushAt = 1 << 16

// process is one lane's trace process.
type process struct {
	named  bool                // process_name metadata written
	tracks map[string]*vmTrack // VM threads by name; tid i+1 is the i-th created
}

// vmTrack is one VM's thread within a machine process.
type vmTrack struct {
	tid       int64
	nameJSON  []byte // JSON-escaped VM name
	queueJSON []byte // JSON-escaped "queue:<vm>" counter name, lazily built
	openAt    sim.Time
	openState State
}

// NewPerfettoWriter returns a writer streaming trace-event JSON to w.
// Call Finish (via the recorder) to close open slices and the JSON
// document; the caller owns closing the underlying writer.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{w: w, buf: make([]byte, 0, flushAt+1<<10)}
	pw.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	return pw
}

func (p *PerfettoWriter) raw(s string) { p.buf = append(p.buf, s...) }

// begin starts a record at the end of the buffer, after the separator
// from the previous record.
func (p *PerfettoWriter) begin() []byte {
	b := p.buf
	if p.wrote {
		b = append(b, ",\n"...)
	}
	p.wrote = true
	return b
}

// end keeps the finished record, writing the buffer out once it is full.
func (p *PerfettoWriter) end(b []byte) {
	p.buf = b
	if len(b) >= flushAt {
		p.flush()
	}
}

// flush writes the buffered records to the underlying writer; after a
// write error the writer keeps encoding but discards its output.
func (p *PerfettoWriter) flush() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// appendInt appends a pre-formatted key (such as `,"pid":`) and an
// integer.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendJSON appends s as a JSON string, byte-identical to json.Marshal.
// A name made only of printable ASCII that encoding/json leaves
// unescaped is copied between quotes without allocating; anything else
// is escaped by json.Marshal itself.
func appendJSON(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// pid maps a lane to its trace process id (the coordinator's lane -1
// becomes pid 0).
func pid(lane int32) int64 { return int64(lane) + 1 }

// process returns a lane's process, emitting its process_name metadata
// on first use.
func (p *PerfettoWriter) process(lane int32) *process {
	i := int(pid(lane))
	if i >= len(p.procs) {
		p.procs = append(p.procs, make([]process, i+1-len(p.procs))...)
	}
	pr := &p.procs[i]
	if pr.named {
		return pr
	}
	pr.named = true
	b := appendInt(p.begin(), `{"ph":"M","name":"process_name","pid":`, pid(lane))
	if lane >= 0 {
		b = appendInt(b, `,"tid":0,"args":{"name":"machine-`, int64(lane))
	} else {
		b = append(b, `,"tid":0,"args":{"name":"coordinator`...)
	}
	p.end(append(b, `"}}`...))
	return pr
}

// track returns the VM's thread on lane, creating it (and its metadata
// events) on first sight.
func (p *PerfettoWriter) track(lane int32, vmName string) *vmTrack {
	pr := p.process(lane)
	if t, ok := pr.tracks[vmName]; ok {
		return t
	}
	if pr.tracks == nil {
		pr.tracks = make(map[string]*vmTrack)
	}
	t := &vmTrack{tid: int64(len(pr.tracks)) + 1, nameJSON: appendJSON(nil, vmName)}
	pr.tracks[vmName] = t
	b := appendInt(p.begin(), `{"ph":"M","name":"thread_name","pid":`, pid(lane))
	b = appendInt(b, `,"tid":`, t.tid)
	b = append(append(b, `,"args":{"name":`...), t.nameJSON...)
	p.end(append(b, "}}"...))
	return t
}

// closeSlice emits the open state slice of t (if any) as a complete
// event ending at time at. Idle spans are gaps: no slice is emitted.
func (p *PerfettoWriter) closeSlice(lane int32, t *vmTrack, at sim.Time) {
	st := t.openState
	t.openState = StateNone
	if st == StateNone || st == StateIdle {
		return
	}
	name := `"unknown"`
	if int(st) < len(quotedStates) {
		name = quotedStates[st]
	}
	b := append(append(p.begin(), `{"ph":"X","name":`...), name...)
	b = appendInt(b, `,"cat":"vm","pid":`, pid(lane))
	b = appendInt(b, `,"tid":`, t.tid)
	b = appendInt(b, `,"ts":`, int64(t.openAt))
	b = appendInt(b, `,"dur":`, int64(at-t.openAt))
	p.end(append(b, '}'))
}

// counter emits one counter sample; name must be pre-escaped JSON.
func (p *PerfettoWriter) counter(lane int32, nameJSON []byte, at sim.Time, v int64) {
	p.process(lane)
	b := append(append(p.begin(), `{"ph":"C","name":`...), nameJSON...)
	b = appendInt(b, `,"pid":`, pid(lane))
	b = appendInt(b, `,"tid":0,"ts":`, int64(at))
	b = appendInt(b, `,"args":{"value":`, v)
	p.end(append(b, "}}"...))
}

// instantArgs lays out each instant kind's args object: whether it
// opens with the event's VM name, then the quoted keys of A and B (""
// when absent). A kind with neither has no args object.
var instantArgs = [...]struct {
	vm   bool
	a, b string
}{
	KindRefill:       {},
	KindExhausted:    {},
	KindPattern:      {a: `"quanta":`, b: `"vms":`},
	KindPlace:        {vm: true, a: `"machine":`},
	KindReject:       {vm: true},
	KindMigStart:     {vm: true, a: `"from":`, b: `"to":`},
	KindMigDone:      {vm: true, a: `"to":`},
	KindPowerOn:      {a: `"machine":`},
	KindPowerOff:     {a: `"machine":`},
	KindBarrier:      {a: `"live_vms":`},
	KindRecompensate: {a: `"mhz":`, b: `"vms":`},
	KindAutoscale:    {vm: true, a: `"action":`, b: `"value":`},
}

// instant emits e as an instant event on (e.Lane, tid), named after its
// kind, with the kind's args.
func (p *PerfettoWriter) instant(e *Event, tid int64) {
	p.process(e.Lane)
	b := append(append(p.begin(), `{"ph":"i","s":"t","name":`...), quotedKinds[e.Kind]...)
	b = appendInt(b, `,"pid":`, pid(e.Lane))
	b = appendInt(b, `,"tid":`, tid)
	b = appendInt(b, `,"ts":`, int64(e.At))
	args := &instantArgs[e.Kind]
	if !args.vm && args.a == "" {
		p.end(append(b, '}'))
		return
	}
	b = append(b, `,"args":{`...)
	if args.vm {
		b = appendJSON(append(b, `"vm":`...), e.VM)
	}
	if args.a != "" {
		if args.vm {
			b = append(b, ',')
		}
		b = appendInt(b, args.a, e.A)
	}
	if args.b != "" {
		b = appendInt(append(b, ','), args.b, e.B)
	}
	p.end(append(b, "}}"...))
}

// quotedStates and quotedKinds hold the state and kind names as
// strconv.Quote renders them, so records copy them instead of quoting
// per event.
var quotedStates, quotedKinds = quoteAll(stateNames[:]), quoteAll(kindNames[:])

func quoteAll(names []string) []string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = strconv.Quote(n)
	}
	return q
}

// boundaryNames are the pre-escaped counter names for KindBoundary
// sources, keyed by the shared source-name strings.
var boundaryNames = func() map[string][]byte {
	m := make(map[string][]byte, len(BoundarySourceNames))
	for _, s := range BoundarySourceNames {
		m[s] = appendJSON(nil, "batch:"+s)
	}
	return m
}()

var (
	pstateName = []byte(`"pstate_mhz"`)
	p50Name    = []byte(`"req_p50_us"`)
	p99Name    = []byte(`"req_p99_us"`)
)

// Events implements EventSink.
func (p *PerfettoWriter) Events(window []Event) error {
	for i := range window {
		e := &window[i]
		switch e.Kind {
		case KindVMState:
			t := p.track(e.Lane, e.VM)
			p.closeSlice(e.Lane, t, e.At)
			t.openAt = e.At
			t.openState = State(e.A)
		case KindPState:
			p.counter(e.Lane, pstateName, e.At, e.A)
		case KindExhausted:
			p.instant(e, p.track(e.Lane, e.VM).tid)
		case KindRefill, KindPattern, KindPlace, KindReject, KindMigStart, KindMigDone,
			KindPowerOn, KindPowerOff, KindBarrier, KindRecompensate, KindAutoscale:
			p.instant(e, 0)
		case KindBoundary:
			if name, ok := boundaryNames[e.VM]; ok {
				p.counter(e.Lane, name, e.At, e.A)
			}
		case KindQueueDepth:
			t := p.track(e.Lane, e.VM)
			if t.queueJSON == nil {
				t.queueJSON = appendJSON(nil, "queue:"+e.VM)
			}
			p.counter(e.Lane, t.queueJSON, e.At, e.A)
		case KindLatency:
			p.counter(e.Lane, p50Name, e.At, e.A)
			p.counter(e.Lane, p99Name, e.At, e.B)
		}
	}
	return p.err
}

// Finish implements EventSink: it closes every open slice at the run's
// end time, in (pid, tid) order so the document's bytes are a pure
// function of the events, and terminates the JSON document.
func (p *PerfettoWriter) Finish(at sim.Time) error {
	var open []*vmTrack
	for i := range p.procs {
		open = open[:0]
		for _, t := range p.procs[i].tracks {
			if t.openState != StateNone && at > t.openAt {
				open = append(open, t)
			}
		}
		slices.SortFunc(open, func(a, b *vmTrack) int { return cmp.Compare(a.tid, b.tid) })
		for _, t := range open {
			p.closeSlice(int32(i)-1, t, at)
		}
	}
	p.raw("\n]}\n")
	p.flush()
	return p.err
}

// TraceStats summarizes a validated trace file.
type TraceStats struct {
	Events   int
	Slices   int
	Counters int
	Instants int
	Tracks   int
	EndUs    int64
}

// ValidatePerfetto parses a trace-event JSON document and checks
// well-formedness: known phases, non-negative timestamps and durations,
// monotonically non-decreasing and non-overlapping slices per
// (pid, tid) track, and non-decreasing counter samples per (pid, name)
// series. cmd/tracecheck and the CLI tests share it.
func ValidatePerfetto(r io.Reader) (TraceStats, error) {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int64    `json:"pid"`
			Tid  int64    `json:"tid"`
		} `json:"traceEvents"`
	}
	var st TraceStats
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return st, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	type track struct{ pid, tid int64 }
	type series struct {
		pid  int64
		name string
	}
	sliceEnd := make(map[track]float64)
	lastCount := make(map[series]float64)
	tracks := make(map[track]bool)
	for i, e := range doc.TraceEvents {
		st.Events++
		switch e.Ph {
		case "M":
			continue
		case "X", "C", "i":
		default:
			return st, fmt.Errorf("trace: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ts == nil {
			return st, fmt.Errorf("trace: event %d (%s %q): missing ts", i, e.Ph, e.Name)
		}
		if *e.Ts < 0 {
			return st, fmt.Errorf("trace: event %d (%s %q): negative ts %v", i, e.Ph, e.Name, *e.Ts)
		}
		if end := int64(*e.Ts); end > st.EndUs {
			st.EndUs = end
		}
		switch e.Ph {
		case "X":
			st.Slices++
			if e.Dur == nil || *e.Dur < 0 {
				return st, fmt.Errorf("trace: event %d (X %q): missing or negative dur", i, e.Name)
			}
			tk := track{e.Pid, e.Tid}
			tracks[tk] = true
			if prev, ok := sliceEnd[tk]; ok && *e.Ts < prev {
				return st, fmt.Errorf("trace: event %d (X %q): ts %v overlaps previous slice ending %v on pid %d tid %d",
					i, e.Name, *e.Ts, prev, e.Pid, e.Tid)
			}
			sliceEnd[tk] = *e.Ts + *e.Dur
			if end := int64(*e.Ts + *e.Dur); end > st.EndUs {
				st.EndUs = end
			}
		case "C":
			st.Counters++
			sr := series{e.Pid, e.Name}
			if prev, ok := lastCount[sr]; ok && *e.Ts < prev {
				return st, fmt.Errorf("trace: event %d (C %q): ts %v before previous sample %v on pid %d",
					i, e.Name, *e.Ts, prev, e.Pid)
			}
			lastCount[sr] = *e.Ts
		case "i":
			st.Instants++
		}
	}
	st.Tracks = len(tracks)
	return st, nil
}
