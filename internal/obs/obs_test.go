package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pasched/internal/sim"
)

func TestKindAndStateNames(t *testing.T) {
	for k := KindVMState; k <= KindLatency; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind: %q", Kind(200).String())
	}
	for s := StateNone; s <= StateIdle; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
	if State(200).String() != "unknown" {
		t.Errorf("out-of-range state: %q", State(200).String())
	}
}

// collectSink buffers every window it receives.
type collectSink struct {
	windows  [][]Event
	finished sim.Time
}

func (c *collectSink) Events(w []Event) error {
	cp := make([]Event, len(w))
	copy(cp, w)
	c.windows = append(c.windows, cp)
	return nil
}

func (c *collectSink) Finish(at sim.Time) error {
	c.finished = at
	return nil
}

// TestRecorderMerge is the sort fallback's test: lane 0 emits out of
// time order, breaking the per-lane order contract, so the first window
// is sorted by (At, Lane, Seq) instead of merged — and counted. The
// buffers recycle between drains, a later in-order window merges again,
// and keep retains the concatenated stream.
func TestRecorderMerge(t *testing.T) {
	sink := &collectSink{}
	r := NewRecorder(2, sink, true)

	m0 := NewMachineObs(r.Ring(0), 0)
	m1 := NewMachineObs(r.Ring(1), 1)
	co := NewMachineObs(r.CoordinatorRing(), LaneCoordinator)

	m1.Emit(5, KindRefill, "", 0, 0)
	m0.Emit(10, KindVMState, "a", int64(StateRun), 0)
	co.Emit(5, KindPlace, "a", 0, 0)
	m0.Emit(5, KindPState, "", 2667, 0)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}

	want := []Event{
		{At: 5, Lane: LaneCoordinator, Seq: 1, Kind: KindPlace, VM: "a"},
		{At: 5, Lane: 0, Seq: 2, Kind: KindPState, A: 2667},
		{At: 5, Lane: 1, Seq: 1, Kind: KindRefill},
		{At: 10, Lane: 0, Seq: 1, Kind: KindVMState, VM: "a", A: int64(StateRun)},
	}
	if len(sink.windows) != 1 || !reflect.DeepEqual(sink.windows[0], want) {
		t.Fatalf("merged window:\n%+v\nwant\n%+v", sink.windows, want)
	}
	if r.Fallbacks() != 1 {
		t.Errorf("Fallbacks() = %d after an out-of-order lane, want 1", r.Fallbacks())
	}

	// Second window: rings were recycled, sequence numbers continue.
	m0.Emit(20, KindVMState, "a", int64(StateIdle), 0)
	if err := r.Finish(30); err != nil {
		t.Fatal(err)
	}
	if sink.finished != 30 {
		t.Errorf("Finish time %v, want 30", sink.finished)
	}
	if len(sink.windows) != 2 {
		t.Fatalf("windows: %d, want 2", len(sink.windows))
	}
	if got := sink.windows[1][0].Seq; got != 3 {
		t.Errorf("lane 0 sequence restarted: seq %d, want 3", got)
	}
	if r.Total() != 5 {
		t.Errorf("Total() = %d, want 5", r.Total())
	}
	if len(r.Events()) != 5 {
		t.Errorf("Events() retained %d, want 5", len(r.Events()))
	}
	if r.Fallbacks() != 1 {
		t.Errorf("Fallbacks() = %d after an in-order window, want still 1", r.Fallbacks())
	}

	// An empty drain is a no-op for the sink.
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(sink.windows) != 2 {
		t.Errorf("empty drain produced a window")
	}
}

// TestRecorderMergeMatchesSort drives many lanes across several shards
// with in-order runs that collide heavily on At, and checks every merged
// window equals the same events sorted by (At, Lane, Seq) — the
// definition the merge replaces — with no fallback taken.
func TestRecorderMergeMatchesSort(t *testing.T) {
	const shards, lanes = 3, 41
	sink := &collectSink{}
	r := NewRecorder(shards, sink, false)
	ms := make([]*MachineObs, lanes)
	for i := range ms {
		if i == lanes-1 {
			ms[i] = NewMachineObs(r.CoordinatorRing(), LaneCoordinator)
		} else {
			ms[i] = NewMachineObs(r.Ring(i%shards), int32(i))
		}
	}
	rng := sim.NewRNG(3)
	clock := make([]sim.Time, lanes)
	for w := 0; w < 5; w++ {
		var want []Event
		for k := 0; k < 4000; k++ {
			i := int(rng.Uint64() % lanes)
			clock[i] += sim.Time(rng.Uint64()%3) * 1000 // many equal stamps across lanes
			if w%2 == 1 && i%7 == 0 {
				continue // some lanes stay empty in some windows
			}
			ms[i].Emit(clock[i], KindRefill, "", int64(k), 0)
			m := ms[i]
			want = append(want, m.run[len(m.run)-1])
		}
		slices.SortFunc(want, func(a, b Event) int {
			if c := cmp.Compare(a.At, b.At); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Lane, b.Lane); c != 0 {
				return c
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := sink.windows[len(sink.windows)-1]; !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: merge differs from the (At, Lane, Seq) sort", w)
		}
	}
	if r.Fallbacks() != 0 {
		t.Errorf("Fallbacks() = %d for in-order lanes, want 0", r.Fallbacks())
	}
}

// TestLedgerConservation exercises the attribution buckets: every
// attributed microsecond lands in exactly one bucket, and the buckets
// sum to the Attach/Detach residency.
func TestLedgerConservation(t *testing.T) {
	var l VMLedger
	l.Attach(100)
	l.AddBusy(40, false)
	l.AddBusy(10, true)
	l.AddWait(20, l.WaitState(StateCapped))
	l.AddWait(15, l.WaitState(StateContended))
	l.AddWait(5, l.WaitState(StateIdle))
	l.Detach(190)
	if l.SpanUs != 90 {
		t.Errorf("SpanUs = %d, want 90", l.SpanUs)
	}
	if l.Sum() != l.SpanUs {
		t.Errorf("Sum() = %d != SpanUs %d", l.Sum(), l.SpanUs)
	}
	if l.RunUs != 40 || l.DownclockedUs != 10 || l.CappedUs != 20 || l.ContendedUs != 15 || l.IdleUs != 5 {
		t.Errorf("buckets: %+v", l)
	}

	// A second residency segment accumulates; the migrating flag diverts
	// every wait classification.
	l.Attach(200)
	l.Migrating = true
	l.AddWait(30, l.WaitState(StateContended))
	l.AddWait(20, l.WaitState(StateIdle))
	l.AddBusy(10, false)
	l.Detach(260)
	if l.MigratingUs != 50 {
		t.Errorf("MigratingUs = %d, want 50 (flag must override wait states)", l.MigratingUs)
	}
	if l.SpanUs != 150 || l.Sum() != l.SpanUs {
		t.Errorf("after second segment: Sum %d, SpanUs %d", l.Sum(), l.SpanUs)
	}
}

// TestPerfettoRoundTrip drives every event kind through the writer and
// checks the produced document passes the validator with the expected
// shape.
func TestPerfettoRoundTrip(t *testing.T) {
	var buf strings.Builder
	pw := NewPerfettoWriter(&buf)
	window := []Event{
		{At: 0, Lane: LaneCoordinator, Seq: 1, Kind: KindPowerOn, A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 2, Kind: KindPlace, VM: "vm-1", A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 3, Kind: KindReject, VM: "vm-2"},
		{At: 10, Lane: 0, Seq: 1, Kind: KindVMState, VM: "vm-1", A: int64(StateRun)},
		{At: 30, Lane: 0, Seq: 2, Kind: KindPState, A: 1600},
		{At: 30, Lane: 0, Seq: 3, Kind: KindVMState, VM: "vm-1", A: int64(StateDownclocked)},
		{At: 40, Lane: 0, Seq: 4, Kind: KindRefill},
		{At: 45, Lane: 0, Seq: 5, Kind: KindExhausted, VM: "vm-1"},
		{At: 45, Lane: 0, Seq: 6, Kind: KindVMState, VM: "vm-1", A: int64(StateCapped)},
		{At: 50, Lane: 0, Seq: 7, Kind: KindPattern, A: 12, B: 2},
		{At: 60, Lane: LaneCoordinator, Seq: 4, Kind: KindMigStart, VM: "vm-1", A: 0, B: 1},
		{At: 60, Lane: 0, Seq: 8, Kind: KindVMState, VM: "vm-1", A: int64(StateMigrating)},
		{At: 80, Lane: LaneCoordinator, Seq: 5, Kind: KindMigDone, VM: "vm-1", A: 1},
		{At: 90, Lane: 1, Seq: 1, Kind: KindVMState, VM: "vm-1", A: int64(StateContended)},
		{At: 100, Lane: 0, Seq: 9, Kind: KindBoundary, VM: "event", A: 7},
		{At: 100, Lane: 1, Seq: 2, Kind: KindQueueDepth, VM: "vm-1", A: 3, B: 17},
		{At: 100, Lane: LaneCoordinator, Seq: 6, Kind: KindLatency, A: 1500, B: 9000},
		{At: 100, Lane: LaneCoordinator, Seq: 7, Kind: KindPowerOff, A: 0},
		{At: 100, Lane: LaneCoordinator, Seq: 8, Kind: KindBarrier, A: 1},
	}
	if err := pw.Events(window); err != nil {
		t.Fatal(err)
	}
	if err := pw.Finish(120); err != nil {
		t.Fatal(err)
	}

	st, err := ValidatePerfetto(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("validator rejected the writer's output: %v\n%s", err, buf.String())
	}
	// vm-1 on machine 0: run[10,30) downclocked[30,45) capped[45,60)
	// migrating[60,...Finish closes at 120]; on machine 1:
	// contended[90,...closed at 120]. 5 slices total.
	if st.Slices != 5 {
		t.Errorf("slices = %d, want 5\n%s", st.Slices, buf.String())
	}
	// pstate, batch:event, queue:vm-1, p50, p99.
	if st.Counters != 5 {
		t.Errorf("counters = %d, want 5", st.Counters)
	}
	// power-on, place, reject, refill, exhausted, pattern, mig-start,
	// mig-done, power-off, barrier.
	if st.Instants != 10 {
		t.Errorf("instants = %d, want 10", st.Instants)
	}
	if st.EndUs != 120 {
		t.Errorf("EndUs = %d, want 120", st.EndUs)
	}
	// Two VM tracks (vm-1 on machine 0 and on machine 1).
	if st.Tracks != 2 {
		t.Errorf("slice tracks = %d, want 2", st.Tracks)
	}
}

func TestValidatePerfettoRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"invalid json", `{"traceEvents":[`, "invalid JSON"},
		{"unknown phase", `{"traceEvents":[{"ph":"B","name":"x","ts":1,"pid":1,"tid":1}]}`, "unknown phase"},
		{"missing ts", `{"traceEvents":[{"ph":"i","name":"x","pid":1,"tid":1}]}`, "missing ts"},
		{"negative ts", `{"traceEvents":[{"ph":"i","name":"x","ts":-5,"pid":1,"tid":1}]}`, "negative ts"},
		{"missing dur", `{"traceEvents":[{"ph":"X","name":"x","ts":1,"pid":1,"tid":1}]}`, "negative dur"},
		{"overlapping slices", `{"traceEvents":[
			{"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
			{"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":1}]}`, "overlaps"},
		{"counter regression", `{"traceEvents":[
			{"ph":"C","name":"c","ts":10,"pid":1,"tid":0},
			{"ph":"C","name":"c","ts":5,"pid":1,"tid":0}]}`, "before previous sample"},
	}
	for _, tc := range cases {
		if _, err := ValidatePerfetto(strings.NewReader(tc.doc)); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Slices on different tracks may interleave freely.
	ok := `{"traceEvents":[
		{"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
		{"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":2},
		{"ph":"X","name":"c","ts":10,"dur":0,"pid":1,"tid":1}]}`
	if _, err := ValidatePerfetto(strings.NewReader(ok)); err != nil {
		t.Errorf("disjoint tracks rejected: %v", err)
	}
}

// refWriter is the reference Perfetto encoder: one fmt format string per
// record, with %q for names and json.Marshal for VM names, against which
// PerfettoWriter's byte appends are checked. It closes open slices at
// Finish in (pid, tid) order like PerfettoWriter.
type refKey struct {
	lane int32
	vm   string
}

type refWriter struct {
	w       io.Writer
	wrote   bool
	tracks  map[refKey]*vmTrack
	nextTid map[int32]int64
	procs   map[int32]bool
}

func newRefWriter(w io.Writer) *refWriter {
	io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	return &refWriter{w: w, tracks: map[refKey]*vmTrack{}, nextTid: map[int32]int64{}, procs: map[int32]bool{}}
}

func (p *refWriter) emitf(format string, args ...any) {
	if p.wrote {
		io.WriteString(p.w, ",\n")
	}
	p.wrote = true
	fmt.Fprintf(p.w, format, args...)
}

func (p *refWriter) process(lane int32) {
	if p.procs[lane] {
		return
	}
	p.procs[lane] = true
	name := "coordinator"
	if lane >= 0 {
		name = fmt.Sprintf("machine-%d", lane)
	}
	p.emitf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pid(lane), name)
}

func (p *refWriter) track(lane int32, vmName string) *vmTrack {
	k := refKey{lane: lane, vm: vmName}
	if t, ok := p.tracks[k]; ok {
		return t
	}
	p.process(lane)
	p.nextTid[lane]++
	t := &vmTrack{tid: p.nextTid[lane]}
	t.nameJSON, _ = json.Marshal(vmName)
	p.tracks[k] = t
	p.emitf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
		pid(lane), t.tid, t.nameJSON)
	return t
}

func (p *refWriter) closeSlice(lane int32, t *vmTrack, at sim.Time) {
	st := t.openState
	t.openState = StateNone
	if st == StateNone || st == StateIdle {
		return
	}
	p.emitf(`{"ph":"X","name":%q,"cat":"vm","pid":%d,"tid":%d,"ts":%d,"dur":%d}`,
		st.String(), pid(lane), t.tid, int64(t.openAt), int64(at-t.openAt))
}

func (p *refWriter) counter(lane int32, nameJSON []byte, at sim.Time, v int64) {
	p.process(lane)
	p.emitf(`{"ph":"C","name":%s,"pid":%d,"tid":0,"ts":%d,"args":{"value":%d}}`,
		nameJSON, pid(lane), int64(at), v)
}

func (p *refWriter) instant(lane int32, tid int64, name string, at sim.Time, args string) {
	p.process(lane)
	if args == "" {
		p.emitf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%d}`,
			name, pid(lane), tid, int64(at))
		return
	}
	p.emitf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%d,"args":{%s}}`,
		name, pid(lane), tid, int64(at), args)
}

func refJSON(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}

func (p *refWriter) Events(window []Event) {
	for i := range window {
		e := &window[i]
		switch e.Kind {
		case KindVMState:
			t := p.track(e.Lane, e.VM)
			p.closeSlice(e.Lane, t, e.At)
			t.openAt = e.At
			t.openState = State(e.A)
		case KindPState:
			p.counter(e.Lane, []byte(`"pstate_mhz"`), e.At, e.A)
		case KindRefill:
			p.instant(e.Lane, 0, "refill", e.At, "")
		case KindExhausted:
			t := p.track(e.Lane, e.VM)
			p.instant(e.Lane, t.tid, "exhausted", e.At, "")
		case KindPattern:
			p.instant(e.Lane, 0, "pattern", e.At, fmt.Sprintf(`"quanta":%d,"vms":%d`, e.A, e.B))
		case KindBoundary:
			for _, s := range BoundarySourceNames {
				if s == e.VM {
					p.counter(e.Lane, refJSON("batch:"+s), e.At, e.A)
				}
			}
		case KindQueueDepth:
			t := p.track(e.Lane, e.VM)
			if t.queueJSON == nil {
				t.queueJSON = refJSON("queue:" + e.VM)
			}
			p.counter(e.Lane, t.queueJSON, e.At, e.A)
		case KindPlace:
			p.instant(e.Lane, 0, "place", e.At, fmt.Sprintf(`"vm":%s,"machine":%d`, refJSON(e.VM), e.A))
		case KindReject:
			p.instant(e.Lane, 0, "reject", e.At, fmt.Sprintf(`"vm":%s`, refJSON(e.VM)))
		case KindMigStart:
			p.instant(e.Lane, 0, "mig-start", e.At, fmt.Sprintf(`"vm":%s,"from":%d,"to":%d`, refJSON(e.VM), e.A, e.B))
		case KindMigDone:
			p.instant(e.Lane, 0, "mig-done", e.At, fmt.Sprintf(`"vm":%s,"to":%d`, refJSON(e.VM), e.A))
		case KindPowerOn:
			p.instant(e.Lane, 0, "power-on", e.At, fmt.Sprintf(`"machine":%d`, e.A))
		case KindPowerOff:
			p.instant(e.Lane, 0, "power-off", e.At, fmt.Sprintf(`"machine":%d`, e.A))
		case KindBarrier:
			p.instant(e.Lane, 0, "barrier", e.At, fmt.Sprintf(`"live_vms":%d`, e.A))
		case KindLatency:
			p.counter(e.Lane, []byte(`"req_p50_us"`), e.At, e.A)
			p.counter(e.Lane, []byte(`"req_p99_us"`), e.At, e.B)
		case KindRecompensate:
			p.instant(e.Lane, 0, "recompensate", e.At, fmt.Sprintf(`"mhz":%d,"vms":%d`, e.A, e.B))
		case KindAutoscale:
			p.instant(e.Lane, 0, "autoscale", e.At, fmt.Sprintf(`"vm":%s,"action":%d,"value":%d`, refJSON(e.VM), e.A, e.B))
		}
	}
}

func (p *refWriter) Finish(at sim.Time) {
	keys := make([]refKey, 0, len(p.tracks))
	for k := range p.tracks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b refKey) int {
		if c := cmp.Compare(a.lane, b.lane); c != 0 {
			return c
		}
		return cmp.Compare(p.tracks[a].tid, p.tracks[b].tid)
	})
	for _, k := range keys {
		if t := p.tracks[k]; t.openState != StateNone && at > t.openAt {
			p.closeSlice(k.lane, t, at)
		}
	}
	io.WriteString(p.w, "\n]}\n")
}

// everyKindWindow returns one window carrying every Kind — and an
// out-of-range state and kind — for the VM name vm, on the coordinator
// and two machine lanes.
func everyKindWindow(vm string) []Event {
	var w []Event
	at := sim.Time(0)
	for _, lane := range []int32{LaneCoordinator, 0, 3} {
		add := func(k Kind, name string, a, b int64) {
			at += 7
			w = append(w, Event{At: at, Lane: lane, Seq: uint32(len(w) + 1), Kind: k, VM: name, A: a, B: b})
		}
		add(KindVMState, vm, int64(StateRun), 0)
		add(KindPState, "", 1600, 0)
		add(KindRefill, "", 0, 0)
		add(KindExhausted, vm, 0, 0)
		add(KindVMState, vm, int64(StateCapped), 0)
		add(KindPattern, "", 12, 3)
		for _, src := range BoundarySourceNames {
			add(KindBoundary, src, 5, 0)
		}
		add(KindBoundary, "no-such-source", 5, 0)
		add(KindQueueDepth, vm, 4, 17)
		add(KindPlace, vm, 2, 0)
		add(KindReject, vm, 0, 0)
		add(KindMigStart, vm, 2, 3)
		add(KindVMState, vm, int64(StateMigrating), 0)
		add(KindMigDone, vm, 3, 0)
		add(KindPowerOn, "", 9, 0)
		add(KindPowerOff, "", 9, 0)
		add(KindBarrier, "", 31, 0)
		add(KindLatency, "", 1500, -9000)
		add(KindRecompensate, "", 2133, 2)
		add(KindAutoscale, vm, 1, 40)
		add(KindVMState, vm, int64(StateContended), 0)
		add(KindVMState, vm, int64(StateDownclocked), 0)
		add(KindVMState, vm, 200, 0) // out-of-range state
		add(KindVMState, vm, int64(StateIdle), 0)
		add(KindVMState, vm, int64(StateRun), 0)
		add(Kind(200), vm, 1, 1) // unknown kind: ignored
		add(KindVMState, "other-"+vm, int64(StateDownclocked), 0)
	}
	return w
}

// TestPerfettoEncoderMatchesReference pins the strconv encoder to the
// fmt-based reference byte for byte: every Kind, over VM names that
// need JSON escaping (quotes, backslashes, HTML-sensitive characters,
// control characters, non-ASCII, invalid UTF-8, line separators).
func TestPerfettoEncoderMatchesReference(t *testing.T) {
	names := []string{
		"vm-1", "", "a\"quoted\"name", `back\slash`, "lt<", "gt>", "a&b", "ctl\x01\x1f",
		"nl\ncr\rtab\t", "bs\bff\f", "del\x7f", "naïve-ünïcode", "日本語", "sep\u2028\u2029",
		"bad\xff\xfeutf8", "emoji-\U0001F600",
	}
	for _, name := range names {
		t.Run(fmt.Sprintf("%q", name), func(t *testing.T) {
			var got, want bytes.Buffer
			pw := NewPerfettoWriter(&got)
			ref := newRefWriter(&want)
			window := everyKindWindow(name)
			// Two windows: the second reuses every track the first created.
			for i := 0; i < 2; i++ {
				if err := pw.Events(window); err != nil {
					t.Fatal(err)
				}
				ref.Events(window)
			}
			if err := pw.Finish(window[len(window)-1].At + 10); err != nil {
				t.Fatal(err)
			}
			ref.Finish(window[len(window)-1].At + 10)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				g, w := got.String(), want.String()
				i := 0
				for i < len(g) && i < len(w) && g[i] == w[i] {
					i++
				}
				t.Fatalf("encoders diverge at byte %d:\n got %q\nwant %q", i, g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
			}
		})
	}
}

// TestPerfettoEventsNoAllocs pins the encoder's hot path: a window whose
// tracks were all seen before encodes without allocating.
func TestPerfettoEventsNoAllocs(t *testing.T) {
	pw := NewPerfettoWriter(io.Discard)
	window := everyKindWindow("vm-7")
	if err := pw.Events(window); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = pw.Events(window) }); n != 0 {
		t.Errorf("PerfettoWriter.Events allocates %v per warmed window, want 0", n)
	}
}

// TestPerfettoFinishDeterministic: open slices close in (pid, tid)
// order, so identical inputs give identical bytes however the writer's
// track map iterates.
func TestPerfettoFinishDeterministic(t *testing.T) {
	var window []Event
	for lane := int32(0); lane < 8; lane++ {
		for v := 0; v < 8; v++ {
			window = append(window, Event{At: 1, Lane: lane, Kind: KindVMState, VM: fmt.Sprintf("vm-%d", v), A: int64(StateRun)})
		}
	}
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		pw := NewPerfettoWriter(&buf)
		if err := pw.Events(window); err != nil {
			t.Fatal(err)
		}
		if err := pw.Finish(10); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d wrote different bytes than run 0", i)
		}
	}
	if n := bytes.Count(first, []byte(`"ph":"X"`)); n != 64 {
		t.Errorf("Finish closed %d slices, want 64", n)
	}
}
