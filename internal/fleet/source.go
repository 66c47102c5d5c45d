package fleet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pasched/internal/sim"
)

// TraceSource is a pull-based VM lifecycle trace: the class catalogue
// and horizon are known up front, the events stream one at a time in
// the canonical (Arrive, Name) order. It is how the fleet consumes
// traces too large to materialize — a 10M-arrival run holds one event,
// not ten million.
//
// Three implementations exist: Trace.Source (the materialized trace as
// the trivial adapter), GenerateStream (the synthetic generator
// emitting lazily), and ParseTraceStream (streaming CSV ingestion).
//
// Contract: Next returns events strictly increasing in (Arrive, Name)
// and ok=false at end of stream; after ok=false the caller must check
// Err for a truncated or malformed stream. The fleet validates each
// event as it is pulled (known class, arrival inside the horizon,
// positive lifetime, activity in [0,1], order) — what it cannot check
// in O(1) memory is global name uniqueness, so streamed sources only
// guarantee that no two *concurrently live* VMs share a name (the
// fleet rejects the collision); materialize and Validate when the full
// guarantee matters.
type TraceSource interface {
	// Classes returns the class catalogue. Callers must treat the map
	// as read-only.
	Classes() map[string]VMClass
	// Horizon returns the nominal end of the trace: events arrive
	// strictly before it.
	Horizon() sim.Time
	// Next returns the next event in (Arrive, Name) order; ok=false
	// at end of stream.
	Next() (ev VMEvent, ok bool)
	// Err returns the error that ended the stream early, nil after a
	// clean end. Valid once Next has returned ok=false.
	Err() error
}

// traceSource adapts a materialized Trace to the streaming interface.
type traceSource struct {
	t *Trace
	i int
}

// Source returns the trace as a TraceSource, the trivial adapter: the
// events are already materialized and sorted, so the source just walks
// them.
func (t *Trace) Source() TraceSource { return &traceSource{t: t} }

func (s *traceSource) Classes() map[string]VMClass { return s.t.Classes }
func (s *traceSource) Horizon() sim.Time           { return s.t.Horizon }
func (s *traceSource) Err() error                  { return nil }

func (s *traceSource) Next() (VMEvent, bool) {
	if s.i >= len(s.t.Events) {
		return VMEvent{}, false
	}
	ev := s.t.Events[s.i]
	s.i++
	return ev, true
}

// Drain materializes a source into a Trace, the inverse of
// Trace.Source. The result is validated in full — this is the
// convenience path for small traces and tests; at streaming scale,
// feed the source to NewStream instead.
func Drain(src TraceSource) (*Trace, error) {
	t := &Trace{Classes: make(map[string]VMClass, len(src.Classes())), Horizon: src.Horizon()}
	for name, c := range src.Classes() {
		t.Classes[name] = c
	}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		t.Events = append(t.Events, ev)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// csvSource streams the ParseTrace CSV format. The prologue — the
// horizon record and every class record — must precede the first vm
// record (WriteCSV and WriteCSVStream emit that layout), because the
// stream cannot be buffered to resolve forward references; vm records
// must already be sorted by (arrive, name), since a streaming reader
// cannot sort. ParseTrace parses its records with the same methods.
type csvSource struct {
	sc      *bufio.Scanner
	classes map[string]VMClass
	horizon sim.Time
	line    int
	err     error
	done    bool
	// pending holds the first vm record's fields, already scanned by
	// the prologue loop in ParseTraceStream.
	pending []string

	prevArrive sim.Time
	prevName   string
	first      bool
}

// ParseTraceStream opens a streaming reader over the CSV trace format
// ParseTrace reads. It consumes the prologue (horizon and class
// records) immediately and returns a TraceSource streaming the vm
// records one at a time, so a multi-gigabyte trace never materializes.
//
// Unlike ParseTrace, the streaming reader requires the horizon and
// every class record before the first vm record, and requires the vm
// records sorted by (arrive, name); global name uniqueness is only
// checked for adjacent records (the fleet additionally rejects any two
// concurrently live VMs sharing a name).
func ParseTraceStream(r io.Reader) (TraceSource, error) {
	s := newCSVSource(r)
	// Consume the prologue: everything up to (not including) the first
	// vm record.
	for {
		parts, ok := s.scanRecord()
		if !ok {
			if s.err != nil {
				return nil, s.err
			}
			return nil, fmt.Errorf("fleet: trace without VM events")
		}
		if parts[0] == "vm" {
			if s.horizon <= 0 {
				return nil, fmt.Errorf("fleet: trace line %d: vm record before the horizon record (streaming traces need the prologue first)", s.line)
			}
			s.pending = parts
			break
		}
		if err := s.prologueRecord(parts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newCSVSource returns a record reader over r with an empty prologue.
func newCSVSource(r io.Reader) *csvSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &csvSource{sc: sc, classes: make(map[string]VMClass), first: true}
}

// prologueRecord applies one horizon or class record.
func (s *csvSource) prologueRecord(parts []string) error {
	switch parts[0] {
	case "horizon":
		if len(parts) != 2 {
			return fmt.Errorf("fleet: trace line %d: want 'horizon,seconds', got %q", s.line, strings.Join(parts, ","))
		}
		secs, err := parseSeconds(parts[1])
		if err != nil {
			return fmt.Errorf("fleet: trace line %d: %w", s.line, err)
		}
		if s.horizon != 0 {
			return fmt.Errorf("fleet: trace line %d: duplicate horizon", s.line)
		}
		s.horizon = sim.FromSeconds(secs)
		if s.horizon <= 0 {
			return fmt.Errorf("fleet: trace line %d: horizon %v not positive", s.line, s.horizon)
		}
	case "class":
		if len(parts) != 4 {
			return fmt.Errorf("fleet: trace line %d: want 'class,name,credit_pct,memory_mb', got %q", s.line, strings.Join(parts, ","))
		}
		credit, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return fmt.Errorf("fleet: trace line %d: %w", s.line, err)
		}
		mem, err := strconv.Atoi(parts[3])
		if err != nil {
			return fmt.Errorf("fleet: trace line %d: %w", s.line, err)
		}
		c := VMClass{Name: parts[1], CreditPct: credit, MemoryMB: mem}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("fleet: trace line %d: %w", s.line, err)
		}
		if _, dup := s.classes[c.Name]; dup {
			return fmt.Errorf("fleet: trace line %d: duplicate class %q", s.line, c.Name)
		}
		s.classes[c.Name] = c
	default:
		return fmt.Errorf("fleet: trace line %d: unknown record %q", s.line, parts[0])
	}
	return nil
}

// scanRecord returns the next non-comment record's trimmed fields.
func (s *csvSource) scanRecord() ([]string, bool) {
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts, true
	}
	if err := s.sc.Err(); err != nil {
		// The scanner failed inside the line after the last one it
		// returned: an over-long line or a read error mid-stream.
		s.err = fmt.Errorf("fleet: trace line %d: read: %w", s.line+1, err)
	}
	return nil, false
}

func (s *csvSource) Classes() map[string]VMClass { return s.classes }
func (s *csvSource) Horizon() sim.Time           { return s.horizon }
func (s *csvSource) Err() error                  { return s.err }

func (s *csvSource) Next() (VMEvent, bool) {
	if s.done || s.err != nil {
		return VMEvent{}, false
	}
	parts := s.pending
	s.pending = nil
	if parts == nil {
		var ok bool
		parts, ok = s.scanRecord()
		if !ok {
			s.done = true
			return VMEvent{}, false
		}
	}
	ev, err := s.vmRecord(parts)
	if err != nil {
		s.err = err
		s.done = true
		return VMEvent{}, false
	}
	return ev, true
}

// vmRecord parses the next streamed vm record and checks it follows its
// predecessor in (arrive, name) order.
func (s *csvSource) vmRecord(parts []string) (VMEvent, error) {
	if parts[0] != "vm" {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %s record after the first vm record (streaming traces need the prologue first)", s.line, parts[0])
	}
	ev, err := s.vmEvent(parts)
	if err != nil {
		return VMEvent{}, err
	}
	if !s.first {
		if ev.Arrive < s.prevArrive || (ev.Arrive == s.prevArrive && ev.Name < s.prevName) {
			return VMEvent{}, fmt.Errorf("fleet: trace line %d: vm records not sorted by (arrive, name)", s.line)
		}
		if ev.Arrive == s.prevArrive && ev.Name == s.prevName {
			return VMEvent{}, fmt.Errorf("fleet: trace line %d: duplicate VM name %q", s.line, ev.Name)
		}
	}
	s.first = false
	s.prevArrive, s.prevName = ev.Arrive, ev.Name
	return ev, nil
}

// vmEvent parses the fields of one vm record.
func (s *csvSource) vmEvent(parts []string) (VMEvent, error) {
	if len(parts) != 6 {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: want 'vm,name,arrive_s,lifetime_s,class,activity', got %q", s.line, strings.Join(parts, ","))
	}
	arrive, err := parseSeconds(parts[2])
	if err != nil {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %w", s.line, err)
	}
	lifetime, err := parseSeconds(parts[3])
	if err != nil {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %w", s.line, err)
	}
	activity, err := strconv.ParseFloat(parts[5], 64)
	if err != nil {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %w", s.line, err)
	}
	return VMEvent{
		Name:     parts[1],
		Class:    parts[4],
		Arrive:   sim.FromSeconds(arrive),
		Lifetime: sim.FromSeconds(lifetime),
		Activity: activity,
	}, nil
}

// WriteCSVStream writes a source's trace in the format ParseTrace and
// ParseTraceStream read, pulling events one at a time — the streaming
// counterpart of Trace.WriteCSV, which delegates here. The output is
// byte-identical whether the trace was materialized first or streamed
// straight through.
func WriteCSVStream(src TraceSource, w io.Writer) error {
	bw := bufio.NewWriter(w)
	classes := src.Classes()
	fmt.Fprintf(bw, "# fleet VM lifecycle trace: %d classes\n", len(classes))
	fmt.Fprintf(bw, "horizon,%s\n", formatSeconds(src.Horizon()))
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := classes[name]
		fmt.Fprintf(bw, "class,%s,%s,%d\n", c.Name,
			strconv.FormatFloat(c.CreditPct, 'g', -1, 64), c.MemoryMB)
	}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		fmt.Fprintf(bw, "vm,%s,%s,%s,%s,%s\n", ev.Name,
			formatSeconds(ev.Arrive), formatSeconds(ev.Lifetime), ev.Class,
			strconv.FormatFloat(ev.Activity, 'g', -1, 64))
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fleet: write trace: %w", err)
	}
	return nil
}
