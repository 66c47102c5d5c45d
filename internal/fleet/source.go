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
// the canonical (Arrive, Name) order. It is the fleet's only trace
// representation — a 10M-arrival run holds one event, not ten million.
//
// Two producers exist, GenerateStream (the synthetic generator) and
// ParseTraceStream (CSV ingestion); NewStream consumes a source, and
// WriteCSVStream writes one out as CSV.
//
// Contract: Next returns events strictly increasing in (Arrive, Name),
// each naming a VM of a catalogued class that arrives before the
// horizon with a positive lifetime and activity in [0,1], and ok=false
// at end of stream; after ok=false the caller must check Err for a
// truncated or malformed stream. The fleet checks every pulled event
// against the contract. A name may recur once its earlier holder has
// departed; the fleet rejects two concurrently live VMs sharing a name.
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

// csvSource streams the CSV trace format. The prologue — the horizon
// record and every class record — must precede the first vm record
// (WriteCSVStream emits that layout), because the stream cannot be
// buffered to resolve forward references; vm records must already be
// sorted by (arrive, name), since a streaming reader cannot sort.
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
	check   eventCheck
}

// ParseTraceStream opens a streaming reader over a CSV fleet trace: one
// record per line, fields comma-separated, '#' comments and blank lines
// ignored, CRLF tolerated. Three record kinds exist:
//
//	horizon,<seconds>
//	class,<name>,<credit_pct>,<memory_mb>
//	vm,<name>,<arrive_s>,<lifetime_s>,<class>,<activity>
//
// The horizon and every class record must precede the first vm record,
// and the vm records must be sorted by (arrive, name): the layout
// WriteCSVStream emits. ParseTraceStream consumes the prologue
// immediately and returns a TraceSource streaming the vm records one at
// a time, so a multi-gigabyte trace never materializes. Next checks
// every record against the TraceSource contract, so the reader rejects
// any event the fleet would.
func ParseTraceStream(r io.Reader) (TraceSource, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	s := &csvSource{sc: sc, classes: make(map[string]VMClass)}
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
	s.check = eventCheck{classes: s.classes, horizon: s.horizon}
	return s, nil
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

// vmRecord parses the next streamed vm record and checks the event.
func (s *csvSource) vmRecord(parts []string) (VMEvent, error) {
	if parts[0] != "vm" {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %s record after the first vm record (streaming traces need the prologue first)", s.line, parts[0])
	}
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
	ev := VMEvent{
		Name:     parts[1],
		Class:    parts[4],
		Arrive:   sim.FromSeconds(arrive),
		Lifetime: sim.FromSeconds(lifetime),
		Activity: activity,
	}
	if err := s.check.next(&ev); err != nil {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %w", s.line, err)
	}
	return ev, nil
}

// WriteCSVStream writes a source's trace in the format ParseTraceStream
// reads, pulling events one at a time: the prologue first, then the vm
// records in the source's order. Piecewise Demand profiles are not
// serialized (the CSV carries the scalar Activity; a replayed trace
// offers the equivalent constant profile).
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
