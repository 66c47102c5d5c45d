package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"pasched/internal/sim"
)

const sampleTrace = `# comment
horizon,120
class,small,10,1024
class,large,40,4096

vm,a,0,60,small,0.5
vm,b,10.5,30,large,1
vm,c,10.5,30,small,0
`

func TestParseTrace(t *testing.T) {
	tr := parseTrace(t, sampleTrace)
	if tr.Horizon != 120*sim.Second {
		t.Errorf("horizon = %v", tr.Horizon)
	}
	if len(tr.Classes) != 2 || len(tr.Events) != 3 {
		t.Fatalf("parsed %d classes, %d events", len(tr.Classes), len(tr.Events))
	}
	if got := tr.Events[0].Name; got != "a" {
		t.Errorf("first event %q", got)
	}
	// Same arrival time: sorted by name.
	if tr.Events[1].Name != "b" || tr.Events[2].Name != "c" {
		t.Errorf("tie-broken order: %q, %q", tr.Events[1].Name, tr.Events[2].Name)
	}
	if tr.Events[1].Activity != 1 || tr.Events[1].Class != "large" {
		t.Errorf("event b parsed as %+v", tr.Events[1])
	}
}

func TestParseTraceCRLF(t *testing.T) {
	crlf := strings.ReplaceAll(sampleTrace, "\n", "\r\n")
	if tr := parseTrace(t, crlf); len(tr.Events) != 3 {
		t.Fatalf("CRLF trace parsed to %d events", len(tr.Events))
	}
}

// readAll opens the CSV reader over r and pulls every event with a
// plain Next loop, returning the first error: from construction, or
// from Err once Next ends.
func readAll(r io.Reader) error {
	src, err := ParseTraceStream(r)
	if err != nil {
		return err
	}
	for {
		if _, ok := src.Next(); !ok {
			return src.Err()
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"no horizon":        "class,a,10,1024\nvm,x,0,10,a,0.5\n",
		"no events":         "horizon,10\nclass,a,10,1024\n",
		"unknown record":    "horizon,10\nclass,a,10,1024\nfoo,bar\nvm,x,0,10,a,0.5\n",
		"unknown class":     "horizon,10\nvm,x,0,10,ghost,0.5\n",
		"duplicate class":   "horizon,10\nclass,a,10,1024\nclass,a,20,2048\nvm,x,0,10,a,0.5\n",
		"duplicate vm":      "horizon,10\nclass,a,10,1024\nvm,x,0,10,a,0.5\nvm,x,1,10,a,0.5\n",
		"duplicate horizon": "horizon,10\nhorizon,20\nclass,a,10,1024\nvm,x,0,10,a,0.5\n",
		"bad field count":   "horizon,10\nclass,a,10,1024\nvm,x,0,10,a\n",
		"bad float":         "horizon,10\nclass,a,10,1024\nvm,x,zero,10,a,0.5\n",
		"nan seconds":       "horizon,10\nclass,a,10,1024\nvm,x,NaN,10,a,0.5\n",
		"inf horizon":       "horizon,+Inf\nclass,a,10,1024\nvm,x,0,10,a,0.5\n",
		"huge seconds":      "horizon,10\nclass,a,10,1024\nvm,x,1e300,10,a,0.5\n",
		"negative arrive":   "horizon,10\nclass,a,10,1024\nvm,x,-1,10,a,0.5\n",
		"arrive at horizon": "horizon,10\nclass,a,10,1024\nvm,x,10,10,a,0.5\n",
		"zero lifetime":     "horizon,10\nclass,a,10,1024\nvm,x,0,0,a,0.5\n",
		"activity over 1":   "horizon,10\nclass,a,10,1024\nvm,x,0,10,a,1.5\n",
		"nan activity":      "horizon,10\nclass,a,10,1024\nvm,x,0,10,a,NaN\n",
		"bad class credit":  "horizon,10\nclass,a,0,1024\nvm,x,0,10,a,0.5\n",
		"bad class memory":  "horizon,10\nclass,a,10,-5\nvm,x,0,10,a,0.5\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			err := readAll(strings.NewReader(in))
			if name != "duplicate vm" {
				if err == nil {
					t.Fatal("reader accepted")
				}
				return
			}
			// The two x records are well-formed, sorted and distinct in
			// (arrive, name): the reader accepts them, and the fleet
			// rejects the second x because the first is still live.
			if err != nil {
				t.Fatalf("reader rejected a name reuse: %v", err)
			}
			src, err := ParseTraceStream(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewStream(Config{Machines: testMachines(2, 0)}, src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Run(10 * sim.Second); err == nil || !strings.Contains(err.Error(), `duplicate VM name "x"`) {
				t.Errorf("fleet run: %v, want a duplicate VM name error", err)
			}
		})
	}

	// A read failure names the line the scanner failed in and wraps its
	// cause.
	good := "horizon,10\nclass,a,10,1024\nvm,x,0,10,a,0.5\n"
	readFailures := map[string]struct {
		in    io.Reader
		cause error
	}{
		"line over 1 MiB": {
			strings.NewReader(good + strings.Repeat("x", 1<<20+1) + "\nvm,y,1,10,a,0.5\n"),
			bufio.ErrTooLong},
		"read error": {
			io.MultiReader(strings.NewReader(good), iotest.ErrReader(io.ErrUnexpectedEOF)),
			io.ErrUnexpectedEOF},
	}
	for name, c := range readFailures {
		t.Run(name, func(t *testing.T) {
			err := readAll(c.in)
			if !errors.Is(err, c.cause) || !strings.HasPrefix(fmt.Sprint(err), "fleet: trace line 4: read: ") {
				t.Errorf("got %v, want a line 4 read error wrapping %v", err, c.cause)
			}
		})
	}
}

// TestTraceCSVRoundTrip: WriteCSVStream's output reads back to the
// same trace, for a handwritten trace and a generated one (whose
// piecewise Demand profiles the CSV does not carry).
func TestTraceCSVRoundTrip(t *testing.T) {
	gen := genTrace(t, GenConfig{Seed: 5, Arrivals: 200, Horizon: 240 * sim.Second})
	for i := range gen.Events {
		gen.Events[i].Demand = nil
	}
	for name, orig := range map[string]*testTrace{"sample": parseTrace(t, sampleTrace), "generated": gen} {
		var buf bytes.Buffer
		if err := WriteCSVStream(orig.source(), &buf); err != nil {
			t.Fatal(err)
		}
		if back := parseTrace(t, buf.String()); !reflect.DeepEqual(back, orig) {
			t.Errorf("%s: round trip changed the trace", name)
		}
	}
}

// checkEvents runs a trace's events through the fleet's event check and
// requires globally unique names, which the generator guarantees.
func checkEvents(t *testing.T, tr *testTrace) {
	t.Helper()
	c := eventCheck{classes: tr.Classes, horizon: tr.Horizon}
	seen := make(map[string]bool, len(tr.Events))
	for i := range tr.Events {
		if err := c.next(&tr.Events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if seen[tr.Events[i].Name] {
			t.Fatalf("event %d reuses the name %q", i, tr.Events[i].Name)
		}
		seen[tr.Events[i].Name] = true
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Seed: 7, Arrivals: 200, Horizon: 600 * sim.Second}
	a := genTrace(t, cfg)
	b := genTrace(t, cfg)
	if len(a.Events) != 200 || len(b.Events) != 200 {
		t.Fatalf("generated %d / %d events", len(a.Events), len(b.Events))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	checkEvents(t, a)
	c := genTrace(t, GenConfig{Seed: 8, Arrivals: 200, Horizon: 600 * sim.Second})
	same := 0
	for i := range a.Events {
		if a.Events[i].Arrive == c.Events[i].Arrive {
			same++
		}
	}
	if same == len(a.Events) {
		t.Error("different seeds produced identical arrival times")
	}
	// Heavy tail: some lifetime well above the mean.
	mean := cfg.Horizon / 10
	long := 0
	for _, ev := range a.Events {
		if ev.Lifetime > 3*mean {
			long++
		}
	}
	if long == 0 {
		t.Error("no lifetime beyond 3x the mean; the tail is missing")
	}
	// Every VM with activity carries a demand profile.
	for _, ev := range a.Events {
		if ev.Activity > 0 && len(ev.Demand) == 0 {
			t.Fatalf("VM %s has activity %v but no demand profile", ev.Name, ev.Activity)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  GenConfig
	}{
		{"0 arrivals", GenConfig{Arrivals: 0, Horizon: sim.Second}},
		{"0 horizon", GenConfig{Arrivals: 1, Horizon: 0}},
		{"amplitude 1.5", GenConfig{Arrivals: 1, Horizon: sim.Second, DiurnalAmplitude: 1.5}},
		{"activity 2", GenConfig{Arrivals: 1, Horizon: sim.Second, BaseActivity: 2}},
	} {
		if _, err := GenerateStream(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
