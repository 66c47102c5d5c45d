package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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
	tr, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := ParseTrace(strings.NewReader(crlf)); err != nil {
		t.Fatalf("CRLF trace rejected: %v", err)
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
	// The streaming reader rejects each trace too. Both readers parse
	// records with the same helpers and end in the same validation, so
	// the messages match, except for inputs that break the prologue-first
	// layout only the streaming reader requires.
	layout := map[string]bool{"empty": true, "no horizon": true}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(in))
			if err == nil {
				t.Fatal("ParseTrace accepted")
			}
			src, serr := ParseTraceStream(strings.NewReader(in))
			if serr == nil {
				_, serr = Drain(src)
			}
			if serr == nil {
				t.Fatalf("streaming reader accepted what ParseTrace rejects: %v", err)
			}
			if !layout[name] && serr.Error() != err.Error() {
				t.Errorf("messages differ:\nParseTrace: %v\nstream:     %v", err, serr)
			}
		})
	}

	// A read failure names the line the scanner failed in, for both
	// readers, and wraps its cause.
	good := "horizon,10\nclass,a,10,1024\nvm,x,0,10,a,0.5\n"
	readFailures := map[string]struct {
		in    func() io.Reader
		cause error
	}{
		"line over 1 MiB": {func() io.Reader {
			return strings.NewReader(good + strings.Repeat("x", 1<<20+1) + "\nvm,y,1,10,a,0.5\n")
		}, bufio.ErrTooLong},
		"read error": {func() io.Reader {
			return io.MultiReader(strings.NewReader(good), iotest.ErrReader(io.ErrUnexpectedEOF))
		}, io.ErrUnexpectedEOF},
	}
	for name, c := range readFailures {
		t.Run(name, func(t *testing.T) {
			_, err := ParseTrace(c.in())
			src, serr := ParseTraceStream(c.in())
			if serr == nil {
				_, serr = Drain(src)
			}
			for reader, err := range map[string]error{"ParseTrace": err, "stream": serr} {
				if !errors.Is(err, c.cause) || !strings.HasPrefix(fmt.Sprint(err), "fleet: trace line 4: read: ") {
					t.Errorf("%s: got %v, want a line 4 read error wrapping %v", reader, err, c.cause)
				}
			}
		})
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	orig, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if back.Horizon != orig.Horizon || len(back.Events) != len(orig.Events) {
		t.Fatalf("round trip changed shape: %+v vs %+v", back, orig)
	}
	for i := range orig.Events {
		if back.Events[i].Name != orig.Events[i].Name ||
			back.Events[i].Arrive != orig.Events[i].Arrive ||
			back.Events[i].Lifetime != orig.Events[i].Lifetime ||
			back.Events[i].Class != orig.Events[i].Class ||
			back.Events[i].Activity != orig.Events[i].Activity {
			t.Errorf("event %d changed: %+v vs %+v", i, back.Events[i], orig.Events[i])
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Seed: 7, Arrivals: 200, Horizon: 600 * sim.Second}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 200 || len(b.Events) != 200 {
		t.Fatalf("generated %d / %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Name != eb.Name || ea.Arrive != eb.Arrive || ea.Lifetime != eb.Lifetime ||
			ea.Class != eb.Class || ea.Activity != eb.Activity {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, ea, eb)
		}
	}
	c, err := Generate(GenConfig{Seed: 8, Arrivals: 200, Horizon: 600 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := Generate(GenConfig{Arrivals: 0, Horizon: sim.Second}); err == nil {
		t.Error("0 arrivals accepted")
	}
	if _, err := Generate(GenConfig{Arrivals: 1, Horizon: 0}); err == nil {
		t.Error("0 horizon accepted")
	}
	if _, err := Generate(GenConfig{Arrivals: 1, Horizon: sim.Second, DiurnalAmplitude: 1.5}); err == nil {
		t.Error("amplitude 1.5 accepted")
	}
	if _, err := Generate(GenConfig{Arrivals: 1, Horizon: sim.Second, BaseActivity: 2}); err == nil {
		t.Error("activity 2 accepted")
	}
}
