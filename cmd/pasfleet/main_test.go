package main

import (
	"bytes"
	"errors"
	"expvar"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pasched/internal/fleet"
	"pasched/internal/obs"
	"pasched/internal/sim"
)

func TestParseTraceSpec(t *testing.T) {
	cases := []struct {
		spec, path string
		ok         bool
	}{
		{"", "", true},
		{"perfetto", "trace.json", true},
		{"perfetto:run.json", "run.json", true},
		{"perfetto:", "", false},
		{"zipkin", "", false},
		{"perfetto.json", "", false},
	}
	for _, tc := range cases {
		path, ok := parseTraceSpec(tc.spec)
		if path != tc.path || ok != tc.ok {
			t.Errorf("parseTraceSpec(%q) = %q, %v; want %q, %v", tc.spec, path, ok, tc.path, tc.ok)
		}
	}
}

// TestFlagValidation: every malformed flag fails before any trace or
// fleet construction, with exit 2 and a message naming the accepted
// values.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"trace spec", []string{"-trace", "zipkin"}, "accepted: perfetto, perfetto:path"},
		{"trace spec empty path", []string{"-trace", "perfetto:"}, "invalid trace spec"},
		{"metrics addr", []string{"-metrics-addr", "not an:address:at all"}, "invalid metrics address"},
		{"scheduler", []string{"-sched", "bogus"}, "unknown scheduler"},
		{"policy", []string{"-policy", "bogus"}, "accepted: first-fit, best-fit, dvfs-aware"},
		{"report interval", []string{"-report", "0"}, "invalid reporting interval"},
		{"consolidation interval", []string{"-consolidate", "-5"}, "invalid consolidation interval"},
		{"shards", []string{"-shards", "-2"}, "invalid shard count"},
		{"workers", []string{"-workers", "-3"}, "invalid worker count"},
		{"stream", []string{"-stream", "xml"}, "invalid stream spec"},
		{"lifetime", []string{"-lifetime", "-3"}, "invalid mean lifetime"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr %q does not name the accepted values (%q)", errOut.String(), tc.want)
			}
		})
	}
}

// TestRunWithRecorder drives a small serving scenario end to end with
// the flight recorder, heartbeat, and metrics endpoint enabled: the
// produced Perfetto file must pass the validator and the summary must
// carry the recorder totals.
func TestRunWithRecorder(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run_trace.json")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-machines", "8", "-arrivals", "25", "-horizon", "45", "-report", "5",
		"-serve", "-trace", "perfetto:" + trace,
		"-status", "-metrics-addr", "127.0.0.1:0",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"serving metrics on http://127.0.0.1:", "wrote Perfetto trace"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
	if !strings.Contains(out.String(), "recorder events") {
		t.Errorf("summary missing the recorder rows:\n%s", out.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := obs.ValidatePerfetto(f)
	if err != nil {
		t.Fatalf("produced trace rejected: %v", err)
	}
	if st.Slices == 0 || st.Instants == 0 {
		t.Errorf("vacuous trace: %+v", st)
	}
}

// TestVMTraceRoundTrip: -write-trace output feeds back through
// -vmtrace (the renamed lifecycle-trace input flag).
func TestVMTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "vms.csv")
	var out, errOut bytes.Buffer
	if code := run([]string{"-machines", "8", "-arrivals", "20", "-horizon", "30",
		"-write-trace", csv}, &out, &errOut); code != 0 {
		t.Fatalf("write-trace exit %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-machines", "8", "-horizon", "30", "-vmtrace", csv}, &out, &errOut); code != 0 {
		t.Fatalf("vmtrace exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Fleet run:") {
		t.Errorf("no summary from the -vmtrace run:\n%s", out.String())
	}
}

// TestVMTraceRejectsInvalidEvents: -vmtrace reads through the one event
// check, so an invalid trace fails -write-trace instead of being copied
// out: a VM of an undeclared class, and one arriving after the horizon
// with zero lifetime and activity 7.
func TestVMTraceRejectsInvalidEvents(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("horizon,10\nclass,a,10,1024\n"+
		"vm,x,0,5,ghost,0.5\nvm,y,20,0,a,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	written := filepath.Join(dir, "out.csv")
	code := run([]string{"-vmtrace", bad, "-write-trace", written}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if want := `fleet: trace line 3: VM x references unknown class "ghost"`; !strings.Contains(errOut.String(), want) {
		t.Errorf("stderr %q, want %q", errOut.String(), want)
	}
	if _, err := os.Stat(written); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed -write-trace left %s behind (stat: %v)", written, err)
	}
}

func testFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	src, err := fleet.GenerateStream(fleet.GenConfig{Seed: 5, Arrivals: 10, Horizon: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.NewStream(fleet.Config{
		Machines: fleet.DefaultEstate(4),
		Seed:     5,
		Obs:      fleet.ObsConfig{Enabled: true, Buffer: true},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestExpvarMetrics checks the published expvar tree reads the live
// fleet's progress counters (and survives repeated publication).
func TestExpvarMetrics(t *testing.T) {
	fl := testFleet(t)
	if _, err := fl.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	liveFleet.Store(fl)
	defer liveFleet.Store(nil)
	publishMetrics()
	publishMetrics() // must not panic on re-publication
	v := expvar.Get("pasfleet")
	if v == nil {
		t.Fatal("pasfleet expvar not published")
	}
	s := v.String()
	for _, key := range []string{`"sim_us"`, `"events"`, `"live_vms"`} {
		if !strings.Contains(s, key) {
			t.Errorf("expvar %s missing %s", s, key)
		}
	}
	if !strings.Contains(s, `"sim_us":30000000`) {
		t.Errorf("expvar sim_us not at the horizon: %s", s)
	}
}

// TestHeartbeat runs the status ticker against a finished fleet long
// enough for one tick and checks the line shape.
func TestHeartbeat(t *testing.T) {
	fl := testFleet(t)
	if _, err := fl.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stop := make(chan struct{})
	done := make(chan struct{})
	go heartbeat(&buf, fl, stop, done)
	time.Sleep(1200 * time.Millisecond)
	close(stop)
	<-done
	line := buf.String()
	for _, want := range []string{"pasfleet: sim 30.0s", "events", "live VMs", "rss"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat %q missing %q", line, want)
		}
	}
}

// TestStatusFieldMB reads both fields the CLI reports from one
// /proc/self/status fixture.
func TestStatusFieldMB(t *testing.T) {
	const status = "Name:\tpasfleet\nVmPeak:\t 1291716 kB\nVmHWM:\t   15564 kB\n" +
		"VmRSS:\t    4096 kB\nThreads:\t6\n"
	for _, tc := range []struct {
		field string
		mb    float64
		ok    bool
	}{
		{"VmRSS", 4, true},
		{"VmHWM", 15564.0 / 1024, true},
		{"VmSwap", 0, false},
	} {
		if mb, ok := statusFieldMB(status, tc.field); mb != tc.mb || ok != tc.ok {
			t.Errorf("%s: got %v, %v; want %v, %v", tc.field, mb, ok, tc.mb, tc.ok)
		}
	}
}
