// Command pasfleet runs the trace-driven heterogeneous datacenter
// simulation (internal/fleet): it generates (or reads) a VM lifecycle
// trace, drives it through a fleet of simulated machines under a chosen
// placement policy and scheduler, and reports cluster-level energy,
// active-machine and SLA curves.
//
// Usage:
//
//	pasfleet -machines 1000 -arrivals 5000 -horizon 600 -policy dvfs-aware
//	pasfleet -vmtrace trace.csv -sched credit -csv intervals.csv -json report.json
//	pasfleet -arrivals 200 -write-trace trace.csv
//	pasfleet -machines 1000000 -shards 8 -stream csv:intervals.csv -no-report
//	pasfleet -machines 100000 -arrivals 10000000 -stream jsonl -no-report
//	pasfleet -serve -report 2 -sched credit2   # request latency percentiles
//	pasfleet -trace perfetto:run.json -status  # flight recorder + heartbeat
//
// -serve layers the request-level serving model on every VM: reply
// latencies derive from each VM's attained work rate, and the report
// grows p50/p95/p99 columns plus per-class latency summaries.
//
// -trace enables the flight recorder and streams every scheduler,
// host, and fleet decision event into a Perfetto trace-event JSON file
// (open it at https://ui.perfetto.dev). -status prints a 1 Hz run
// heartbeat to stderr, and -metrics-addr serves the same live counters
// as expvar JSON over HTTP while the run executes.
//
// Large estates run sharded (-shards, -workers) with streaming output
// (-stream) so memory stays proportional to the live fleet, not to the
// run's history. The report — and the recorder's event stream — is
// bit-identical for every shard and worker count. The trace streams
// into the run too — the generator emits it lazily and -vmtrace reads
// its CSV lazily — so trace memory is O(1): a 10M-arrival run holds
// only the machines and the live VMs.
//
// Exit status is non-zero on simulation errors, making the command
// usable as a smoke gate in CI.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pasched/internal/autoscale"
	"pasched/internal/fleet"
	"pasched/internal/metrics"
	"pasched/internal/obs"
	"pasched/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("pasfleet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		machines    = fs.Int("machines", 200, "number of machines in the heterogeneous estate")
		arrivals    = fs.Int("arrivals", 1000, "number of VM lifecycles to generate")
		horizon     = fs.Float64("horizon", 600, "simulated horizon in seconds")
		seed        = fs.Uint64("seed", 42, "trace and workload seed")
		lifetime    = fs.Float64("lifetime", 0, "mean VM lifetime in seconds (0 = horizon/10); shorter lifetimes bound the live population of arrival-heavy runs")
		policyName  = fs.String("policy", "first-fit", "placement policy: first-fit, best-fit or dvfs-aware")
		schedName   = fs.String("sched", "pas", "per-machine scheduler: "+fleet.SchedulerNames())
		serve       = fs.Bool("serve", false, "enable the request-level serving layer (per-VM clients, reply-latency percentiles)")
		serveSlots  = fs.Int("serve-slots", 0, "per-VM service slots (0 = default)")
		autoPolicy  = fs.String("autoscale", "", "enable the elastic loop with this policy: "+autoscale.Names()+" (requires -serve; ditto also requires -trace)")
		autoMaxRep  = fs.Int("autoscale-max-replicas", 0, "replica ceiling per VM group (0 = default, 1 = cap resizes only)")
		autoMaxCap  = fs.Float64("autoscale-max-cap", 0, "cap ceiling in CPU percent a VM may grow to (0 = default)")
		autoStep    = fs.Float64("autoscale-step", 0, "cap increment of one resize decision in CPU percent (0 = default)")
		report      = fs.Float64("report", 30, "reporting interval in seconds")
		consolidate = fs.Float64("consolidate", 120, "consolidation interval in seconds (0 disables)")
		shards      = fs.Int("shards", 0, "machine shards stepped by independent workers (0 = one per worker)")
		workers     = fs.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS)")
		stream      = fs.String("stream", "", "stream results incrementally: csv[:path] or jsonl[:path] (default stdout)")
		noReport    = fs.Bool("no-report", false, "discard the in-memory report (memory stays O(machines); use with -stream)")
		traceSpec   = fs.String("trace", "", "record the run with the flight recorder: perfetto[:path] (default path trace.json)")
		status      = fs.Bool("status", false, "print a 1 Hz heartbeat (sim time, wall rate, events, live VMs, RSS) to stderr")
		metricsAddr = fs.String("metrics-addr", "", "serve live run counters as expvar JSON on this HTTP address (e.g. localhost:6060)")
		vmTracePath = fs.String("vmtrace", "", "read the VM lifecycle trace from this CSV instead of generating")
		writeTrace  = fs.String("write-trace", "", "write the generated trace as CSV to this file and exit")
		csvPath     = fs.String("csv", "", "write the interval curves as CSV to this file")
		jsonPath    = fs.String("json", "", "write the full report as JSON to this file")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Validate choice flags before any trace or fleet work, so a typo
	// fails immediately with the accepted values instead of deep in
	// machine construction. The empty string is valid for the library
	// (it selects "credit") but an empty -sched on the CLI is a
	// mistake, e.g. an unset shell variable.
	if *schedName == "" || !fleet.ValidScheduler(*schedName) {
		fmt.Fprintf(errOut, "pasfleet: unknown scheduler %q (accepted: %s)\n",
			*schedName, fleet.SchedulerNames())
		return 2
	}
	policy, err := fleet.PolicyByName(*policyName)
	if err != nil {
		fmt.Fprintf(errOut, "pasfleet: unknown placement policy %q (accepted: first-fit, best-fit, dvfs-aware)\n", *policyName)
		return 2
	}
	// The Config zero values mean "default" and "off", so an interval
	// that rounds to zero must fail here instead of running silently.
	if !(*report > 0) || sim.FromSeconds(*report) <= 0 {
		fmt.Fprintf(errOut, "pasfleet: invalid reporting interval %g (accepted: a positive duration in seconds)\n", *report)
		return 2
	}
	if !(*consolidate >= 0) {
		fmt.Fprintf(errOut, "pasfleet: invalid consolidation interval %g (accepted: 0 to disable, or a positive interval in seconds)\n", *consolidate)
		return 2
	}
	if *autoPolicy != "" && !autoscale.Valid(*autoPolicy) {
		fmt.Fprintf(errOut, "pasfleet: unknown autoscale policy %q (accepted: %s)\n",
			*autoPolicy, autoscale.Names())
		return 2
	}
	if *shards < 0 {
		fmt.Fprintf(errOut, "pasfleet: invalid shard count %d (accepted: 0 for one per worker, or a positive count)\n", *shards)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(errOut, "pasfleet: invalid worker count %d (accepted: 0 for GOMAXPROCS, or a positive count)\n", *workers)
		return 2
	}
	streamFormat, streamPath, ok := parseStream(*stream)
	if !ok {
		fmt.Fprintf(errOut, "pasfleet: invalid stream spec %q (accepted: csv, jsonl, csv:path, jsonl:path)\n", *stream)
		return 2
	}
	perfettoPath, ok := parseTraceSpec(*traceSpec)
	if !ok {
		fmt.Fprintf(errOut, "pasfleet: invalid trace spec %q (accepted: perfetto, perfetto:path)\n", *traceSpec)
		return 2
	}
	if *lifetime < 0 {
		fmt.Fprintf(errOut, "pasfleet: invalid mean lifetime %g (accepted: 0 for horizon/10, or a positive duration in seconds)\n", *lifetime)
		return 2
	}
	if *noReport && *stream == "" && *csvPath == "" && *jsonPath == "" {
		fmt.Fprintln(errOut, "pasfleet: -no-report without -stream discards every result; add -stream csv[:path] or jsonl[:path]")
		return 2
	}
	if *noReport && (*csvPath != "" || *jsonPath != "") {
		fmt.Fprintln(errOut, "pasfleet: -no-report conflicts with -csv/-json (they render the buffered report); use -stream")
		return 2
	}
	// Bind the metrics listener before any construction: a bad or busy
	// address is a flag error, reported with exit 2 like the rest.
	var metricsLn net.Listener
	if *metricsAddr != "" {
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(errOut, "pasfleet: invalid metrics address %q: %v (accepted: host:port, e.g. localhost:6060 or :0)\n",
				*metricsAddr, err)
			return 2
		}
		defer metricsLn.Close()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(errOut, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(errOut, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(errOut, err)
			}
			f.Close()
		}()
	}

	// The trace flows into the run as a pull-based source: CSV rows (or
	// generator output) stream straight into the fleet as Run pulls
	// them, so trace memory stays O(1) regardless of arrival count.
	var src fleet.TraceSource
	if *vmTracePath != "" {
		f, ferr := os.Open(*vmTracePath)
		if ferr != nil {
			fmt.Fprintln(errOut, ferr)
			return 1
		}
		defer f.Close() // the source reads rows lazily during Run
		src, err = fleet.ParseTraceStream(f)
	} else {
		src, err = fleet.GenerateStream(fleet.GenConfig{
			Seed:         *seed,
			Arrivals:     *arrivals,
			Horizon:      sim.FromSeconds(*horizon),
			MeanLifetime: sim.FromSeconds(*lifetime),
		})
	}
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if *writeTrace != "" {
		if err := writeFile(*writeTrace, func(w io.Writer) error {
			return fleet.WriteCSVStream(src, w)
		}); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "wrote VM lifecycle trace to %s\n", *writeTrace)
		return 0
	}

	var sinks []fleet.Sink
	var streamFile *os.File
	if streamFormat != "" {
		w := out
		if streamPath != "" {
			streamFile, err = os.Create(streamPath)
			if err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
			defer streamFile.Close()
			w = streamFile
		}
		switch streamFormat {
		case "csv":
			sinks = append(sinks, fleet.NewCSVSink(w))
		case "jsonl":
			sinks = append(sinks, fleet.NewJSONLSink(w))
		}
	}

	var obsCfg fleet.ObsConfig
	var traceFile *os.File
	if perfettoPath != "" {
		traceFile, err = os.Create(perfettoPath)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer traceFile.Close()
		obsCfg = fleet.ObsConfig{Enabled: true, Sink: obs.NewPerfettoWriter(traceFile)}
	}

	fleetCfg := fleet.Config{
		Machines:         fleet.DefaultEstate(*machines),
		Scheduler:        *schedName,
		Policy:           policy,
		ReportEvery:      sim.FromSeconds(*report),
		ConsolidateEvery: sim.FromSeconds(*consolidate),
		Shards:           *shards,
		Workers:          *workers,
		Seed:             *seed,
		Sinks:            sinks,
		DiscardReport:    *noReport,
		Serving:          fleet.ServingConfig{Enabled: *serve, Slots: *serveSlots},
		Obs:              obsCfg,
		Autoscale: fleet.AutoscaleConfig{
			Enabled: *autoPolicy != "",
			Policy:  *autoPolicy,
			Params: autoscale.Params{
				StepPct:     *autoStep,
				MaxCapPct:   *autoMaxCap,
				MaxReplicas: *autoMaxRep,
			},
		},
	}
	fl, err := fleet.NewStream(fleetCfg, src)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	if metricsLn != nil {
		liveFleet.Store(fl)
		defer liveFleet.Store(nil)
		publishMetrics()
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Handler: mux}
		go srv.Serve(metricsLn)
		defer srv.Close()
		fmt.Fprintf(errOut, "pasfleet: serving metrics on http://%s/debug/vars\n", metricsLn.Addr())
	}
	stopStatus := func() {}
	if *status {
		stop := make(chan struct{})
		done := make(chan struct{})
		go heartbeat(errOut, fl, stop, done)
		stopStatus = func() { close(stop); <-done }
	}

	rep, err := fl.Run(sim.FromSeconds(*horizon))
	stopStatus()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if streamFile != nil {
		if err := streamFile.Close(); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(errOut, "pasfleet: wrote Perfetto trace (%d recorder events) to %s\n",
			rep.Summary.ObsEvents, perfettoPath)
	}

	// When streaming to stdout, keep it machine-readable: no table.
	if streamFormat == "" || streamPath != "" {
		printSummary(out, rep)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, rep.WriteCSV); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rep.WriteJSON); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	}
	return 0
}

// liveFleet is the fleet the expvar counters read. expvar names are
// process-global and re-publishing panics, so the published Func reads
// through this pointer and publishMetrics registers it only once even
// when run() executes repeatedly (tests).
var (
	liveFleet   atomic.Pointer[fleet.Fleet]
	publishOnce sync.Once
)

func publishMetrics() {
	publishOnce.Do(func() {
		expvar.Publish("pasfleet", expvar.Func(func() any {
			fl := liveFleet.Load()
			if fl == nil {
				return nil
			}
			simT, events, live := fl.Progress()
			return map[string]int64{
				"sim_us":   int64(simT),
				"events":   events,
				"live_vms": live,
			}
		}))
	})
}

// heartbeat prints one status line per second until stop closes: how
// far simulated time has advanced, how fast it moves against wall
// time, the recorder event count and rate, the live VM population, and
// the process heap footprint.
func heartbeat(w io.Writer, fl *fleet.Fleet, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	lastWall := time.Now()
	var lastSim sim.Time
	var lastEvents int64
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			simT, events, live := fl.Progress()
			wall := now.Sub(lastWall).Seconds()
			if wall <= 0 {
				wall = 1
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(w, "pasfleet: sim %.1fs (%.1fx wall)  events %d (%.0f/s)  live VMs %d  rss %d MB\n",
				simT.Seconds(), (simT-lastSim).Seconds()/wall,
				events, float64(events-lastEvents)/wall,
				live, ms.HeapInuse>>20)
			lastWall, lastSim, lastEvents = now, simT, events
		}
	}
}

// parseTraceSpec splits a -trace spec into the Perfetto output path.
// Accepted: "", "perfetto", "perfetto:path".
func parseTraceSpec(spec string) (path string, ok bool) {
	if spec == "" {
		return "", true
	}
	format, path, cut := strings.Cut(spec, ":")
	if format != "perfetto" {
		return "", false
	}
	if !cut {
		return "trace.json", true
	}
	if path == "" {
		return "", false
	}
	return path, true
}

// parseStream splits a -stream spec into format and optional path.
// Accepted: "", "csv", "jsonl", "csv:path", "jsonl:path".
func parseStream(spec string) (format, path string, ok bool) {
	if spec == "" {
		return "", "", true
	}
	format, path, _ = strings.Cut(spec, ":")
	switch format {
	case "csv", "jsonl":
		if strings.Contains(spec, ":") && path == "" {
			return "", "", false
		}
		return format, path, true
	}
	return "", "", false
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSummary renders the run outcome as an aligned table.
func printSummary(out io.Writer, rep *fleet.Report) {
	s := rep.Summary
	tb := metrics.NewTable(fmt.Sprintf("Fleet run: %s scheduler, %s placement", s.Scheduler, s.Policy),
		"quantity", "value")
	tb.AddRow("machines", fmt.Sprintf("%d", s.Machines))
	tb.AddRow("simulated horizon (s)", fmt.Sprintf("%.0f", s.HorizonS))
	tb.AddRow("VMs arrived / departed / rejected", fmt.Sprintf("%d / %d / %d", s.Arrived, s.Departed, s.Rejected))
	tb.AddRow("live migrations", fmt.Sprintf("%d", s.Migrated))
	tb.AddRow("machines ever powered on", fmt.Sprintf("%d", s.EverPoweredOn))
	tb.AddRow("active machines (peak / mean)", fmt.Sprintf("%d / %.1f", s.PeakActiveMachines, s.MeanActiveMachines))
	tb.AddRow("energy (J)", fmt.Sprintf("%.0f", s.TotalJoules))
	tb.AddRow("mean power (W)", fmt.Sprintf("%.1f", s.MeanPowerW))
	tb.AddRow("overall SLA", fmt.Sprintf("%.4f", s.OverallSLA))
	tb.AddRow("mean / min per-VM SLA", fmt.Sprintf("%.4f / %.4f", s.MeanVMSLA, s.MinVMSLA))
	tb.AddRow("VMs below 95% SLA", fmt.Sprintf("%d", s.VMsBelow95))
	if s.RequestsOffered > 0 {
		tb.AddRow("requests offered / completed", fmt.Sprintf("%d / %d", s.RequestsOffered, s.RequestsCompleted))
		tb.AddRow("requests abandoned / in flight", fmt.Sprintf("%d / %d", s.RequestsAbandoned, s.RequestsInFlight))
		tb.AddRow("reply latency p50 / p95 / p99 (ms)",
			fmt.Sprintf("%.2f / %.2f / %.2f", s.ReqP50Ms, s.ReqP95Ms, s.ReqP99Ms))
		tb.AddRow("reply latency mean / max (ms)", fmt.Sprintf("%.2f / %.2f", s.ReqMeanMs, s.ReqMaxMs))
	}
	if s.AutoscaleResizes+s.AutoscaleScaleOuts+s.AutoscaleScaleIns+s.AutoscaleRejected > 0 {
		tb.AddRow("autoscale resizes / rejected", fmt.Sprintf("%d / %d", s.AutoscaleResizes, s.AutoscaleRejected))
		tb.AddRow("autoscale scale-outs / scale-ins", fmt.Sprintf("%d / %d", s.AutoscaleScaleOuts, s.AutoscaleScaleIns))
	}
	if s.ObsEvents > 0 {
		tb.AddRow("recorder events", fmt.Sprintf("%d", s.ObsEvents))
		tb.AddRow("VM time run / downclocked / capped (s)", fmt.Sprintf("%.1f / %.1f / %.1f",
			float64(s.LedgerRunUs)/1e6, float64(s.LedgerDownclockedUs)/1e6, float64(s.LedgerCappedUs)/1e6))
		tb.AddRow("VM time contended / migrating / idle (s)", fmt.Sprintf("%.1f / %.1f / %.1f",
			float64(s.LedgerContendedUs)/1e6, float64(s.LedgerMigratingUs)/1e6, float64(s.LedgerIdleUs)/1e6))
	}
	tb.AddRow("batched / stepped quanta", fmt.Sprintf("%d / %d", s.BatchedQuanta, s.SteppedQuanta))
	if mb, ok := peakRSSMB(); ok {
		tb.AddRow("peak RSS (MB)", fmt.Sprintf("%.1f", mb))
	}
	fmt.Fprintln(out, tb.Render())
}

// peakRSSMB reads the process's high-water resident set size from
// /proc/self/status (VmHWM). Ok is false on platforms without procfs —
// the summary row is simply omitted there.
func peakRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return float64(kb) / 1024, true
				}
			}
		}
	}
	return 0, false
}
