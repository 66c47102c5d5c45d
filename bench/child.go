package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// opResult is one run of a workload, measured in its own child process
// so that peak RSS and GC state never carry over between runs. Times
// are raw host seconds; Speed converts CPU seconds to reference seconds.
type opResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ref      bool   `json:"ref"`
	Traced   bool   `json:"traced"`
	// SetupCPUS is the CPU time from process start until the inputs
	// were built: runtime and package initialisation plus set-up.
	SetupCPUS float64 `json:"setup_cpu_s"`
	RunS      float64 `json:"run_s"`
	CPUS      float64 `json:"cpu_s"`
	// StealS is the CPU time the hypervisor took from this VM, summed
	// over its vCPUs, while the run was in progress.
	StealS    float64            `json:"steal_s"`
	Speed     float64            `json:"speed"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCycles  float64            `json:"gc_cycles"`
	GCPauseMs float64            `json:"gc_pause_ms"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Counts    map[string]float64 `json:"counts"`
	Seams     *seamStats         `json:"seams,omitempty"`
	Prof      *layerSamples      `json:"prof,omitempty"`
}

// childMain runs one workload once and prints the opResult as JSON.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "input seed")
	ref := fs.Bool("ref", false, "run the reference sharding")
	traced := fs.Bool("traced", false, "wrap the seams and profile the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var seams *seamStats
	if *traced {
		seams = &seamStats{}
	}
	op, err := prepare(w, *seed, *ref, seams)
	if err != nil {
		return err
	}
	setupCPU := cpuSeconds()
	table0, heap0 := hostSpeed(2)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if *traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	steal0 := stealSeconds()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := op()
	run := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	steal := stealSeconds() - steal0
	if *traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	table1, heap1 := hostSpeed(2)

	res := &opResult{
		Workload:  w.name,
		Seed:      *seed,
		Ref:       *ref,
		Traced:    *traced,
		SetupCPUS: setupCPU,
		RunS:      run.Seconds(),
		CPUS:      cpu,
		StealS:    steal,
		Speed:     speedFactor((table0+table1)/2, (heap0+heap1)/2),
		PeakRSSMB: peakRSSMB(),
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCCycles:  float64(after.NumGC - before.NumGC),
		GCPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		Digest:    out.digest,
		Attempted: out.attempted,
		Failed:    out.failed,
		Problems:  out.problems,
		Counts:    out.counts,
		Seams:     seams,
	}
	if *traced {
		if res.Prof, err = attribute(prof.Bytes()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stealSeconds reads the VM's cumulative steal time: the eighth value of
// the aggregate cpu line of /proc/stat, in USER_HZ (100 per second).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

// childTimeout bounds one child run; a run takes seconds.
const childTimeout = 120 * time.Second

// spawn runs one workload run in a fresh child process.
func spawn(w *workload, seed uint64, ref, traced bool) (*opResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-ref="+strconv.FormatBool(ref), "-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s run (seed %d): %w", w.name, seed, err)
	}
	var res opResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("%s run (seed %d): %w", w.name, seed, err)
	}
	return &res, nil
}
