// Package pasched is a discrete-time simulation library reproducing
// "DVFS Aware CPU Credit Enforcement in a Virtualized System" (Hagimont,
// Mayap Kamga, Broto, Tchana, De Palma — ACM/IFIP/USENIX Middleware 2013).
//
// The library models a virtualized host — a DVFS-capable processor, Xen's
// Credit and SEDF schedulers, the standard Linux cpufreq governors — and
// implements the paper's contribution: PAS, a Power-Aware Scheduler that
// recomputes VM credits whenever the processor frequency changes so that
// every VM always receives exactly the absolute computing capacity its
// credit bought at the maximum frequency, while the frequency is lowered
// (saving energy) whenever the host's absolute load allows.
//
// # Quick start
//
//	sys, err := pasched.NewSystem(pasched.WithPAS())
//	if err != nil { ... }
//	v20, err := sys.AddVM("V20", 20)
//	if err != nil { ... }
//	v20.SetWorkload(pasched.CPUHog())
//	if err := sys.Run(30 * pasched.Second); err != nil { ... }
//	fmt.Println(sys.CPU().Freq())          // 1600MHz: host underloaded
//	cap, _ := sys.PAS().EffectiveCap(v20.ID()) // 33.3%: compensated credit
//
// The full evaluation of the paper is reproducible through the experiment
// harness (RunExperiment / ExperimentIDs) and the cmd/pasbench command.
//
// Package layout: the facade re-exports the types a typical user needs;
// the subsystems live in internal packages (internal/core is the PAS
// scheduler itself, internal/sched the Xen scheduler models, and so on;
// the Architecture section of README.md has the full inventory).
package pasched

import (
	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/engine"
	"pasched/internal/experiments"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/metrics"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// Core type aliases. These are true aliases: values are interchangeable
// with the underlying implementation types.
type (
	// Time is simulated time in microseconds.
	Time = sim.Time
	// Freq is a processor frequency in MHz.
	Freq = cpufreq.Freq
	// Profile describes a processor architecture (P-state ladder, power
	// model, efficiency curve).
	Profile = cpufreq.Profile
	// CPU is a simulated processor core with a current P-state.
	CPU = cpufreq.CPU
	// VM is a virtual machine as the hypervisor scheduler sees it.
	VM = vm.VM
	// VMID identifies a VM within a host.
	VMID = vm.ID
	// VMConfig is the creation-time configuration of a VM.
	VMConfig = vm.Config
	// Host is the simulated virtualized machine.
	Host = host.Host
	// Scheduler decides which VM occupies the processor each quantum.
	Scheduler = sched.Scheduler
	// Governor decides the processor frequency from observed load.
	Governor = governor.Governor
	// Workload is the demand source attached to a VM.
	Workload = workload.Workload
	// PAS is the paper's Power-Aware Scheduler.
	PAS = core.PAS

	// PASCredit2 is the Credit2-based PAS variant (weight enforcement).
	PASCredit2 = core.PASCredit2
	// Series is a named time series recorded by the host.
	Series = metrics.Series
	// Recorder is the host's collection of recorded series.
	Recorder = metrics.Recorder
	// EnergyMeter integrates the host's power draw.
	EnergyMeter = energy.Meter
	// Engine is the shared simulation engine: it owns the clock, the
	// event queue and the periodic actions of every simulated machine,
	// and batches uninterrupted stretches of quanta up to the next event
	// horizon (see internal/engine).
	Engine = engine.Engine
	// ExperimentResult is the outcome of a paper-reproduction experiment.
	ExperimentResult = experiments.Result
)

// Simulated-time constants.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Optiplex755 returns the profile of the paper's main evaluation machine:
// the DELL Optiplex 755 (Core 2 Duo 2.66 GHz) with the 1600..2667 MHz
// ladder of Figures 2-10.
func Optiplex755() *Profile { return cpufreq.Optiplex755() }

// Elite8300 returns the profile of the paper's Table 2 machine: the HP
// Compaq Elite 8300 (Core i7-3770 3.4 GHz).
func Elite8300() *Profile { return cpufreq.Elite8300() }

// Table1Profiles returns the five processor profiles of the paper's
// Table 1.
func Table1Profiles() []*Profile { return cpufreq.Table1Profiles() }

// CPUHog returns an always-runnable CPU-bound workload (the thrashing
// extreme: unbounded demand).
func CPUHog() Workload { return &workload.Hog{} }

// IdleWorkload returns a workload that never has work (a lazy VM).
func IdleWorkload() Workload { return workload.Idle{} }

// NewPiApp returns a fixed-size CPU-bound job of the given work units (the
// paper's pi-app). Its completion time is the execution-time metric.
func NewPiApp(work float64) (*workload.PiApp, error) { return workload.NewPiApp(work) }

// PiWorkFor sizes a pi job: the work that takes seconds of execution when
// granted pct percent of a processor whose maximum throughput is
// maxThroughput work units per second.
func PiWorkFor(maxThroughput, pct, seconds float64) float64 {
	return workload.PiWorkFor(maxThroughput, pct, seconds)
}

// WebAppConfig configures an open-loop web-load generator (the paper's
// httperf-driven Web-app).
type WebAppConfig = workload.WebAppConfig

// WebPhase is one active segment of a web-load profile.
type WebPhase = workload.Phase

// NewWebApp returns an open-loop web-load generator.
func NewWebApp(cfg WebAppConfig) (*workload.WebApp, error) { return workload.NewWebApp(cfg) }

// ExactRate returns the request rate that offers exactly pct percent of
// the processor's maximum capacity (the paper's "exact load").
func ExactRate(maxThroughput, pct, requestCost float64) float64 {
	return workload.ExactRate(maxThroughput, pct, requestCost)
}

// CompensatedCredit is the paper's equation (4): the credit that preserves
// a VM's absolute capacity at a reduced frequency.
func CompensatedCredit(initCredit, ratio, cf float64) (float64, error) {
	return core.CompensatedCredit(initCredit, ratio, cf)
}

// ComputeNewFreq is the paper's Listing 1.1: the lowest frequency whose
// capacity absorbs the given absolute load (in percent).
func ComputeNewFreq(prof *Profile, cf []float64, absLoadPct float64) Freq {
	return core.ComputeNewFreq(prof, cf, absLoadPct)
}

// AbsoluteLoad converts a load observed at the current frequency into the
// equivalent load at the maximum frequency (Section 4 of the paper).
func AbsoluteLoad(globalLoad, ratio, cf float64) float64 {
	return core.AbsoluteLoad(globalLoad, ratio, cf)
}

// RunExperiment runs one paper-reproduction experiment by id (e.g. "fig9",
// "table2"); see ExperimentIDs for the list.
func RunExperiment(id string) (*ExperimentResult, error) { return experiments.Run(id) }

// ExperimentIDs returns the identifiers of all paper-reproduction
// experiments, in the paper's order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the descriptive title of an experiment.
func ExperimentTitle(id string) (string, error) { return experiments.Title(id) }
