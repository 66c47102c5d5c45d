package core

import (
	"fmt"
	"math"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// This file is the PAS control loop (Section 4.2), written once:
// ChooseFreq is Listing 1.1 on a live CPU, Compensate is Listing 1.2's
// credit loop, and loop runs the two at the scheduler tick for both
// in-scheduler variants (PAS and PASCredit2). The user-level daemons of
// Section 4.1 (userlevel.go), the multi-core coordinator of Section 7
// (internal/multicore) and the paper's ondemand governor
// (internal/governor) call the same functions at their own cadence.

// LoadSource supplies the paper's Global load signal: the averaged recent
// processor utilization in [0,1] ("an average of three successive
// processor utilization", footnote 5). The host implements it.
type LoadSource interface {
	GlobalLoad() float64
}

const (
	// DefaultPASInterval is the DVFS/credit recomputation interval: the
	// Xen scheduler tick of 10 ms ("at each tick in the VM scheduler, we
	// compute the appropriate processor frequency", Section 4.2).
	DefaultPASInterval = 10 * sim.Millisecond
	// CapacityMargin inflates the absolute load before the Listing 1.1
	// frequency scan, so that a host saturated at slightly under 100%
	// utilization (scheduling is quantized; Dom0 leaves sub-quantum gaps)
	// still escapes to the next frequency. Listing 1.1's strict
	// comparison corresponds to a very small positive value.
	CapacityMargin = 0.02
	// SettleTime is how long PAS waits after a frequency change before
	// recomputing again. The Global load signal is a sliding average; a
	// sample window measured at the previous frequency, converted with
	// the new frequency's ratio, misestimates the absolute load and can
	// drive a limit cycle. Waiting one full measurement window after each
	// transition (the same reason the kernel rate-limits ondemand to a
	// multiple of the transition latency) removes the misattribution:
	// 400 ms is one default host measurement window (3 x 100 ms) plus
	// margin.
	SettleTime = 400 * sim.Millisecond
)

// Target is a P-state chosen by Listing 1.1: its frequency, and the ratio
// and cf that equation (4) compensates credits for there.
type Target struct {
	Freq  cpufreq.Freq
	Ratio float64
	CF    float64
}

// ChooseFreq is Listing 1.1 on a live CPU: the Global load (in [0,1])
// observed at the CPU's running P-state is converted to the absolute load,
// inflated by margin, and scanned up the ladder for the lowest P-state
// whose capacity exceeds it. cf is the per-P-state calibration table;
// nil assumes cf = 1.
func ChooseFreq(cpu *cpufreq.CPU, cf []float64, globalLoad, margin float64) Target {
	return targetAt(cpu.Profile(), cf, chooseLevel(cpu, cf, globalLoad, margin))
}

// chooseLevel is ChooseFreq's scan, returning the chosen ladder position.
// For a fixed profile, cf table and margin it depends only on the load
// and cpu.Freq().
func chooseLevel(cpu *cpufreq.CPU, cf []float64, globalLoad, margin float64) int {
	abs := AbsoluteLoad(globalLoad*100, cpu.Ratio(), CFAt(cf, cpu.Level()))
	return computeNewLevel(cpu.Profile(), cf, abs*(1+margin))
}

// targetAt is the Target of ladder position i.
func targetAt(prof *cpufreq.Profile, cf []float64, i int) Target {
	f := prof.States[i].Freq
	return Target{Freq: f, Ratio: prof.Ratio(f), CF: CFAt(cf, i)}
}

// Compensate is Listing 1.2's credit loop: it caps every VM with a
// positive contracted credit at its equation (4) credit for (ratio, cf)
// and returns how many VMs it capped. Null-credit VMs have no SLA to
// compensate and keep their cap.
//
// A failed compensation or a rejected cap would leave the VM capped for
// the old frequency with no trace — an accounting invariant violation,
// not a recoverable condition. Callers pass a ratio and cf from a
// validated ladder, and register every contracted VM with caps, so both
// are impossible; Compensate enforces it by panicking.
func Compensate(caps sched.CapSetter, contracts map[vm.ID]float64, ratio, cf float64) int64 {
	n := int64(0)
	for id, init := range contracts {
		if init <= 0 {
			continue
		}
		c, err := CompensatedCredit(init, ratio, cf)
		if err != nil {
			panic(fmt.Sprintf("core: recompensation for VM %d (init %v, ratio %v, cf %v): %v",
				id, init, ratio, cf, err))
		}
		if err := caps.SetCap(id, c); err != nil {
			panic(fmt.Sprintf("core: recompensated cap for VM %d rejected: %v", id, err))
		}
		n++
	}
	return n
}

// loop is the control loop both in-scheduler variants embed. Once a load
// source is bound, every DefaultPASInterval it chooses the frequency
// (ChooseFreq with CapacityMargin), requests it when it differs from the
// running one, holds off SettleTime after each switch, and hands the
// choice to the variant's enforcer. It also keeps the VMs' contracted
// credits — what PAS compensates and PASCredit2 turns into weights.
//
// The load is a meter average that moves every 100 ms while the loop
// runs every 10 ms, so the loop remembers its last choice: the load's
// bits and the CPU's ladder position it was made from, and the position
// chosen. Given the loop's fixed profile and cf table, the choice is a
// function of exactly that pair.
type loop struct {
	cpu         *cpufreq.CPU
	cf          []float64
	loads       LoadSource
	contracts   map[vm.ID]float64
	next        sim.Time
	settleUntil sim.Time
	recomputes  int
	memoLoad    uint64 // math.Float64bits of the load last chosen from
	memoFrom    int32  // the CPU's ladder position then; -1 before any choice
	memoTo      int32  // the ladder position chosen
}

// enforcer is a variant's half of Listing 1.2: what one recomputation
// does to the VMs once the loop has chosen t and, if switched, requested
// it from the CPU.
type enforcer interface {
	enforce(at sim.Time, t Target, switched bool)
}

// newLoop checks the CPU and the cf table and builds an unbound loop.
func newLoop(cpu *cpufreq.CPU, cf []float64) (loop, error) {
	if cpu == nil {
		return loop{}, fmt.Errorf("core: PAS requires a CPU")
	}
	if cf != nil && len(cf) != cpu.Profile().Levels() {
		return loop{}, fmt.Errorf("core: CF table has %d entries for %d P-states",
			len(cf), cpu.Profile().Levels())
	}
	return loop{
		cpu:       cpu,
		cf:        cf,
		contracts: make(map[vm.ID]float64),
		next:      DefaultPASInterval,
		memoFrom:  -1,
	}, nil
}

// BindLoadSource attaches the Global load signal. Typically called with
// the host right after host construction; until then the scheduler never
// recomputes and runs at a fixed frequency, and after it the first
// recomputation is the next instant of the DefaultPASInterval grid.
func (l *loop) BindLoadSource(ls LoadSource) { l.loads = ls }

// Recomputes returns how many DVFS recomputations have run, for tests
// and introspection.
func (l *loop) Recomputes() int { return l.recomputes }

// Cap implements sched.CapSetter, returning the VM's contracted credit
// rather than the momentary enforcement (a compensated cap or a weight).
func (l *loop) Cap(id vm.ID) (float64, error) {
	init, ok := l.contracts[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	return init, nil
}

// recontract validates a SetCap and records pct as the VM's contracted
// credit.
func (l *loop) recontract(id vm.ID, pct float64) error {
	if _, ok := l.contracts[id]; !ok {
		return fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	if pct < 0 {
		return fmt.Errorf("core: negative credit %v for VM %d", pct, id)
	}
	l.contracts[id] = pct
	return nil
}

// tick runs, in order, every recomputation due by now. Unbound, the
// schedule still advances along its grid, so a late BindLoadSource
// resumes at the next grid instant instead of replaying the missed ones
// with the current load.
func (l *loop) tick(now sim.Time, e enforcer) {
	if l.loads == nil {
		if now >= l.next {
			l.next += (now-l.next)/DefaultPASInterval*DefaultPASInterval + DefaultPASInterval
		}
		return
	}
	for now >= l.next {
		l.recompute(e)
	}
}

// recompute is one pass of Listing 1.2 at the next scheduled instant:
// choose the frequency from the absolute load, request it, and let the
// variant enforce the VMs' contracts for it.
func (l *loop) recompute(e enforcer) {
	at := l.next
	l.next += DefaultPASInterval
	if at < l.settleUntil {
		return // the load signal still contains pre-transition samples
	}
	t := l.choose(l.loads.GlobalLoad())
	switched := t.Freq != l.cpu.Freq()
	if switched {
		_ = l.cpu.SetFreq(t.Freq, at) // a ladder frequency by construction
		l.settleUntil = at + SettleTime
	}
	e.enforce(at, t, switched)
	l.recomputes++
}

// choose is ChooseFreq with CapacityMargin, rerun only when the load's
// bits or the CPU's ladder position differ from the last choice's.
func (l *loop) choose(load float64) Target {
	bits, from := math.Float64bits(load), int32(l.cpu.Level())
	if bits != l.memoLoad || from != l.memoFrom {
		l.memoLoad, l.memoFrom = bits, from
		l.memoTo = int32(chooseLevel(l.cpu, l.cf, load, CapacityMargin))
	}
	return targetAt(l.cpu.Profile(), l.cf, int(l.memoTo))
}

// boundary narrows the inner scheduler's next boundary b to the next
// recomputation, which can change the frequency (and PAS's caps), so
// batched steps must stop before it.
func (l *loop) boundary(b sim.Time) sim.Time {
	if l.loads != nil && l.next < b {
		return l.next
	}
	return b
}
