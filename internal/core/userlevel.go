package core

import (
	"fmt"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// This file implements the two user-level designs the paper considered and
// rejected in favour of the in-scheduler PAS (Section 4.1):
//
//   - "user level - credit management": the Ondemand governor keeps
//     managing the frequency; a user-level daemon monitors the frequency
//     and periodically recomputes VM credits to preserve allocations.
//   - "user level - credit and DVFS management": a user-level daemon
//     monitors the VM loads and periodically sets both the frequency and
//     the compensated credits.
//
// Both run as host Agents. Their coarser polling interval is exactly the
// reactivity penalty the paper cites for rejecting them; the ablation
// experiment (experiments.AblationImpl) quantifies it.

// CreditManager is the "user level - credit management" variant: it reads
// the frequency that some independent governor chose and updates VM caps
// to the compensated credits for that frequency.
type CreditManager struct {
	cpu      *cpufreq.CPU
	caps     sched.CapSetter
	cf       []float64
	interval sim.Time
	init     map[vm.ID]float64
}

// NewCreditManager builds the user-level credit manager. initCredits maps
// each managed VM to its contracted credit at maximum frequency; every
// VM must already be known to caps. interval is the daemon's polling
// period (e.g. 1 s); it must be positive.
func NewCreditManager(cpu *cpufreq.CPU, caps sched.CapSetter, cf []float64,
	interval sim.Time, initCredits map[vm.ID]float64) (*CreditManager, error) {
	if cpu == nil || caps == nil {
		return nil, fmt.Errorf("core: credit manager requires a CPU and a cap setter")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("core: credit manager interval must be positive, got %v", interval)
	}
	if cf != nil && len(cf) != cpu.Profile().Levels() {
		return nil, fmt.Errorf("core: CF table has %d entries for %d P-states",
			len(cf), cpu.Profile().Levels())
	}
	init := make(map[vm.ID]float64, len(initCredits))
	for id, c := range initCredits {
		if c < 0 {
			return nil, fmt.Errorf("core: negative credit %v for VM %d", c, id)
		}
		// Compensate panics on a VM the cap setter rejects, so an unknown
		// VM is refused here rather than at the first poll.
		if _, err := caps.Cap(id); err != nil {
			return nil, fmt.Errorf("core: credit manager contract: %w", err)
		}
		init[id] = c
	}
	return &CreditManager{cpu: cpu, caps: caps, cf: cf, interval: interval, init: init}, nil
}

// Interval implements host.Agent.
func (m *CreditManager) Interval() sim.Time { return m.interval }

// Run implements host.Agent: one daemon iteration, compensating every
// contract for the frequency the governor is running.
func (m *CreditManager) Run(sim.Time) {
	Compensate(m.caps, m.init, m.cpu.Ratio(), CFAt(m.cf, m.cpu.Level()))
}

// DVFSCreditManager is the "user level - credit and DVFS management"
// variant: the daemon computes the frequency that can absorb the absolute
// load, sets it, and sets the compensated credits — the full PAS loop, but
// at user-level polling granularity, with no capacity margin and no
// settle time.
type DVFSCreditManager struct {
	inner *CreditManager
	loads LoadSource
}

// NewDVFSCreditManager builds the user-level credit-and-DVFS manager.
func NewDVFSCreditManager(cpu *cpufreq.CPU, caps sched.CapSetter, loads LoadSource,
	cf []float64, interval sim.Time, initCredits map[vm.ID]float64) (*DVFSCreditManager, error) {
	if loads == nil {
		return nil, fmt.Errorf("core: DVFS credit manager requires a load source")
	}
	inner, err := NewCreditManager(cpu, caps, cf, interval, initCredits)
	if err != nil {
		return nil, err
	}
	return &DVFSCreditManager{inner: inner, loads: loads}, nil
}

// Interval implements host.Agent.
func (m *DVFSCreditManager) Interval() sim.Time { return m.inner.interval }

// Run implements host.Agent: one daemon iteration.
func (m *DVFSCreditManager) Run(now sim.Time) {
	cpu := m.inner.cpu
	t := ChooseFreq(cpu, m.inner.cf, m.loads.GlobalLoad(), 0)
	// Requesting the running frequency would cancel a pending switch.
	if t.Freq != cpu.Freq() {
		_ = cpu.SetFreq(t.Freq, now) // a ladder frequency by construction
	}
	// Credits are recomputed for the frequency just requested, matching
	// Listing 1.2's order (credits first would use the stale ratio).
	Compensate(m.inner.caps, m.inner.init, t.Ratio, t.CF)
}
