package fleet

import (
	"fmt"

	"pasched/internal/cpufreq"
)

// Request is a VM the fleet asks a policy to place: the class-derived
// resources plus the mean activity of its demand profile (the policy's
// load estimate; the true demand is only known as it unfolds).
type Request struct {
	Name string
	// CreditPct and MemoryMB come from the VM's class.
	CreditPct float64
	MemoryMB  int
	// MeanActivity is the time-averaged fraction of the credit the VM is
	// expected to demand, in [0, 1].
	MeanActivity float64
}

// MachineState is the policy-visible view of one machine. Policies see
// the fleet's bookkeeping (reservations included), never the live hosts —
// placement needs no host synchronization.
type MachineState struct {
	// Index is the machine's fleet-wide index; policies return it.
	Index int
	// Class is the machine-class name.
	Class string
	// On reports the power state. Placing on an off machine powers it on.
	On bool
	// FreeMemMB and FreeCreditPct are the remaining capacities after all
	// resident VMs and in-flight migration reservations.
	FreeMemMB     int
	FreeCreditPct float64
	// OfferedLoadPct estimates the machine's offered load: the sum of
	// CreditPct x MeanActivity over resident and reserved VMs, in percent
	// of this machine's capacity at maximum frequency.
	OfferedLoadPct float64
	// Profile is the machine's processor architecture (its frequency
	// ladder and power curve), for DVFS-aware decisions.
	Profile *cpufreq.Profile
}

// Fits reports whether the machine has room for the request.
func (m MachineState) Fits(r Request) bool {
	return m.FreeMemMB >= r.MemoryMB && m.FreeCreditPct >= r.CreditPct
}

// Policy decides placement. Place receives every machine (on and off) and
// returns the index of the chosen one, or ok=false to reject the VM.
// Returning an off machine powers it on. For consolidation moves the
// fleet passes only the eligible machines (powered-on, excluding the
// migration source); the MachineState.Index field always carries the
// fleet-wide index to return.
//
// Place must treat the slice as read-only and must not retain it: the
// fleet keeps its machine state in place and passes the same backing
// array on every call.
type Policy interface {
	Name() string
	Place(machines []MachineState, r Request) (int, bool)
}

// FirstFit places on the lowest-indexed powered-on machine with room,
// powering on the lowest-indexed off machine only when no running one
// fits. It is the classic baseline: cheap, and it packs low indices.
type FirstFit struct{}

// NewFirstFit returns the first-fit policy.
func NewFirstFit() FirstFit { return FirstFit{} }

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Policy.
func (FirstFit) Place(machines []MachineState, r Request) (int, bool) {
	for _, m := range machines {
		if m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	for _, m := range machines {
		if !m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	return 0, false
}

// BestFit places on the powered-on machine whose credit headroom after
// placement is smallest (the tightest fit), so big headroom — and with it
// whole machines — is preserved for later arrivals. Off machines are
// powered on only when nothing running fits.
type BestFit struct{}

// NewBestFit returns the best-fit-by-credit-headroom policy.
func NewBestFit() BestFit { return BestFit{} }

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Policy.
func (BestFit) Place(machines []MachineState, r Request) (int, bool) {
	best, bestLeft := -1, 0.0
	for _, m := range machines {
		if !m.On || !m.Fits(r) {
			continue
		}
		left := m.FreeCreditPct - r.CreditPct
		if best < 0 || left < bestLeft {
			best, bestLeft = m.Index, left
		}
	}
	if best >= 0 {
		return best, true
	}
	for _, m := range machines {
		if !m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	return 0, false
}

// DVFSAware places where the fleet's estimated power draw grows least,
// using each machine class's own frequency ladder and power curve: for
// every candidate it computes the lowest frequency whose
// credit-compensated capacity absorbs the machine's offered load after
// placement (the PAS operating point, equation 5 of the paper) and
// compares the resulting power deltas. Machines that can stay at a
// reduced frequency with PAS compensating the credits therefore attract
// load before machines that would have to speed up — and powering on a
// new machine competes against those deltas at its full (static +
// dynamic) cost, so it happens only when it is genuinely cheaper than
// cramming.
type DVFSAware struct {
	// Margin is the capacity headroom kept above the estimated load when
	// choosing the operating frequency, as in core.PASConfig; the
	// constructor sets 0.05.
	Margin float64
	// tabs memoizes each profile's power table, shared by every copy of
	// the policy: the estimate runs for every candidate machine of every
	// arrival, so it must not rebuild per-state constants or allocate.
	// Tables do not depend on Margin. A zero-value policy has no memo and
	// builds a table per call. Policies run on the single-threaded fleet
	// loop, so a plain map is fine.
	tabs map[*cpufreq.Profile]*powerTable
}

// NewDVFSAware returns the DVFS-aware packing policy.
func NewDVFSAware() DVFSAware {
	return DVFSAware{Margin: 0.05, tabs: make(map[*cpufreq.Profile]*powerTable)}
}

// Name implements Policy.
func (DVFSAware) Name() string { return "dvfs-aware" }

// Place implements Policy.
func (p DVFSAware) Place(machines []MachineState, r Request) (int, bool) {
	add := r.CreditPct * r.MeanActivity
	scale := 1 + p.Margin
	// Machines of a class are adjacent in the fleet's states, so one
	// table lookup serves a whole run of them.
	var prof *cpufreq.Profile
	var tab *powerTable
	best, bestCost := -1, 0.0
	for i := range machines {
		m := &machines[i]
		if !m.Fits(r) {
			continue
		}
		if tab == nil || m.Profile != prof {
			prof, tab = m.Profile, p.table(m.Profile)
		}
		var cost float64
		if m.On {
			cost = tab.watts(m.OfferedLoadPct+add, scale) - tab.watts(m.OfferedLoadPct, scale)
		} else {
			// Powering on pays the machine's whole draw, idle floor
			// included.
			cost = tab.watts(add, scale)
		}
		if best < 0 || cost < bestCost {
			best, bestCost = m.Index, cost
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// table returns prof's power table from the memo, building it on a miss.
func (p DVFSAware) table(prof *cpufreq.Profile) *powerTable {
	if t := p.tabs[prof]; t != nil { // nil-map reads are fine for a zero-value policy
		return t
	}
	t := newPowerTable(prof)
	if p.tabs != nil {
		p.tabs[prof] = t
	}
	return t
}

// powerTable is one processor profile's power estimate at the PAS
// operating point, reduced to per-state constants. watts applies the
// same float operations in the same order as core.ComputeNewFreq over
// the profile's efficiency table followed by Profile.Power, so its watts
// are bit-identical to that path's, without its ladder searches. The
// profile must pass cpufreq.Profile.Validate, as every fleet machine's
// does (host construction checks it).
type powerTable struct {
	states       []powerState
	static, idle float64
}

type powerState struct {
	thr float64 // capacity threshold Ratio(f)*100*cf, as in ComputeNewFreq
	div float64 // load-to-utilization divisor Ratio(f)*Efficiency(f)
	dyn float64 // dynamic coefficient DynCoeff*V*V*fGHz, as in Power
}

func newPowerTable(prof *cpufreq.Profile) *powerTable {
	t := &powerTable{
		states: make([]powerState, len(prof.States)),
		static: prof.StaticPower,
		idle:   prof.IdleFactor,
	}
	for i, s := range prof.States {
		ratio := prof.Ratio(s.Freq)
		fGHz := float64(s.Freq) / 1000
		t.states[i] = powerState{
			thr: ratio * 100 * s.Efficiency,
			div: ratio * s.Efficiency,
			dyn: prof.DynCoeff * s.Voltage * s.Voltage * fGHz,
		}
	}
	return t
}

// watts returns the machine's estimated power draw when serving
// absLoadPct percent of its maximum capacity at the PAS operating point:
// the lowest ladder state whose compensated capacity covers the load
// times scale (1 + the policy's margin), else the top state. It stays
// small enough to inline into the placement loops.
func (t *powerTable) watts(absLoadPct, scale float64) float64 {
	x := absLoadPct * scale
	s := t.states
	for len(s) > 1 && !(s[0].thr > x) {
		s = s[1:]
	}
	util := absLoadPct / 100 / s[0].div
	if util > 1 {
		util = 1
	} else if util < 0 {
		util = 0
	}
	return t.static + s[0].dyn*(t.idle+(1-t.idle)*util)
}

// PolicyByName returns the named built-in policy ("first-fit",
// "best-fit", "dvfs-aware").
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "first-fit", "firstfit":
		return NewFirstFit(), nil
	case "best-fit", "bestfit":
		return NewBestFit(), nil
	case "dvfs-aware", "dvfs":
		return NewDVFSAware(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want first-fit, best-fit or dvfs-aware)", name)
	}
}
