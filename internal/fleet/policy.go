package fleet

import (
	"fmt"

	"pasched/internal/cpufreq"
)

// Request is a VM the fleet asks its policy to place: the class-derived
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

// machineState is the placement view of one machine: the fleet's
// bookkeeping (reservations included), never the live host — placement
// needs no host synchronization. It holds no pointers.
type machineState struct {
	// On reports the power state. Placing on an off machine powers it on.
	On bool
	// hidden removes a powered-on machine from the placement indexes
	// for one consolidation round (the victim and the empty machines);
	// it is false outside consolidate.
	hidden bool
	// FreeMemMB and FreeCreditPct are the remaining capacities after all
	// resident VMs and in-flight migration reservations.
	FreeMemMB     int
	FreeCreditPct float64
	// OfferedLoadPct estimates the machine's offered load: the sum of
	// CreditPct x MeanActivity over resident and reserved VMs, in percent
	// of this machine's capacity at maximum frequency.
	OfferedLoadPct float64
}

// Fits reports whether the machine has room for the request.
func (m machineState) Fits(r Request) bool {
	return m.FreeMemMB >= r.MemoryMB && m.FreeCreditPct >= r.CreditPct
}

// Policy names one of the three built-in placement policies, which
// decide both where an arrival lands and where consolidation migrates
// running VMs. The zero value is first-fit.
type Policy struct{ kind policyKind }

type policyKind uint8

const (
	firstFit policyKind = iota
	bestFit
	dvfsAware
)

// NewFirstFit returns the first-fit policy: it places on the
// lowest-indexed powered-on machine with room, powering on the
// lowest-indexed off machine only when no running one fits. It is the
// classic baseline: cheap, and it packs low indices.
func NewFirstFit() Policy { return Policy{firstFit} }

// NewBestFit returns the best-fit-by-credit-headroom policy: it places
// on the powered-on machine whose credit headroom after placement is
// smallest (the tightest fit, lowest index on ties), so big headroom —
// and with it whole machines — is preserved for later arrivals. Off
// machines are powered on only when nothing running fits.
func NewBestFit() Policy { return Policy{bestFit} }

// NewDVFSAware returns the DVFS-aware packing policy: it places where
// the fleet's estimated power draw grows least, using each machine
// class's own frequency ladder and power curve. For every candidate it
// computes the lowest frequency whose credit-compensated capacity
// absorbs the machine's offered load after placement (the PAS operating
// point, equation 5 of the paper) and compares the resulting power
// deltas, lowest index on ties. Machines that can stay at a reduced
// frequency with PAS compensating the credits therefore attract load
// before machines that would have to speed up — and powering on a new
// machine competes against those deltas at its full (static + dynamic)
// cost, so it happens only when it is genuinely cheaper than cramming.
func NewDVFSAware() Policy { return Policy{dvfsAware} }

// Name returns the policy's canonical name, as PolicyByName accepts it.
func (p Policy) Name() string {
	switch p.kind {
	case bestFit:
		return "best-fit"
	case dvfsAware:
		return "dvfs-aware"
	default:
		return "first-fit"
	}
}

// dvfsMargin is the capacity headroom the dvfs-aware policy keeps above
// the estimated load when choosing the operating frequency, as
// core.CapacityMargin does for PAS.
const dvfsMargin = 0.05

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
// small enough to inline into the placement loop.
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
		return Policy{}, fmt.Errorf("fleet: unknown policy %q (want first-fit, best-fit or dvfs-aware)", name)
	}
}
