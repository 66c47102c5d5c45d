// Package consolidation implements the server-consolidation context of
// Section 2.3 of the paper: VMs are packed onto as few physical machines
// as possible and unused machines are switched off — but memory, not CPU,
// is the binding constraint ("an important bottleneck of such
// consolidation systems is memory"). A memory-bound packing therefore
// leaves the CPUs of the remaining machines underutilized, which is
// exactly where DVFS — and the PAS scheduler's credit compensation — keeps
// paying off. The Simulate function quantifies that complementarity.
package consolidation

import (
	"fmt"
	"sort"

	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// VMSpec describes one VM to place: its CPU SLA, its memory footprint
// (the packing constraint) and how much of its credit its workload
// actually uses.
type VMSpec struct {
	// Name labels the VM.
	Name string
	// CreditPct is the CPU credit (SLA) in (0, 100].
	CreditPct float64
	// MemoryMB is the VM's memory footprint. "Any VM, even idle, needs
	// physical memory" (Section 2.3).
	MemoryMB int
	// Activity is the fraction of the credit the workload actually
	// consumes, in [0, 1]. Servers idle below 30% utilization most of
	// the time (Section 1).
	Activity float64
}

// Validate checks the spec invariants.
func (s VMSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("consolidation: VM without a name")
	}
	if s.CreditPct <= 0 || s.CreditPct > 100 {
		return fmt.Errorf("consolidation: %s: credit %v outside (0,100]", s.Name, s.CreditPct)
	}
	if s.MemoryMB <= 0 {
		return fmt.Errorf("consolidation: %s: memory %d not positive", s.Name, s.MemoryMB)
	}
	if s.Activity < 0 || s.Activity > 1 {
		return fmt.Errorf("consolidation: %s: activity %v outside [0,1]", s.Name, s.Activity)
	}
	return nil
}

// HostSpec describes the physical machines of the hosting center (assumed
// homogeneous, as in the paper's Grid'5000 clusters).
type HostSpec struct {
	// MemoryMB is the machine's memory capacity.
	MemoryMB int
	// Profile is the machine's processor architecture.
	Profile *cpufreq.Profile
	// Dom0ReservePct is the CPU share reserved for Dom0; default 10 (the
	// paper's setup).
	Dom0ReservePct float64
}

// WithDefaults validates the spec and fills defaults (10% Dom0 reserve,
// the paper's setup). Callers composing machines out of HostSpecs —
// Simulate here, the heterogeneous fleet in internal/fleet — resolve the
// spec once and keep the resolved copy.
func (h HostSpec) WithDefaults() (HostSpec, error) {
	if h.MemoryMB <= 0 {
		return h, fmt.Errorf("consolidation: host memory %d not positive", h.MemoryMB)
	}
	if h.Profile == nil {
		return h, fmt.Errorf("consolidation: host without a processor profile")
	}
	if h.Dom0ReservePct == 0 {
		h.Dom0ReservePct = 10
	}
	if h.Dom0ReservePct < 0 || h.Dom0ReservePct >= 100 {
		return h, fmt.Errorf("consolidation: dom0 reserve %v outside [0,100)", h.Dom0ReservePct)
	}
	return h, nil
}

// Placement is the result of packing: which machine index each VM landed
// on, and how many machines are used (the rest are switched off).
type Placement struct {
	Assignments map[string]int
	Hosts       int
}

// PackFFD packs the VMs with first-fit decreasing on memory, respecting
// both the memory capacity and the CPU-credit capacity
// (100 - Dom0ReservePct) of every machine. It returns an error if any
// single VM cannot fit on an empty machine.
func PackFFD(vms []VMSpec, spec HostSpec) (*Placement, error) {
	spec, err := spec.WithDefaults()
	if err != nil {
		return nil, err
	}
	for _, v := range vms {
		if err := v.Validate(); err != nil {
			return nil, err
		}
		if v.MemoryMB > spec.MemoryMB {
			return nil, fmt.Errorf("consolidation: %s needs %d MB, machine has %d",
				v.Name, v.MemoryMB, spec.MemoryMB)
		}
		if v.CreditPct > 100-spec.Dom0ReservePct {
			return nil, fmt.Errorf("consolidation: %s needs %v%% CPU, machine offers %v%%",
				v.Name, v.CreditPct, 100-spec.Dom0ReservePct)
		}
	}
	seen := make(map[string]bool, len(vms))
	for _, v := range vms {
		if seen[v.Name] {
			return nil, fmt.Errorf("consolidation: duplicate VM name %q", v.Name)
		}
		seen[v.Name] = true
	}

	order := make([]VMSpec, len(vms))
	copy(order, vms)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].MemoryMB > order[j].MemoryMB
	})

	type bin struct {
		memLeft    int
		creditLeft float64
	}
	var bins []bin
	placement := &Placement{Assignments: make(map[string]int, len(vms))}
	for _, v := range order {
		placed := false
		for i := range bins {
			if bins[i].memLeft >= v.MemoryMB && bins[i].creditLeft >= v.CreditPct {
				bins[i].memLeft -= v.MemoryMB
				bins[i].creditLeft -= v.CreditPct
				placement.Assignments[v.Name] = i
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bin{
				memLeft:    spec.MemoryMB - v.MemoryMB,
				creditLeft: 100 - spec.Dom0ReservePct - v.CreditPct,
			})
			placement.Assignments[v.Name] = len(bins) - 1
		}
	}
	placement.Hosts = len(bins)
	return placement, nil
}

// HostReport is the simulated outcome for one active machine.
type HostReport struct {
	Joules      float64
	MeanFreqMHz float64
	MeanLoadPct float64
	VMs         []string
}

// Report is the simulated outcome of a placement.
type Report struct {
	HostsUsed   int
	TotalJoules float64
	PerHost     []HostReport
}

// Simulate runs the placement for dur: one simulated machine per used
// host, each under the PAS scheduler (usePAS) or a fix-credit scheduler at
// the maximum frequency (the baseline), with each VM offering
// Activity x Credit worth of load. Switched-off machines consume nothing.
func Simulate(p *Placement, vms []VMSpec, spec HostSpec, dur sim.Time, usePAS bool) (*Report, error) {
	spec, err := spec.WithDefaults()
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("consolidation: nil placement")
	}
	if dur <= 0 {
		return nil, fmt.Errorf("consolidation: duration %v not positive", dur)
	}
	byHost := make([][]VMSpec, p.Hosts)
	for _, v := range vms {
		idx, ok := p.Assignments[v.Name]
		if !ok {
			return nil, fmt.Errorf("consolidation: VM %q not in placement", v.Name)
		}
		if idx < 0 || idx >= p.Hosts {
			return nil, fmt.Errorf("consolidation: VM %q assigned to invalid host %d", v.Name, idx)
		}
		byHost[idx] = append(byHost[idx], v)
	}

	rep := &Report{HostsUsed: p.Hosts}
	var total energy.Energy
	maxTp, err := spec.Profile.Throughput(spec.Profile.Max())
	if err != nil {
		return nil, err
	}
	scheduler := "credit"
	if usePAS {
		scheduler = "pas"
	}
	for hi, group := range byHost {
		h, err := host.NewMachine(scheduler, spec.Dom0ReservePct, host.Config{Profile: spec.Profile})
		if err != nil {
			return nil, fmt.Errorf("consolidation: host %d: %w", hi, err)
		}
		hr := HostReport{}
		for vi, vs := range group {
			gv, err := vm.New(vm.ID(vi+1), vm.Config{Name: vs.Name, Credit: vs.CreditPct})
			if err != nil {
				return nil, err
			}
			if vs.Activity > 0 {
				offered := vs.CreditPct * vs.Activity
				wl, err := workload.NewWebApp(workload.WebAppConfig{
					Phases: workload.ThreePhase(0, dur,
						workload.ExactRate(maxTp, offered, workload.DefaultRequestCost)),
					Seed: uint64(hi*101 + vi + 1),
				})
				if err != nil {
					return nil, err
				}
				gv.SetWorkload(wl)
			}
			if err := h.AddVM(gv); err != nil {
				return nil, err
			}
			hr.VMs = append(hr.VMs, vs.Name)
		}
		if err := h.RunUntil(dur); err != nil {
			return nil, err
		}
		hr.Joules = h.Energy().Joules()
		hr.MeanFreqMHz = h.Recorder().Series("freq_mhz").Mean()
		hr.MeanLoadPct = h.Recorder().Series("global_load_pct").Mean()
		rep.PerHost = append(rep.PerHost, hr)
		total = total.Add(h.Energy().Total())
	}
	// The total is the exact integer sum of the per-host meters,
	// converted to joules only here at the report edge.
	rep.TotalJoules = total.Joules()
	return rep, nil
}
