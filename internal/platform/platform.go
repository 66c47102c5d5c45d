// Package platform models the seven virtualization platforms of the
// paper's Table 2 (Section 5.8): Hyper-V Server 2012, VMware ESXi 5, Xen
// with the Credit scheduler, Xen with the PAS scheduler, Xen with the SEDF
// scheduler, KVM and VirtualBox, all on the HP Compaq Elite 8300
// (Core i7-3770).
//
// Each platform is reduced to the three properties Table 2 actually
// exercises:
//
//   - the scheduler family (fix credit vs variable credit), which decides
//     whether a busy VM can consume slices an idle VM leaves unused;
//   - the depth of its DVFS policy, modelled as the deepest P-state its
//     ondemand-style governor uses (commercial "balanced" power policies
//     do not use the deepest states; this is what differentiates the
//     degradation magnitudes of the fix-credit columns);
//   - a CPU overhead factor relative to Xen, calibrated from the paper's
//     Performance-governor row (e.g. Hyper-V 1601s vs Xen 1559s).
//
// Platform.Stack maps a platform and a Table 2 row to a scheduler name
// of the machine builder's registry (host.NewMachine) and a governor.
// Every Performance column is its scheduler family plus the performance
// governor; for Xen/PAS that is credit plus the performance governor,
// since PAS at the pinned maximum frequency schedules exactly like
// Credit. Its OnDemand column is the in-scheduler PAS loop.
//
// These are approximations of closed-source systems; EXPERIMENTS.md
// documents the calibration.
package platform

import (
	"fmt"

	"pasched/internal/cpufreq"
	"pasched/internal/governor"
)

// Family classifies a platform's scheduler in the paper's taxonomy
// (Section 3.1).
type Family int

// Scheduler families.
const (
	// FixCredit guarantees and hard-caps each VM's credit.
	FixCredit Family = iota + 1
	// VariableCredit redistributes unused slices to busy VMs.
	VariableCredit
)

// String renders the family as used in Table 2's column grouping.
func (f Family) String() string {
	switch f {
	case FixCredit:
		return "fix credit"
	case VariableCredit:
		return "variable credit"
	default:
		return "unknown"
	}
}

// GovernorMode selects the row of Table 2.
type GovernorMode int

// Governor modes of Table 2's rows.
const (
	// Performance pins the maximum frequency.
	Performance GovernorMode = iota + 1
	// OnDemand is the platform's dynamic frequency policy.
	OnDemand
)

// String renders the mode as in Table 2's row labels.
func (m GovernorMode) String() string {
	switch m {
	case Performance:
		return "Performance"
	case OnDemand:
		return "OnDemand"
	default:
		return "unknown"
	}
}

// Platform describes one Table 2 column.
type Platform struct {
	// Name is the column label, e.g. "Hyper-V".
	Name string
	// Family is the scheduler classification.
	Family Family
	// PAS marks the Xen/PAS column, which replaces the OnDemand governor
	// with the in-scheduler PAS loop.
	PAS bool
	// SEDF selects the SEDF scheduler for variable-credit platforms that
	// use reservation-style scheduling; false selects the
	// weight-proportional work-conserving model (KVM, VirtualBox).
	SEDF bool
	// FloorIndex is the deepest P-state index the platform's ondemand
	// policy uses (0 = full ladder depth).
	FloorIndex int
	// Overhead is the CPU overhead factor relative to Xen (work is
	// multiplied by it), calibrated from Table 2's Performance row.
	Overhead float64
}

// Platforms returns the seven Table 2 columns in the paper's order.
func Platforms() []Platform {
	return []Platform{
		{Name: "Hyper-V", Family: FixCredit, FloorIndex: 0, Overhead: 1601.0 / 1559.0},
		{Name: "VMware", Family: FixCredit, FloorIndex: 2, Overhead: 1550.0 / 1559.0},
		{Name: "Xen/credit", Family: FixCredit, FloorIndex: 1, Overhead: 1},
		{Name: "Xen/PAS", Family: FixCredit, PAS: true, FloorIndex: 0, Overhead: 1},
		{Name: "Xen/SEDF", Family: VariableCredit, SEDF: true, FloorIndex: 0, Overhead: 616.0 / 616.0},
		{Name: "KVM", Family: VariableCredit, FloorIndex: 0, Overhead: 599.0 / 616.0},
		{Name: "Vbox", Family: VariableCredit, FloorIndex: 0, Overhead: 625.0 / 616.0},
	}
}

// ByName returns the platform with the given Table 2 column name.
func ByName(name string) (Platform, error) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("platform: unknown platform %q", name)
}

// Stack returns the platform's stack for one Table 2 row: a scheduler
// name of the machine builder's registry (host.NewMachine) and the
// governor, nil when the scheduler manages DVFS itself (Xen/PAS under
// OnDemand).
func (p Platform) Stack(prof *cpufreq.Profile, mode GovernorMode) (scheduler string, gov governor.Governor, err error) {
	switch {
	case p.Family == VariableCredit && p.SEDF:
		scheduler = "sedf"
	case p.Family == VariableCredit:
		scheduler = "credit2"
	default:
		scheduler = "credit"
	}
	switch mode {
	case Performance:
		return scheduler, &governor.Performance{}, nil
	case OnDemand:
		if p.PAS {
			return "pas", nil, nil
		}
		inner := governor.NewPaperOndemand(prof.EfficiencyTable())
		if p.FloorIndex > 0 {
			return scheduler, &governor.Clamped{Inner: inner, FloorIndex: p.FloorIndex}, nil
		}
		return scheduler, inner, nil
	default:
		return "", nil, fmt.Errorf("platform: unknown governor mode %d", mode)
	}
}
