package pasched

import (
	"pasched/internal/consolidation"
	"pasched/internal/multicore"
)

// Extension type aliases: the multi-core DVFS cluster (the paper's
// Section 7 perspective) and consolidation packing (Section 2.3).
type (
	// Cluster is a multi-core host under cluster-level PAS coordination.
	Cluster = multicore.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = multicore.Config
	// DVFSDomain selects per-core or per-socket frequency domains.
	DVFSDomain = multicore.DVFSDomain
	// DataCenterVM describes a VM to pack onto machines.
	DataCenterVM = consolidation.VMSpec
	// MachineSpec describes the fleet's physical machines.
	MachineSpec = consolidation.HostSpec
)

// DVFS domain granularities for ClusterConfig.
const (
	// PerCoreDVFS gives every core an independent frequency.
	PerCoreDVFS = multicore.PerCore
	// PerSocketDVFS shares one frequency across all cores.
	PerSocketDVFS = multicore.PerSocket
)

// NewCluster builds a multi-core host whose frequency domains are managed
// by cluster-level PAS coordination.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return multicore.New(cfg) }

// PackVMs places VMs onto the fewest machines that satisfy both the memory
// capacity and the CPU-credit capacity (first-fit decreasing by memory).
func PackVMs(vms []DataCenterVM, spec MachineSpec) (*consolidation.Placement, error) {
	return consolidation.PackFFD(vms, spec)
}
