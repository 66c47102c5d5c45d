package pasched_test

import (
	"testing"

	"pasched"
)

func TestClusterFacade(t *testing.T) {
	c, err := pasched.NewCluster(pasched.ClusterConfig{
		Profile: pasched.Optiplex755(),
		Cores:   2,
		Domain:  pasched.PerCoreDVFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores() != 2 {
		t.Errorf("Cores = %d, want 2", c.Cores())
	}
	if err := c.Run(pasched.Second); err != nil {
		t.Fatal(err)
	}
	f, err := c.CoreFreq(0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1600 {
		t.Errorf("idle core frequency = %v, want 1600", f)
	}
}

func TestDataCenterFacade(t *testing.T) {
	spec := pasched.MachineSpec{MemoryMB: 4096, Profile: pasched.Optiplex755()}
	vms := []pasched.DataCenterVM{
		{Name: "a", CreditPct: 20, MemoryMB: 1024, Activity: 0.5},
		{Name: "b", CreditPct: 20, MemoryMB: 1024, Activity: 0.5},
	}
	placement, err := pasched.PackVMs(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if placement.Hosts != 1 {
		t.Errorf("Hosts = %d, want 1", placement.Hosts)
	}
}
