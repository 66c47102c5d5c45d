package consolidation

import (
	"testing"
	"testing/quick"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

func hostSpec() HostSpec {
	return HostSpec{MemoryMB: 4096, Profile: cpufreq.Optiplex755()}
}

func TestVMSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    VMSpec
		wantErr bool
	}{
		{"valid", VMSpec{Name: "a", CreditPct: 20, MemoryMB: 512, Activity: 0.5}, false},
		{"no name", VMSpec{CreditPct: 20, MemoryMB: 512}, true},
		{"zero credit", VMSpec{Name: "a", MemoryMB: 512}, true},
		{"credit above 100", VMSpec{Name: "a", CreditPct: 150, MemoryMB: 512}, true},
		{"zero memory", VMSpec{Name: "a", CreditPct: 20}, true},
		{"activity above 1", VMSpec{Name: "a", CreditPct: 20, MemoryMB: 512, Activity: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPackFFDRespectsBounds(t *testing.T) {
	vms := []VMSpec{
		{Name: "a", CreditPct: 40, MemoryMB: 2048, Activity: 0.3},
		{Name: "b", CreditPct: 40, MemoryMB: 2048, Activity: 0.3},
		{Name: "c", CreditPct: 40, MemoryMB: 2048, Activity: 0.3},
		{Name: "d", CreditPct: 10, MemoryMB: 1024, Activity: 0.3},
	}
	p, err := PackFFD(vms, hostSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Memory allows two 2048MB VMs per 4096MB machine, but credit
	// (40+40=80 <= 90) also holds, so a+b share, c+d share.
	if p.Hosts != 2 {
		t.Errorf("Hosts = %d, want 2", p.Hosts)
	}
	// Verify bounds per machine.
	mem := make(map[int]int)
	cred := make(map[int]float64)
	for _, v := range vms {
		hi := p.Assignments[v.Name]
		mem[hi] += v.MemoryMB
		cred[hi] += v.CreditPct
	}
	for hi := 0; hi < p.Hosts; hi++ {
		if mem[hi] > 4096 {
			t.Errorf("host %d memory %d exceeds capacity", hi, mem[hi])
		}
		if cred[hi] > 90 {
			t.Errorf("host %d credit %v exceeds capacity", hi, cred[hi])
		}
	}
}

func TestPackFFDMemoryBound(t *testing.T) {
	// The Section 2.3 argument: plenty of CPU left, but memory forbids
	// further consolidation.
	vms := []VMSpec{
		{Name: "a", CreditPct: 10, MemoryMB: 3000, Activity: 0.2},
		{Name: "b", CreditPct: 10, MemoryMB: 3000, Activity: 0.2},
		{Name: "c", CreditPct: 10, MemoryMB: 3000, Activity: 0.2},
	}
	p, err := PackFFD(vms, hostSpec())
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts != 3 {
		t.Errorf("Hosts = %d, want 3 (memory bound)", p.Hosts)
	}
}

func TestPackFFDErrors(t *testing.T) {
	spec := hostSpec()
	if _, err := PackFFD([]VMSpec{{Name: "x", CreditPct: 20, MemoryMB: 9999}}, spec); err == nil {
		t.Error("oversized VM accepted")
	}
	if _, err := PackFFD([]VMSpec{{Name: "x", CreditPct: 95, MemoryMB: 100}}, spec); err == nil {
		t.Error("over-credit VM accepted")
	}
	if _, err := PackFFD([]VMSpec{
		{Name: "x", CreditPct: 20, MemoryMB: 100},
		{Name: "x", CreditPct: 20, MemoryMB: 100},
	}, spec); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := PackFFD(nil, HostSpec{}); err == nil {
		t.Error("invalid host spec accepted")
	}
	if _, err := PackFFD(nil, HostSpec{MemoryMB: 100, Profile: cpufreq.Optiplex755(), Dom0ReservePct: 100}); err == nil {
		t.Error("full dom0 reserve accepted")
	}
}

func TestQuickPackFFDNeverOverflows(t *testing.T) {
	// Property: for arbitrary VM mixes, no machine exceeds its memory or
	// credit capacity and every VM is assigned exactly once.
	f := func(raw []uint16) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		var vms []VMSpec
		for i, r := range raw {
			vms = append(vms, VMSpec{
				Name:      string(rune('a'+i%26)) + string(rune('0'+i/26)),
				CreditPct: float64(r%90) + 1,
				MemoryMB:  int(r%4000) + 64,
				Activity:  0.3,
			})
		}
		p, err := PackFFD(vms, hostSpec())
		if err != nil {
			return true // rejected input is fine; only placed input must be sound
		}
		mem := make(map[int]int)
		cred := make(map[int]float64)
		for _, v := range vms {
			hi, ok := p.Assignments[v.Name]
			if !ok || hi < 0 || hi >= p.Hosts {
				return false
			}
			mem[hi] += v.MemoryMB
			cred[hi] += v.CreditPct
		}
		for hi := 0; hi < p.Hosts; hi++ {
			if mem[hi] > 4096 || cred[hi] > 90+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulateComplementarity(t *testing.T) {
	// The paper's Section 2.3 claim, quantified: after memory-bound
	// consolidation the machines are CPU-underloaded, and PAS saves
	// energy on them compared to running at the maximum frequency, while
	// still enforcing the credits.
	vms := []VMSpec{
		{Name: "a", CreditPct: 20, MemoryMB: 3000, Activity: 1.0},
		{Name: "b", CreditPct: 20, MemoryMB: 3000, Activity: 0.2},
		{Name: "c", CreditPct: 15, MemoryMB: 2500, Activity: 0.5},
	}
	spec := hostSpec()
	p, err := PackFFD(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts != 3 {
		t.Fatalf("Hosts = %d, want 3 (memory bound)", p.Hosts)
	}
	const dur = 30 * sim.Second
	base, err := Simulate(p, vms, spec, dur, false)
	if err != nil {
		t.Fatal(err)
	}
	pas, err := Simulate(p, vms, spec, dur, true)
	if err != nil {
		t.Fatal(err)
	}
	if pas.TotalJoules >= base.TotalJoules {
		t.Errorf("PAS energy %.1fJ not below max-frequency baseline %.1fJ",
			pas.TotalJoules, base.TotalJoules)
	}
	if len(pas.PerHost) != 3 || pas.HostsUsed != 3 {
		t.Errorf("per-host reports = %d", len(pas.PerHost))
	}
	for i, hr := range pas.PerHost {
		if hr.MeanFreqMHz >= 2667 {
			t.Errorf("host %d mean frequency %v not reduced", i, hr.MeanFreqMHz)
		}
		if hr.Joules <= 0 {
			t.Errorf("host %d no energy accounted", i)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	spec := hostSpec()
	vms := []VMSpec{{Name: "a", CreditPct: 20, MemoryMB: 512, Activity: 0.5}}
	p, err := PackFFD(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(nil, vms, spec, sim.Second, true); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := Simulate(p, vms, spec, 0, true); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Simulate(p, []VMSpec{{Name: "ghost", CreditPct: 1, MemoryMB: 1}}, spec, sim.Second, true); err == nil {
		t.Error("unplaced VM accepted")
	}
	bad := &Placement{Assignments: map[string]int{"a": 7}, Hosts: 1}
	if _, err := Simulate(bad, vms, spec, sim.Second, true); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}
