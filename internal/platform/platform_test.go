package platform

import (
	"strings"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
)

func TestPlatformsMatchTable2Columns(t *testing.T) {
	want := []string{"Hyper-V", "VMware", "Xen/credit", "Xen/PAS", "Xen/SEDF", "KVM", "Vbox"}
	got := Platforms()
	if len(got) != len(want) {
		t.Fatalf("got %d platforms, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Name != want[i] {
			t.Errorf("platform[%d] = %q, want %q", i, p.Name, want[i])
		}
		if p.Overhead <= 0 {
			t.Errorf("%s: non-positive overhead %v", p.Name, p.Overhead)
		}
	}
}

func TestFamilyClassification(t *testing.T) {
	fix := map[string]bool{"Hyper-V": true, "VMware": true, "Xen/credit": true, "Xen/PAS": true}
	for _, p := range Platforms() {
		if fix[p.Name] != (p.Family == FixCredit) {
			t.Errorf("%s: family = %v", p.Name, p.Family)
		}
	}
	if FixCredit.String() != "fix credit" || VariableCredit.String() != "variable credit" {
		t.Error("family strings wrong")
	}
	if Family(0).String() != "unknown" {
		t.Error("unknown family string wrong")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Xen/PAS")
	if err != nil || !p.PAS {
		t.Errorf("ByName(Xen/PAS) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

func TestGovernorModeString(t *testing.T) {
	if Performance.String() != "Performance" || OnDemand.String() != "OnDemand" {
		t.Error("mode strings wrong")
	}
	if GovernorMode(0).String() != "unknown" {
		t.Error("unknown mode string wrong")
	}
}

func TestStackSchedulers(t *testing.T) {
	prof := cpufreq.Elite8300()
	tests := []struct {
		name           string
		perf, ondemand string
	}{
		{"Hyper-V", "credit", "credit"},
		{"Xen/credit", "credit", "credit"},
		{"Xen/PAS", "credit", "pas"},
		{"Xen/SEDF", "sedf", "sedf"},
		{"KVM", "credit2", "credit2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := ByName(tt.name)
			if err != nil {
				t.Fatal(err)
			}
			for mode, want := range map[GovernorMode]string{Performance: tt.perf, OnDemand: tt.ondemand} {
				got, _, err := p.Stack(prof, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%v scheduler = %q, want %q", mode, got, want)
				}
			}
		})
	}
}

func TestStackGovernors(t *testing.T) {
	prof := cpufreq.Elite8300()

	// Performance mode: a plain performance governor on every platform,
	// Xen/PAS included.
	for _, p := range Platforms() {
		_, gov, err := p.Stack(prof, Performance)
		if err != nil {
			t.Fatal(err)
		}
		if gov == nil || gov.Name() != "performance" {
			t.Errorf("%s/Performance governor = %v", p.Name, gov)
		}
	}

	// OnDemand with a floor: a clamped governor.
	vw, err := ByName("VMware")
	if err != nil {
		t.Fatal(err)
	}
	_, gov, err := vw.Stack(prof, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if gov == nil || !strings.Contains(gov.Name(), "clamped") {
		t.Errorf("VMware/OnDemand governor = %v, want clamped", gov)
	}

	// PAS under OnDemand: no external governor.
	pas, err := ByName("Xen/PAS")
	if err != nil {
		t.Fatal(err)
	}
	if _, gov, err = pas.Stack(prof, OnDemand); err != nil {
		t.Fatal(err)
	}
	if gov != nil {
		t.Errorf("Xen/PAS/OnDemand has external governor %v", gov)
	}

	// Unknown mode errors.
	if _, _, err := pas.Stack(prof, GovernorMode(0)); err == nil {
		t.Error("Stack(unknown mode) succeeded")
	}
}

// TestStackBuildsFixCreditMachines: every stack builds through the
// machine builder, and the fix-credit columns get a scheduler with caps
// in both modes.
func TestStackBuildsFixCreditMachines(t *testing.T) {
	prof := cpufreq.Elite8300()
	for _, p := range Platforms() {
		for _, mode := range []GovernorMode{Performance, OnDemand} {
			scheduler, gov, err := p.Stack(prof, mode)
			if err != nil {
				t.Fatal(err)
			}
			h, err := host.NewMachine(scheduler, 10, host.Config{Profile: prof, Governor: gov})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, mode, err)
			}
			if _, caps := h.Scheduler().(sched.CapSetter); p.Family == FixCredit && !caps {
				t.Errorf("%s/%v: scheduler %s is not a CapSetter", p.Name, mode, h.Scheduler().Name())
			}
		}
	}
}
