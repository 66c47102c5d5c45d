package main

import (
	"testing"

	"pasched"
)

// TestNightConsolidation pins the dynamic phase: consolidating every 5 s
// folds the four spread services onto one machine and powers the other
// three off, using less energy than the same night without
// consolidation, which ends with all four machines on.
func TestNightConsolidation(t *testing.T) {
	rep, err := nightRun(5 * pasched.Second)
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Intervals[len(rep.Intervals)-1]
	if last.ActiveMachines != 1 || rep.Summary.Migrated < 3 || rep.Summary.PowerOffs != 3 {
		t.Errorf("%d machines on, %d migrations, %d powered off; want 1, >= 3, 3",
			last.ActiveMachines, rep.Summary.Migrated, rep.Summary.PowerOffs)
	}
	if rep.Summary.OverallSLA < 0.95 {
		t.Errorf("SLA %v with consolidation, want >= 0.95", rep.Summary.OverallSLA)
	}
	spread, err := nightRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if on := spread.Intervals[len(spread.Intervals)-1].ActiveMachines; on != 4 {
		t.Errorf("without consolidation %d machines on at the end, want 4", on)
	}
	if rep.Summary.TotalJoules >= spread.Summary.TotalJoules {
		t.Errorf("consolidated night used %.0f J, spread night %.0f J; want less",
			rep.Summary.TotalJoules, spread.Summary.TotalJoules)
	}
}
