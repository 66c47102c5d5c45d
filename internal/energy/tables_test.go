package energy_test

import (
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/energy"
	"pasched/internal/fleet"
	"pasched/internal/sim"
)

// TestUtilTablesMatchPowerMicrowatts checks, for every profile a host or
// fleet machine runs on, that the util-0 and util-1 tables hold exactly
// what the power quantization computes, and that Add stays exact and
// linear through them: one Add of n quanta equals n Adds of one quantum
// and the integer product microwatts × microseconds, at util 0, 1 and a
// fractional util that bypasses the tables.
func TestUtilTablesMatchPowerMicrowatts(t *testing.T) {
	profiles := append([]*cpufreq.Profile{cpufreq.Optiplex755(), cpufreq.Elite8300()},
		cpufreq.Table1Profiles()...)
	for _, c := range fleet.DefaultEstate(6) {
		profiles = append(profiles, c.Spec.Profile)
	}
	const q, n = sim.Millisecond, 37
	for _, prof := range profiles {
		m, err := energy.NewMeter(prof)
		if err != nil {
			t.Fatal(err)
		}
		idle, busy := m.UtilTables()
		if len(idle) != prof.Levels() || len(busy) != prof.Levels() {
			t.Fatalf("%s: tables of %d/%d entries for %d P-states", prof.Name, len(idle), len(busy), prof.Levels())
		}
		for i, s := range prof.States {
			if idle[i] != m.PowerMicrowatts(i, 0) || busy[i] != m.PowerMicrowatts(i, 1) {
				t.Fatalf("%s at %d MHz: tables %d/%d µW, quantization %d/%d µW", prof.Name, s.Freq,
					idle[i], busy[i], m.PowerMicrowatts(i, 0), m.PowerMicrowatts(i, 1))
			}
			for _, u := range []float64{0, 0.37, 1} {
				stepped, err := energy.NewMeter(prof)
				if err != nil {
					t.Fatal(err)
				}
				bulk, err := energy.NewMeter(prof)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if err := stepped.Add(q, s.Freq, u); err != nil {
						t.Fatal(err)
					}
				}
				if err := bulk.Add(n*q, s.Freq, u); err != nil {
					t.Fatal(err)
				}
				want := energy.EnergyFromPicojoules(m.PowerMicrowatts(i, u) * int64(n*q))
				if stepped.Total() != want || bulk.Total() != want {
					t.Fatalf("%s at %d MHz, util %v: %d×Add(q) = %v, Add(%d·q) = %v, want %v",
						prof.Name, s.Freq, u, n, stepped.Total(), n, bulk.Total(), want)
				}
			}
		}
	}
}
