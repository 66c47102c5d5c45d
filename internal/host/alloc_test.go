package host_test

import (
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// TestHostStepNoAllocsWithoutObs proves the flight-recorder hooks cost
// the disabled hot path nothing: with Config.Obs nil, steady-state host
// stepping — the contended multi-VM pattern path, the single-runnable
// batched path, and PAS with its recomputation every 10 ms — performs
// zero allocations per advance.
// The sampling intervals are pushed beyond the measured window so the
// recorder's (amortized, pre-existing) series appends stay out of the
// measurement.
func TestHostStepNoAllocsWithoutObs(t *testing.T) {
	build := func(scheduler string, credits []float64) *host.Host {
		h, err := host.NewMachine(scheduler, 0, host.Config{
			Profile:        cpufreq.Optiplex755(),
			SampleInterval: 3600 * sim.Second,
			MeterInterval:  3600 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, credit := range credits {
			v, err := vm.New(vm.ID(i+1), vm.Config{Credit: credit})
			if err != nil {
				t.Fatal(err)
			}
			v.SetWorkload(&workload.Hog{})
			if err := h.AddVM(v); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	for _, tc := range []struct {
		name      string
		scheduler string
		credits   []float64
	}{
		{"single-runnable", "credit", []float64{20}},
		{"contended-pattern", "credit", []float64{20, 30, 40}},
		{"pas-contended", "pas", []float64{20, 30, 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := build(tc.scheduler, tc.credits)
			// Warm up past transients (first refills, slice growth).
			if err := h.Run(5 * sim.Second); err != nil {
				t.Fatal(err)
			}
			var runErr error
			allocs := testing.AllocsPerRun(50, func() {
				if err := h.Run(100 * sim.Millisecond); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if allocs != 0 {
				t.Errorf("disabled-obs host step allocates %.2f allocs per 100 ms advance, want 0", allocs)
			}
		})
	}
}
