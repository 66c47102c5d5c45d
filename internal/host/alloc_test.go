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
// batched path, PAS with its recomputation every 10 ms, SEDF's slice
// phases and extratime rotations, and the
// fleet-shaped PAS machine whose WebApp VMs come and go from the
// runnable set — performs zero allocations per advance.
// The recorder's sampling interval is pushed beyond the measured window
// so its (amortized, pre-existing) series appends stay out of the
// measurement; the load meter runs at its fixed 100 ms.
func TestHostStepNoAllocsWithoutObs(t *testing.T) {
	build := func(scheduler string, credits []float64) *host.Host {
		h, err := host.NewMachine(scheduler, 0, host.Config{
			Profile:        cpufreq.Optiplex755(),
			SampleInterval: 3600 * sim.Second,
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
		name  string
		build func() *host.Host
	}{
		{"single-runnable", func() *host.Host { return build("credit", []float64{20}) }},
		{"contended-pattern", func() *host.Host { return build("credit", []float64{20, 30, 40}) }},
		{"pas-contended", func() *host.Host { return build("pas", []float64{20, 30, 40}) }},
		{"sedf-contended", func() *host.Host { return build("sedf", []float64{20, 30, 40}) }},
		{"pas-webapp", func() *host.Host { return pasWebAppHost(t, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.build()
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
