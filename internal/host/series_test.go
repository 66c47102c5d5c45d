package host_test

import (
	"reflect"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// TestRecorderSeriesHandles pins what resolving each series once must
// keep: series are created in the order per-sample lookups created them —
// the host's at the first sample, each VM's at its first sample after it
// arrived, a vmload series only for a positive credit — and a VM removed
// and re-added under the same name appends to the one series it had.
func TestRecorderSeriesHandles(t *testing.T) {
	h, err := host.NewMachine("credit", 10, host.Config{Profile: cpufreq.Optiplex755()})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id vm.ID, name string, credit float64) {
		t.Helper()
		v, err := vm.New(id, vm.Config{Name: name, Credit: credit})
		if err != nil {
			t.Fatal(err)
		}
		v.SetWorkload(&workload.Hog{})
		if err := h.AddVM(v); err != nil {
			t.Fatal(err)
		}
	}
	run := func(until sim.Time) {
		t.Helper()
		if err := h.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	add(1, "A", 20)
	run(1500 * sim.Millisecond)
	add(2, "B", 0) // uncapped: no vmload series
	add(3, "C", 30)
	run(2500 * sim.Millisecond)
	if err := h.RemoveVM(1); err != nil {
		t.Fatal(err)
	}
	run(3500 * sim.Millisecond)
	add(4, "A", 10)
	run(5 * sim.Second)

	want := []string{
		"freq_mhz", "global_load_pct", "absolute_load_pct",
		"Dom0_global_pct", "Dom0_absolute_pct", "Dom0_vmload_pct", "Dom0_cap_pct",
		"A_global_pct", "A_absolute_pct", "A_vmload_pct", "A_cap_pct",
		"B_global_pct", "B_absolute_pct", "B_cap_pct",
		"C_global_pct", "C_absolute_pct", "C_vmload_pct", "C_cap_pct",
	}
	if got := h.Recorder().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("series names:\n got %v\nwant %v", got, want)
	}
	// A was sampled at 1 and 2 s, then as the re-added VM at 4 and 5 s.
	a := h.Recorder().Series("A_global_pct")
	if want := []float64{1, 2, 4, 5}; !reflect.DeepEqual(a.T, want) {
		t.Fatalf("A_global_pct sampled at %v, want %v", a.T, want)
	}
	for _, name := range []string{"freq_mhz", "Dom0_cap_pct"} {
		if n := h.Recorder().Series(name).Len(); n != 5 {
			t.Fatalf("%s has %d points, want 5", name, n)
		}
	}
}
