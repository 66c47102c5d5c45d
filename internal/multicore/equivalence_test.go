package multicore

import (
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// buildContendedCluster is the cluster-scale contended scenario of the
// host equivalence suite: every core hosts 2-4 runnable VMs (hard-capped
// hogs plus a web VM), under per-socket DVFS so coordination and
// compensation interleave with the batching.
func buildContendedCluster(t *testing.T, reference bool) *Cluster {
	t.Helper()
	prof := cpufreq.Optiplex755()
	c, err := New(Config{
		Profile:   prof,
		Cores:     3,
		Domain:    PerSocket,
		Reference: reference,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		t.Fatal(err)
	}
	id := vm.ID(1)
	addHog := func(core int, credit float64) {
		t.Helper()
		v, err := vm.New(id, vm.Config{Name: "hog", Credit: credit})
		if err != nil {
			t.Fatal(err)
		}
		id++
		v.SetWorkload(&workload.Hog{})
		if err := c.AddVM(core, v); err != nil {
			t.Fatal(err)
		}
	}
	addWeb := func(core int, credit, pct float64, start, end sim.Time, seed uint64) {
		t.Helper()
		w, err := workload.NewWebApp(workload.WebAppConfig{
			Phases: workload.ThreePhase(start, end,
				workload.ExactRate(maxTp, pct, workload.DefaultRequestCost)),
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := vm.New(id, vm.Config{Name: "web", Credit: credit})
		if err != nil {
			t.Fatal(err)
		}
		id++
		v.SetWorkload(w)
		if err := c.AddVM(core, v); err != nil {
			t.Fatal(err)
		}
	}
	// Core 0: 3 hogs + a web VM (4 runnable at peak).
	addHog(0, 20)
	addHog(0, 25)
	addHog(0, 15)
	addWeb(0, 10, 8, 5*sim.Second, 20*sim.Second, 1)
	// Core 1: 2 hogs (steady contention).
	addHog(1, 30)
	addHog(1, 40)
	// Core 2: a hog + 2 web VMs (churning runnable set).
	addHog(2, 25)
	addWeb(2, 20, 15, 2*sim.Second, 18*sim.Second, 2)
	addWeb(2, 15, 10, 8*sim.Second, 25*sim.Second, 3)
	return c
}

// TestClusterBatchedEquivalence extends the host-level trace equivalence
// checks to a multicore.Cluster: the batched cluster and the reference
// cluster must produce bit-identical traces on every core — no
// tolerances, since busy time, work and energy are exact integer
// accounting. The credit cores batch through Credit's rotation patterns
// under compensated caps.
func TestClusterBatchedEquivalence(t *testing.T) {
	t.Run("credit", func(t *testing.T) {
		const horizon = 30 * sim.Second
		batched := buildContendedCluster(t, false)
		reference := buildContendedCluster(t, true)
		if err := batched.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if err := reference.Run(horizon); err != nil {
			t.Fatal(err)
		}
		assertClusterEquivalence(t, batched, reference)
	})
}

// assertClusterEquivalence compares the batched and reference clusters
// core by core.
func assertClusterEquivalence(t *testing.T, batched, reference *Cluster) {
	t.Helper()
	var batchedQuanta int64
	for i := 0; i < batched.Cores(); i++ {
		h, err := batched.CoreHost(i)
		if err != nil {
			t.Fatal(err)
		}
		batchedQuanta += h.Engine().BatchedQuanta()
		rh, err := reference.CoreHost(i)
		if err != nil {
			t.Fatal(err)
		}
		if n := rh.Engine().BatchedQuanta(); n != 0 {
			t.Fatalf("reference core %d batched %d quanta", i, n)
		}
	}
	if batchedQuanta == 0 {
		t.Fatal("batching never engaged; the comparison is vacuous")
	}
	t.Logf("cluster batched %d quanta across %d cores", batchedQuanta, batched.Cores())

	if got, want := batched.TotalEnergy(), reference.TotalEnergy(); got != want {
		t.Errorf("TotalEnergy: batched %+v reference %+v", got, want)
	}
	for i := 0; i < batched.Cores(); i++ {
		bh, _ := batched.CoreHost(i)
		rh, _ := reference.CoreHost(i)
		if got, want := bh.CumulativeBusy(), rh.CumulativeBusy(); got != want {
			t.Errorf("core %d CumulativeBusy: batched %v reference %v", i, got, want)
		}
		if got, want := bh.CumulativeWork(), rh.CumulativeWork(); got != want {
			t.Errorf("core %d CumulativeWork: batched %v reference %v", i, got, want)
		}
		bf, _ := batched.CoreFreq(i)
		rf, _ := reference.CoreFreq(i)
		if bf != rf {
			t.Errorf("core %d frequency: batched %v reference %v", i, bf, rf)
		}
		for _, v := range rh.VMs() {
			if got, want := bh.VMBusy(v.ID()), rh.VMBusy(v.ID()); got != want {
				t.Errorf("core %d VMBusy(%d): batched %v reference %v", i, v.ID(), got, want)
			}
		}
		refSeries := rh.Recorder().Names()
		gotSeries := bh.Recorder().Names()
		if len(refSeries) != len(gotSeries) {
			t.Fatalf("core %d series sets differ: batched %v reference %v", i, gotSeries, refSeries)
		}
		for _, name := range refSeries {
			want := rh.Recorder().Series(name)
			got := bh.Recorder().Series(name)
			if want.Len() != got.Len() {
				t.Errorf("core %d series %s: %d vs %d points", i, name, got.Len(), want.Len())
				continue
			}
			for j := range want.T {
				if got.T[j] != want.T[j] {
					t.Errorf("core %d series %s[%d]: time %v vs %v", i, name, j, got.T[j], want.T[j])
					break
				}
				if got.V[j] != want.V[j] {
					t.Errorf("core %d series %s[%d]@%v: batched %v reference %v",
						i, name, j, got.T[j], got.V[j], want.V[j])
					break
				}
			}
		}
	}
}
