package host_test

import (
	"strings"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// benchHost builds a 3-VM host for throughput benchmarks.
func benchHost(b *testing.B, s sched.Scheduler) *host.Host {
	b.Helper()
	h, err := host.New(host.Config{Profile: cpufreq.Optiplex755(), Scheduler: s})
	if err != nil {
		b.Fatal(err)
	}
	for i, credit := range []float64{10, 20, 70} {
		v, err := vm.New(vm.ID(i), vm.Config{Credit: credit})
		if err != nil {
			b.Fatal(err)
		}
		v.SetWorkload(&workload.Hog{})
		if err := h.AddVM(v); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// pasWebAppHost builds a fleet-shaped machine the way the fleet builds
// one — host.NewMachine("pas", 10, ...) with recorder sampling off — and
// adds four WebApp VMs with unbounded backlogs, as the fleet's VMs have,
// at mixed request rates: two offer more than their credit buys and stay
// runnable, two fall idle between arrivals, so every step walks a mixed
// runnable set and every arrival bounds a stretch.
func pasWebAppHost(tb testing.TB, reference bool) *host.Host {
	tb.Helper()
	h, err := host.NewMachine("pas", 10, host.Config{
		Profile:        cpufreq.Optiplex755(),
		SampleInterval: -1,
		Reference:      reference,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i, spec := range []struct{ credit, rate float64 }{{20, 12}, {30, 4}, {10, 2}, {25, 16}} {
		wl, err := workload.NewWebApp(workload.WebAppConfig{
			Phases:     []workload.Phase{{Start: 0, End: 1e6 * sim.Second, Rate: spec.rate}},
			MaxBacklog: -1,
			Seed:       uint64(i + 1),
		})
		if err != nil {
			tb.Fatal(err)
		}
		v, err := vm.New(vm.ID(i+1), vm.Config{Credit: spec.credit})
		if err != nil {
			tb.Fatal(err)
		}
		v.SetWorkload(wl)
		if err := h.AddVM(v); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// BenchmarkHostStep measures the engine's event-horizon batching against
// the reference quantum-by-quantum loop: one op advances one simulated
// second (1000 quanta). The batched/reference ratio per scenario is the
// engine's speedup — "batched"/"reference" on a hard-capped
// single-runnable fix-credit host, the "credit2-contended" pair on a
// three-hog Credit2 host whose smallest-vruntime merge must fold through
// the pattern-certification path, and the "sedf-contended" pair on a
// three-hog extratime SEDF host whose frozen EDF order (slice phases,
// then extratime rotations) must fold between deadline boundaries; and
// the "pas-contended" pair on a 10/20/70 three-hog PAS host, whose
// frequency and cap recomputation every 10 ms is a scheduler boundary;
// and the "pas-webapp" pair on the fleet-shaped PAS machine of
// pasWebAppHost, where request arrivals and a changing runnable set cut
// the stretches between recomputations.
func BenchmarkHostStep(b *testing.B) {
	scenarios := []struct {
		name  string
		build func(b *testing.B, reference bool) *host.Host
	}{
		{"batched", func(b *testing.B, reference bool) *host.Host {
			h, err := host.New(host.Config{
				Profile:   cpufreq.Optiplex755(),
				Scheduler: sched.NewCredit(),
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			v, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
			if err != nil {
				b.Fatal(err)
			}
			v.SetWorkload(&workload.Hog{})
			if err := h.AddVM(v); err != nil {
				b.Fatal(err)
			}
			return h
		}},
		{"credit2-contended-batched", func(b *testing.B, reference bool) *host.Host {
			h, err := host.New(host.Config{
				Profile:   cpufreq.Optiplex755(),
				Scheduler: sched.NewCredit2(),
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i, credit := range []float64{20, 30, 40} {
				v, err := vm.New(vm.ID(i+1), vm.Config{Credit: credit})
				if err != nil {
					b.Fatal(err)
				}
				v.SetWorkload(&workload.Hog{})
				if err := h.AddVM(v); err != nil {
					b.Fatal(err)
				}
			}
			return h
		}},
		{"sedf-contended-batched", func(b *testing.B, reference bool) *host.Host {
			h, err := host.New(host.Config{
				Profile:   cpufreq.Optiplex755(),
				Scheduler: sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}),
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i, credit := range []float64{20, 30, 40} {
				v, err := vm.New(vm.ID(i+1), vm.Config{Credit: credit})
				if err != nil {
					b.Fatal(err)
				}
				v.SetWorkload(&workload.Hog{})
				if err := h.AddVM(v); err != nil {
					b.Fatal(err)
				}
			}
			return h
		}},
		{"pas-contended-batched", func(b *testing.B, reference bool) *host.Host {
			h, err := host.NewMachine("pas", 0, host.Config{
				Profile:   cpufreq.Optiplex755(),
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i, credit := range []float64{10, 20, 70} {
				v, err := vm.New(vm.ID(i), vm.Config{Credit: credit})
				if err != nil {
					b.Fatal(err)
				}
				v.SetWorkload(&workload.Hog{})
				if err := h.AddVM(v); err != nil {
					b.Fatal(err)
				}
			}
			return h
		}},
		{"pas-webapp-batched", func(b *testing.B, reference bool) *host.Host {
			return pasWebAppHost(b, reference)
		}},
	}
	for _, sc := range scenarios {
		for _, mode := range []struct {
			name      string
			reference bool
		}{{"", false}, {"reference", true}} {
			name := sc.name
			if mode.reference {
				// Keep the historical "batched"/"reference" pair names for
				// the single-runnable scenario; the contended scenarios use
				// a -batched/-reference suffix pair.
				if name == "batched" {
					name = "reference"
				} else {
					name = strings.TrimSuffix(name, "-batched") + "-reference"
				}
			}
			b.Run(name, func(b *testing.B) {
				h := sc.build(b, mode.reference)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := h.Run(sim.Second); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(h.Engine().BatchedQuanta())/float64(b.N), "batched_quanta/op")
			})
		}
	}
}

// BenchmarkHostStepCredit measures simulation throughput (quanta/op) with
// the Credit scheduler: one op advances one simulated second (1000 quanta).
func BenchmarkHostStepCredit(b *testing.B) {
	h := benchHost(b, sched.NewCredit())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Run(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}
