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
// frequency and cap recomputation every 10 ms is a scheduler boundary.
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
