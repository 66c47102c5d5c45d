package sched

import (
	"testing"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// benchVMs builds n busy VMs with equal credit shares.
func benchVMs(b *testing.B, n int) []*vm.VM {
	b.Helper()
	out := make([]*vm.VM, n)
	for i := range out {
		v, err := vm.New(vm.ID(i), vm.Config{Credit: 100 / float64(n)})
		if err != nil {
			b.Fatal(err)
		}
		v.SetWorkload(&workload.Hog{})
		out[i] = v
	}
	return out
}

func benchScheduler(b *testing.B, s Scheduler, n int) {
	b.Helper()
	for _, v := range benchVMs(b, n) {
		if err := s.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		v := s.Pick(now)
		now += sim.Millisecond
		if v != nil {
			s.Charge(v, sim.Millisecond, now)
		}
		s.Tick(now)
	}
}

func BenchmarkCreditPickCharge8VMs(b *testing.B) {
	benchScheduler(b, NewCredit(), 8)
}

func BenchmarkCreditPickCharge64VMs(b *testing.B) {
	benchScheduler(b, NewCredit(), 64)
}

func BenchmarkSEDFPickCharge8VMs(b *testing.B) {
	benchScheduler(b, NewSEDF(SEDFConfig{DefaultExtratime: true}), 8)
}

func BenchmarkCredit2PickCharge8VMs(b *testing.B) {
	benchScheduler(b, NewCredit2(), 8)
}
