package sched

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

func TestRemoveAcrossSchedulers(t *testing.T) {
	builders := []struct {
		name  string
		build func() Scheduler
	}{
		{"credit", func() Scheduler { return NewCredit() }},
		{"sedf", func() Scheduler { return NewSEDF(SEDFConfig{DefaultExtratime: true}) }},
		{"credit2", func() Scheduler { return NewCredit2() }},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			s := b.build()
			v1 := busyVM(t, 1, vm.Config{Name: "a", Credit: 30})
			v2 := busyVM(t, 2, vm.Config{Name: "b", Credit: 30})
			if err := s.Add(v1); err != nil {
				t.Fatal(err)
			}
			if err := s.Add(v2); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove(1); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if err := s.Remove(1); !errors.Is(err, ErrUnknownVM) {
				t.Errorf("second Remove = %v, want ErrUnknownVM", err)
			}
			vms := s.VMs()
			if len(vms) != 1 || vms[0].ID() != 2 {
				t.Errorf("VMs after remove = %v", vms)
			}
			// The removed VM is never picked again; the survivor runs.
			busy := runQuanta(s, sim.Second)
			if busy[1] != 0 {
				t.Errorf("removed VM ran for %v", busy[1])
			}
			if busy[2] == 0 {
				t.Error("surviving VM never ran")
			}
			// Re-adding the removed id works (e.g. migration back).
			if err := s.Add(busyVM(t, 1, vm.Config{Name: "a2", Credit: 30})); err != nil {
				t.Errorf("re-Add after Remove: %v", err)
			}
		})
	}
}

func TestPausedVMGetsNoCPU(t *testing.T) {
	s := NewCredit()
	v := busyVM(t, 1, vm.Config{Name: "V", Credit: 50})
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	v.Pause()
	if !v.Paused() {
		t.Fatal("Paused() false after Pause")
	}
	busy := runQuanta(s, sim.Second)
	if busy[1] != 0 {
		t.Errorf("paused VM ran for %v", busy[1])
	}
	v.Resume()
	busy = runQuanta(s, sim.Second)
	if busy[1] == 0 {
		t.Error("resumed VM never ran")
	}
}

func TestQuickCreditSharesMatchCaps(t *testing.T) {
	// Property: for arbitrary cap vectors summing to <= 100, every
	// always-busy VM's long-run share equals its cap within quantization.
	f := func(raw [3]uint8) bool {
		caps := make([]float64, 3)
		sum := 0.0
		for i, r := range raw {
			caps[i] = float64(r%30) + 3 // 3..32 each, sum <= 96
			sum += caps[i]
		}
		if sum > 100 {
			return true
		}
		s := NewCredit()
		vms := make([]*vm.VM, 3)
		for i, c := range caps {
			v, err := vm.New(vm.ID(i+1), vm.Config{Credit: c})
			if err != nil {
				return false
			}
			v.SetWorkload(&workload.Hog{})
			vms[i] = v
			if err := s.Add(v); err != nil {
				return false
			}
		}
		const total = 3 * sim.Second
		busy := runQuanta(s, total)
		for i, c := range caps {
			got := share(busy, vm.ID(i+1), total) * 100
			if math.Abs(got-c) > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickSEDFWorkConservation(t *testing.T) {
	// Property: with at least one always-busy extratime VM, the SEDF
	// processor never idles, whatever the slice configuration.
	f := func(raw [2]uint8) bool {
		s := NewSEDF(SEDFConfig{DefaultExtratime: true})
		for i, r := range raw {
			v, err := vm.New(vm.ID(i+1), vm.Config{Credit: float64(r%40) + 5})
			if err != nil {
				return false
			}
			v.SetWorkload(&workload.Hog{})
			if err := s.Add(v); err != nil {
				return false
			}
		}
		const total = sim.Second
		busy := runQuanta(s, total)
		var sum sim.Time
		for _, b := range busy {
			sum += b
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickCapNeverExceededUnderRandomLoad(t *testing.T) {
	// Property: a capped VM's share never exceeds its cap (plus one
	// quantum of quantization) even when its workload flaps on and off.
	f := func(pattern []bool, capRaw uint8) bool {
		cap := float64(capRaw%60) + 10
		s := NewCredit()
		v, err := vm.New(1, vm.Config{Credit: cap})
		if err != nil {
			return false
		}
		hog := &workload.Hog{}
		v.SetWorkload(hog)
		if err := s.Add(v); err != nil {
			return false
		}
		busy := sim.Time(0)
		now := sim.Time(0)
		const steps = 3000
		for i := 0; i < steps; i++ {
			if len(pattern) > 0 && !pattern[i%len(pattern)] {
				v.Pause()
			} else {
				v.Resume()
			}
			picked := s.Pick(now)
			now += sim.Millisecond
			if picked != nil {
				s.Charge(picked, sim.Millisecond, now)
				busy += sim.Millisecond
			}
			s.Tick(now)
		}
		shareGot := float64(busy) / float64(now) * 100
		return shareGot <= cap+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
