package main

import (
	"container/heap"
	"math"
	"syscall"
	"unsafe"
)

// Host speed calibration. On a shared 2-vCPU VM the speed of a core
// drifts by up to 2x over minutes (SMT neighbours, frequency), and CPU
// time drifts with it. Each run therefore times two fixed kernels before
// and after the workload and scales its CPU times to a reference host on
// which the kernels take refTableS and refHeapS of CPU — about the
// typical speed of the 2-vCPU Xeon VM the benchmark was defined on. The
// kernels are a branchy table-update loop and a binary heap of small
// structs driven through heap.Interface; neither touches the
// repository's code, so an optimisation of the program cannot move
// them. Over 40 interleaved runs per workload on that VM, this cut the
// spread of 8-run medians of CPU time from 9-13% to 3-5%; the geometric
// mean of the two kernels tracked the workloads better than either alone
// or than a pointer-chasing or map-heavy kernel.
const (
	refTableS = 0.020
	refHeapS  = 0.040
)

// hostSpeed times both kernels reps times and returns the median
// CPU seconds of each.
func hostSpeed(reps int) (table, hp float64) {
	tv, hv := make([]float64, reps), make([]float64, reps)
	for i := range reps {
		tv[i] = cpuTime(tableKernel)
		hv[i] = cpuTime(heapKernel)
	}
	return median(tv), median(hv)
}

// speedFactor converts measured CPU seconds into reference seconds.
func speedFactor(table, hp float64) float64 {
	if table <= 0 || hp <= 0 {
		return 1
	}
	return math.Sqrt(refTableS / table * refHeapS / hp)
}

func cpuTime(f func()) float64 {
	t0 := cpuSeconds()
	f()
	return cpuSeconds() - t0
}

// cpuSeconds is the CPU time of the whole process, to the nanosecond.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

var (
	calTable = make([]uint64, 1<<15) // 256 KiB: resident in L2
	calHeap  = make(eventHeap, 0, 4096)
	calSink  uint64
)

func tableKernel() {
	x := uint64(88172645463325252)
	var acc uint64
	for range 2_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(calTable)-1)
		calTable[j] += x
		if calTable[j]&1 == 0 {
			acc += calTable[j] >> 40
		} else {
			acc--
		}
	}
	calSink += acc
}

// eventHeap orders (at, seq) pairs like a simulator's event queue.
type eventHeap []struct{ at, seq int64 }

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push and Pop satisfy heap.Interface; the kernel grows and shrinks the
// slice itself so that it never allocates.
func (h *eventHeap) Push(any) { panic("unused") }
func (h *eventHeap) Pop() any { panic("unused") }

func heapKernel() {
	h := calHeap[:0]
	x := uint64(3)
	for i := range 150_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, struct{ at, seq int64 }{int64(x % 100000), int64(i)})
		heap.Fix(&h, len(h)-1)
		if len(h) > 4000 {
			h.Swap(0, len(h)-1)
			h = h[:len(h)-1]
			heap.Fix(&h, 0)
		}
	}
	calSink += uint64(h[0].at)
}
