package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default parallelism for multi-machine
// drivers: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunParallel executes the tasks concurrently on up to workers
// goroutines and returns the first error in task order (so the reported
// error does not depend on goroutine interleaving). workers <= 1, or a
// single task, runs sequentially with no goroutines.
//
// It is the synchronization-barrier primitive of both multi-host
// drivers, multicore.Cluster and the fleet (one task per shard, running
// the shard's staged commands): independent machines (each owning its
// engine, scheduler, meters) step concurrently between barriers, and
// cross-machine work — migration completion, consolidation planning,
// coordinator DVFS decisions — runs sequentially at the barrier. Tasks
// must not share mutable state.
func RunParallel(workers int, tasks []func() error) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, task := range tasks {
			if err := task(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				errs[i] = tasks[i]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
