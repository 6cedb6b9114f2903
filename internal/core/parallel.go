package core

import (
	"sync"
	"sync/atomic"
)

// runIndexed distributes n work items over `threads` workers and calls
// fn(tid, item) for each item. The policy mirrors Section III-D:
//
//   - ScheduleStatic splits the items into T contiguous blocks, the "naive
//     parallelization" used for error computation and cache maintenance where
//     the per-item cost is uniform.
//   - ScheduleDynamic hands out chunks of dynamicChunk items from an atomic
//     counter, the OpenMP schedule(dynamic) analog used for row updates where
//     |Ω(n)[in]| skew would otherwise leave threads idle.
//
// It returns the number of items processed by each worker so callers can
// report workload balance (Figure 10 / Section IV-D).
func runIndexed(threads int, sched Scheduling, n int, fn func(tid, item int)) []int64 {
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
		if threads == 0 {
			return nil
		}
	}
	counts := make([]int64, threads)
	var wg sync.WaitGroup
	wg.Add(threads)

	if sched == ScheduleStatic {
		for t := 0; t < threads; t++ {
			lo := t * n / threads
			hi := (t + 1) * n / threads
			go func(tid, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fn(tid, i)
				}
				counts[tid] = int64(hi - lo)
			}(t, lo, hi)
		}
		wg.Wait()
		return counts
	}

	var cursor int64
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			var done int64
			for {
				start := int(atomic.AddInt64(&cursor, dynamicChunk)) - dynamicChunk
				if start >= n {
					break
				}
				end := min(start+dynamicChunk, n)
				for i := start; i < end; i++ {
					fn(tid, i)
				}
				done += int64(end - start)
			}
			counts[tid] = done
		}(t)
	}
	wg.Wait()
	return counts
}

// dynamicChunk is the number of consecutive rows a worker grabs at a time
// under ScheduleDynamic.
const dynamicChunk = 8

// sumBlock is the number of consecutive items parallelSum adds up before it
// starts a new partial sum.
const sumBlock = 1024

// parallelSum evaluates fn for every item in [0,n) and returns their sum; it
// runs the parallel reconstruction-error pass (Section III-D). The items of
// each fixed block of sumBlock are added in order, then the blocks' sums in
// block order. The blocks do not depend on threads, so neither does any bit
// of the sum.
func parallelSum(threads, n int, fn func(tid, item int) float64) float64 {
	partial := make([]float64, (n+sumBlock-1)/sumBlock)
	runIndexed(threads, ScheduleStatic, len(partial), func(tid, blk int) {
		var s float64
		for i := blk * sumBlock; i < min((blk+1)*sumBlock, n); i++ {
			s += fn(tid, i)
		}
		partial[blk] = s
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}
