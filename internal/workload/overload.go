package workload

import (
	"sort"
	"sync"
	"time"
)

// ClassLoad is one traffic class's worth of concurrent load in an
// overload scenario: a named set of workers repeatedly invoking Do. The
// overload driver runs every class simultaneously against one stack —
// the point is to measure how the protected classes behave while a
// greedy one saturates the edge, so the classes must contend, not run
// back to back.
type ClassLoad struct {
	// Name keys the result map ("user", "greedy-report", ...).
	Name string
	// Workers is the concurrency within this class (default 1).
	Workers int
	// Ops is each worker's operation budget (default 100).
	Ops int
	// Do issues one operation. A non-nil error counts as refused —
	// expected and desired for greedy classes hitting a rate limit.
	Do func(worker, op int) error
}

// ClassStats is one class's measured outcome: counts plus the latency
// distribution of its operations (successes and refusals both — a fast
// 429 is the edge working as designed, and it belongs in the greedy
// class's latency picture, while protected classes are asserted on
// error-free runs).
type ClassStats struct {
	Done    int
	Errors  int
	Elapsed time.Duration
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
}

// DriveOverload runs every class's workers concurrently until all
// budgets are spent and reports per-class outcomes. It is the package's one
// worker loop (Drive is a single class on it). Latency percentiles
// are computed over each class's full operation set, merged across its
// workers.
func DriveOverload(loads []ClassLoad) map[string]ClassStats {
	type workerOut struct {
		durs   []time.Duration
		errors int
	}
	results := make(map[string]ClassStats, len(loads))
	outs := make([][]workerOut, len(loads))

	var wg sync.WaitGroup
	start := time.Now()
	for li, load := range loads {
		workers := load.Workers
		if workers <= 0 {
			workers = 1
		}
		ops := load.Ops
		if ops <= 0 {
			ops = 100
		}
		outs[li] = make([]workerOut, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(li, w int, load ClassLoad, ops int) {
				defer wg.Done()
				out := &outs[li][w]
				out.durs = make([]time.Duration, 0, ops)
				for i := 0; i < ops; i++ {
					t0 := time.Now()
					err := load.Do(w, i)
					out.durs = append(out.durs, time.Since(t0))
					if err != nil {
						out.errors++
					}
				}
			}(li, w, load, ops)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	for li, load := range loads {
		var st ClassStats
		st.Elapsed = elapsed
		var durs []time.Duration
		for _, out := range outs[li] {
			st.Done += len(out.durs)
			st.Errors += out.errors
			durs = append(durs, out.durs...)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		st.P50 = percentileDur(durs, 50)
		st.P90 = percentileDur(durs, 90)
		st.P99 = percentileDur(durs, 99)
		results[load.Name] = st
	}
	return results
}

// percentileDur returns the p-th percentile of sorted durations
// (nearest-rank).
func percentileDur(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
