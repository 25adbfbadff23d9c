package obs

import (
	"runtime/metrics"
	"strconv"
)

// runtimeMetric is a value the Go runtime keeps, named by its
// runtime/metrics key. It is read each time the registry is written, so a
// scrape sees the runtime's current figure and nothing polls in between.
type runtimeMetric string

// value reads the metric; a key this runtime does not know reads as 0.
func (m runtimeMetric) value() string {
	s := []metrics.Sample{{Name: string(m)}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return strconv.FormatUint(s[0].Value.Uint64(), 10)
	case metrics.KindFloat64:
		return formatFloat(s[0].Value.Float64())
	}
	return "0"
}

// The runtime's view of the process, in Default: the heap the last GC cycle
// marked live (0 before the first cycle) beside the heap size at which the next cycle starts (a
// process's resident memory follows the goal, about twice the live heap
// under the default GOGC), the goroutines, and the GC cycles so far.
func init() {
	for _, m := range []struct {
		name, help, key string
		kind            Kind
	}{
		{"go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "/gc/heap/live:bytes", KindGauge},
		{"go_heap_goal_bytes", "Heap size at which the next GC cycle starts.", "/gc/heap/goal:bytes", KindGauge},
		{"go_goroutines", "Goroutines that currently exist.", "/sched/goroutines:goroutines", KindGauge},
		{"go_gc_cycles_total", "GC cycles completed since the process started.", "/gc/cycles/total:gc-cycles", KindCounter},
	} {
		Default.getFamily(m.name, m.help, m.kind, nil).getChild(nil, func() any { return runtimeMetric(m.key) })
	}
}
