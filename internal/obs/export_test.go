package obs

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact text exposition format. The
// histogram values are chosen to land in known buckets: 3ns → bucket 3
// (le 3e-09), 1000ns → the bucket whose upper bound is 1023ns.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	v := r.CounterVec("http_requests_total", "Requests served.", "route", "status")
	v.With("GET /feed", "2xx").Add(7)
	v.With("GET /feed", "5xx").Inc()

	g := r.Gauge("inflight", "In-flight requests.")
	g.Set(2)

	h := r.Histogram("op_seconds", "Op latency.")
	h.Observe(3 * time.Nanosecond)
	h.Observe(1000 * time.Nanosecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}

	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{route="GET /feed",status="2xx"} 7
http_requests_total{route="GET /feed",status="5xx"} 1
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 2
# HELP op_seconds Op latency.
# TYPE op_seconds histogram
op_seconds_bucket{le="3e-09"} 1
op_seconds_bucket{le="1.023e-06"} 2
op_seconds_bucket{le="+Inf"} 2
op_seconds_sum 1.003e-06
op_seconds_count 2
`
	if got := sb.String(); got != want {
		t.Errorf("WritePrometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExportEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line1\nline2", "l").With(`a"b\c` + "\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# HELP esc_total line1\nline2`,
		`esc_total{l="a\"b\\c\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExportWellFormed drives a mixed registry and checks every line
// against the exposition grammar — the same check the end-to-end daemon
// test applies to a live /metrics scrape.
func TestExportWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(3)
	r.GaugeVec("b", "b", "shard").With("0").Set(1.25)
	hv := r.HistogramVec("c_seconds", "c", "route")
	for i := 0; i < 100; i++ {
		hv.With("GET /x").Observe(time.Duration(i) * time.Millisecond)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheusText(sb.String()); err != nil {
		t.Errorf("export not well-formed: %v\n%s", err, sb.String())
	}
}

func TestValidatePrometheusTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no value line\n",
		"name{unclosed=\"x} 1\n",
		"name 1 2 3\n",
		"name notanumber\n",
	} {
		if err := ValidatePrometheusText(bad); err == nil {
			t.Errorf("ValidatePrometheusText accepted %q", bad)
		}
	}
	if err := ValidatePrometheusText(`x_bucket{le="+Inf"} 3` + "\n"); err != nil {
		t.Errorf("ValidatePrometheusText rejected +Inf le: %v", err)
	}
}

// TestRuntimeMetricsAtScrape: Default carries the runtime's live heap, heap
// goal, goroutines and GC cycles, each read when the registry is written,
// so a collection between two scrapes shows in the second.
func TestRuntimeMetricsAtScrape(t *testing.T) {
	scrape := func() map[string]float64 {
		var sb strings.Builder
		if err := Default.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePrometheusText(sb.String()); err != nil {
			t.Fatalf("export not well-formed: %v", err)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(sb.String(), "\n") {
			name, value, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(name, "go_") {
				continue
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			got[name] = v
		}
		return got
	}
	runtime.GC() // the live heap is 0 until a cycle has marked it
	first := scrape()
	for _, name := range []string{"go_heap_live_bytes", "go_heap_goal_bytes", "go_goroutines"} {
		if first[name] <= 0 {
			t.Errorf("%s = %v, want a positive figure", name, first[name])
		}
	}
	if first["go_heap_goal_bytes"] < first["go_heap_live_bytes"] {
		t.Errorf("heap goal %v below the live heap %v", first["go_heap_goal_bytes"], first["go_heap_live_bytes"])
	}
	runtime.GC()
	if second := scrape(); second["go_gc_cycles_total"] <= first["go_gc_cycles_total"] {
		t.Errorf("go_gc_cycles_total %v after a collection, was %v", second["go_gc_cycles_total"], first["go_gc_cycles_total"])
	}
}
