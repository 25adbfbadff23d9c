package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("temp", "temperature")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}

// TestGetOrCreate pins the re-registration semantics every component
// relies on: registering the same family twice returns the same family,
// and With on the same label values returns the same child.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("reqs_total", "requests", "route")
	b := r.CounterVec("reqs_total", "requests", "route")
	c1 := a.With("/x")
	c2 := b.With("/x")
	if c1 != c2 {
		t.Fatal("same family+labels resolved to different children")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("children not shared")
	}
	if a.With("/y") == c1 {
		t.Fatal("different label values share a child")
	}
	if r.Counter("plain_total", "p") != r.Counter("plain_total", "p") {
		t.Fatal("unlabeled counter not shared")
	}
}

// TestNilRegistryIsUninstrumented pins what callers with an optional
// registry rely on: every constructor works on a nil *Registry, a vec's
// children are stable and count, and nothing is shared between calls (there
// is no registry to share it through).
func TestNilRegistryIsUninstrumented(t *testing.T) {
	var r *Registry
	c := r.Counter("ops_total", "ops")
	c.Inc()
	if c.Value() != 1 || r.Counter("ops_total", "ops").Value() != 0 {
		t.Fatal("nil-registry counters must count, detached from one another")
	}
	r.Gauge("g", "g").Set(1)
	r.Histogram("h_seconds", "h").Observe(1)
	r.GaugeVec("gv", "gv", "k").With("a").Set(1)
	r.HistogramVec("hv_seconds", "hv", "k").With("a").Observe(1)
	vec := r.CounterVec("reqs_total", "requests", "route")
	vec.With("/x").Inc()
	if vec.With("/x").Value() != 1 || vec.With("/y").Value() != 0 {
		t.Fatal("a nil-registry vec must keep one child per label value")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestLabelSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("y_total", "y", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different labels did not panic")
		}
	}()
	r.CounterVec("y_total", "y", "a", "b")
}

func TestLabelValueCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("z_total", "z", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong value count did not panic")
		}
	}()
	v.With("only-one")
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees")
	r.HistogramVec("a_seconds", "ayes", "route")
	fams := r.sortedFamilies()
	if len(fams) != 2 {
		t.Fatalf("sortedFamilies() returned %d entries, want 2", len(fams))
	}
	if fams[0].name != "a_seconds" || fams[1].name != "b_total" {
		t.Errorf("families not sorted: %v, %v", fams[0].name, fams[1].name)
	}
	if fams[0].kind != KindHistogram || len(fams[0].labels) != 1 || fams[0].labels[0] != "route" {
		t.Errorf("family info wrong: %+v", fams[0])
	}
}

// TestRegistryConcurrent exercises concurrent family/child creation and
// export under the race detector.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := r.CounterVec("concurrent_total", "c", "worker")
			c := v.With(string(rune('a' + g%4)))
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			_ = r.sortedFamilies()
		}(g)
	}
	wg.Wait()
	var total uint64
	v := r.CounterVec("concurrent_total", "c", "worker")
	for _, w := range []string{"a", "b", "c", "d"} {
		total += v.With(w).Value()
	}
	if total != 16*1000 {
		t.Fatalf("total = %d, want %d", total, 16*1000)
	}
}

func TestChildKey(t *testing.T) {
	if childKey(nil) != "" || childKey([]string{"x"}) != "x" {
		t.Fatal("trivial childKey cases wrong")
	}
	if childKey([]string{"a", "b"}) == childKey([]string{"ab", ""}) {
		t.Fatal("childKey collides on adjacent values")
	}
}
