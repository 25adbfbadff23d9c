package main

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"p50 of 100", hundred, 50, 50},
		{"p99 of 100", hundred, 99, 99},
		{"p100 of 100", hundred, 100, 100},
		{"p99 of 10 is the maximum", hundred[:10], 99, 10},
		{"p50 of 10 is the 5th", hundred[:10], 50, 5},
		{"p50 of 11 is the 6th", hundred[:11], 50, 6},
		{"one sample", hundred[:1], 99, 1},
		{"tiny p clamps to the minimum", hundred, 0.001, 1},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(n=%d, %v) = %v, want %v", c.name, len(c.sorted), c.p, got, c.want)
		}
	}
}

// The acceptance procedure takes quartiles with Python's
// statistics.quantiles(v, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 3, 7}) // unsorted input, n=3
	if !near(q1, 3) || !near(q3, 10) {
		t.Errorf("quartiles(10,3,7) = %v, %v, want 3, 10", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 8})
	if !near(q1, 3) || !near(q3, 9) {
		t.Errorf("quartiles(4,8) = %v, %v, want 3, 9 (Python extrapolates)", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{5, 1, 9, 3}); !near(got, 4) {
		t.Errorf("median(5,1,9,3) = %v, want 4", got)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	// 250 ops/s: one op every 4 ms, whatever happened to earlier ops.
	for i, want := range []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond} {
		if got := dueAt(i, 250); got != want {
			t.Errorf("dueAt(%d, 250) = %v, want %v", i, got, want)
		}
	}
	// A sender free 1 ms before op 5 is due waits 1 ms and is not late.
	due, wait, late := openLoopPlan(start, 5, 250, start.Add(19*time.Millisecond))
	if !due.Equal(start.Add(20*time.Millisecond)) || wait != time.Millisecond || late != 0 {
		t.Errorf("early pick-up: due %v wait %v late %v", due.Sub(start), wait, late)
	}
	// A sender that only gets free 7 ms after the due time sends at once and
	// the op is 7 ms late; its latency is still counted from the due time.
	due, wait, late = openLoopPlan(start, 5, 250, start.Add(27*time.Millisecond))
	if !due.Equal(start.Add(20*time.Millisecond)) || wait != 0 || late != 7*time.Millisecond {
		t.Errorf("late pick-up: due %v wait %v late %v", due.Sub(start), wait, late)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "cluster", Start: 10, End: 90},
		// A parallel fan-out: two branches, both open on [30,40].
		{ID: 3, Parent: 2, Req: 1, Name: "rpc.client", Start: 20, End: 40},
		{ID: 4, Parent: 2, Req: 1, Name: "rpc.client", Start: 30, End: 60},
		// Nested inside span 4: it, not span 4, is innermost on [35,55].
		{ID: 5, Parent: 4, Req: 1, Name: "rpc.wire", Start: 35, End: 55},
		// Another request's spans never mix in, even at the same times.
		{ID: 6, Parent: 0, Req: 2, Name: "client", Start: 0, End: 50},
		{ID: 7, Parent: 6, Req: 2, Name: "httpapi", Start: 10, End: 40},
	}
	self := selfTimes(spans)
	want := map[int64]float64{
		1: 20,   // [0,10] + [90,100]
		2: 40,   // [10,20] + [60,90]
		3: 15,   // [20,30] alone, [30,40] shared: 10 + 5 (with 4 on [30,35], with 5 on [35,40])
		4: 7.5,  // [30,35] shared + [55,60] alone: 2.5 + 5
		5: 17.5, // [35,40] shared + [40,55] alone: 2.5 + 15
		6: 20,
		7: 30,
	}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	perName, requests, sumErr := attribution(spans)
	if requests != 2 {
		t.Errorf("requests = %d, want 2", requests)
	}
	// rpc.client = 15 + 7.5 ns over two requests, in µs.
	if !near(perName["rpc.client"], 22.5/2/1e3) {
		t.Errorf("rpc.client self = %v µs/op, want %v", perName["rpc.client"], 22.5/2/1e3)
	}
	// Shared instants count once: self times sum to the root spans exactly.
	if !near(sumErr, 0) {
		t.Errorf("sum error = %v%%, want 0", sumErr)
	}

	// A child that outlives its parent breaks the identity by its overrun.
	overrun := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "httpapi", Start: 50, End: 110},
	}
	if _, _, sumErr := attribution(overrun); !near(sumErr, 10) {
		t.Errorf("overrun: sum error = %v%%, want 10%%", sumErr)
	}
}

// One request crosses a context-carrying seam, an HTTP hop and a
// context-free seam; each span must find the right parent, and a handler
// that returns after its caller has moved on must not disturb the stack.
func TestRecorderLinksByContextHeaderAndKey(t *testing.T) {
	rec := newRecorder()
	if f := rec.enterRoot("client", 1, "user-1"); f != nil {
		t.Fatal("a recorder that is off must hand out nil frames")
	}
	rec.on.Store(true)
	if f := rec.enterKeyed("user-1", "orphan"); f != nil {
		t.Error("a key no request in flight holds must not open a span")
	}
	if f := rec.enter(context.Background(), "orphan"); f != nil {
		t.Error("a context outside any request must not open a span")
	}

	root := rec.enterRoot("client", 7, "user-1")
	hop := httptest.NewRequest("POST", "/x", nil)
	root.stamp(hop.Header)
	gw := rec.enterRequest(hop, "gateway")
	// A wrapped handler finds the outer handler's span in the context.
	api := rec.enterRequest(hop.WithContext(withFrame(hop.Context(), gw)), "httpapi")
	clu := rec.enterKeyed("user-1", "cluster") // LikePage(uid, page): no context
	cl := rec.enterKeyed("user-1", "rpc.client")
	out := httptest.NewRequest("POST", "/rpc", nil)
	wire := rec.enter(withFrame(context.Background(), cl), "rpc.wire")
	wire.stamp(out.Header)
	srv := rec.enterRequest(out, "rpc.server")
	rec.enterKeyed("user-1", "platform").exit()
	// The client side reads the response and closes its spans before the
	// serving handler has returned.
	wire.exit()
	cl.exit()
	srv.exit()
	// The second shard of a replicated mutation: again under cluster.
	rec.enterKeyed("user-1", "rpc.client").exit()
	clu.exit()
	api.exit()
	gw.exit()
	root.exit()
	if f := rec.enterKeyed("user-1", "after"); f != nil {
		t.Error("the key must be free once the root span has closed")
	}

	byID := map[int64]span{}
	for _, s := range rec.take() {
		byID[s.ID] = s
		if s.Req != 7 {
			t.Errorf("span %s has request id %d, want 7", s.Name, s.Req)
		}
	}
	var chain []string
	for _, s := range byID {
		if s.Name == "platform" {
			for ; s.ID != 0; s = byID[s.Parent] {
				chain = append(chain, s.Name)
			}
		}
	}
	want := []string{"platform", "rpc.server", "rpc.wire", "rpc.client", "cluster", "httpapi", "gateway", "client"}
	if !reflect.DeepEqual(chain, want) {
		t.Errorf("ancestry of the platform span = %v, want %v", chain, want)
	}
	clients := 0
	for _, s := range byID {
		if s.Name == "rpc.client" {
			clients++
			if byID[s.Parent].Name != "cluster" {
				t.Errorf("rpc.client span under %q, want cluster", byID[s.Parent].Name)
			}
		}
	}
	if clients != 2 || len(byID) != 9 {
		t.Errorf("recorded %d spans, %d of them rpc.client; want 9 and 2", len(byID), clients)
	}
}

// Two requests in flight never share a key: the second waits for the first.
func TestRecorderKeyNamesOneRequest(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	first := rec.enterRoot("client", 1, "user-1")
	entered := make(chan *frame)
	go func() { entered <- rec.enterRoot("client", 2, "user-1") }()
	select {
	case <-entered:
		t.Fatal("a second request took a key still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	first.exit()
	second := <-entered
	if got := rec.enterKeyed("user-1", "cluster"); got == nil || got.req != 2 {
		t.Errorf("after the hand-over the key names request %+v, want request 2", got)
	}
	second.exit()
}

// The open phase is judged window by window, so one stall costs one window.
func TestWindowedPercentileAndMissRate(t *testing.T) {
	// Three two-second windows, the last a moment short as the last window
	// of an open phase is, and a stub; 10 ops per window at 1 ms, except
	// that the second window was stalled: its ops took 100 ms.
	p := phase{wall: 5990 * time.Millisecond}
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			lat := time.Millisecond
			if w == 1 {
				lat = 100 * time.Millisecond
			}
			p.samples = append(p.samples, sample{at: time.Duration(w)*latencyWindow + time.Duration(i+1)*100*time.Millisecond, latency: lat})
		}
	}
	if got := len(windows(phase{wall: 6900 * time.Millisecond, samples: append(p.samples, sample{at: 6200 * time.Millisecond})})); got != 3 {
		t.Fatalf("a 0.9 s remainder made %d windows, want it left out of 3", got)
	}
	p.samples[0].err = errors.New("refused") // a failed op has no latency but misses any limit
	if got := len(windows(p)); got != 3 {
		t.Fatalf("%d windows, want 3", got)
	}
	p50, smallest := windowedPercentile(p, 50)
	if p50 != 1 || smallest != 9 {
		t.Errorf("windowed p50 = %v ms over at least %d ops, want 1 ms and 9", p50, smallest)
	}
	// Window miss rates at a 25 ms limit: 0.1, 1, 0; the median is 0.1.
	if got := windowedMissRate(p, 25*time.Millisecond); !near(got, 0.1) {
		t.Errorf("windowed miss rate = %v, want 0.1", got)
	}
	// A phase shorter than one window is one window.
	short := phase{wall: time.Second, samples: p.samples[1:4]}
	if p50, n := windowedPercentile(short, 50); p50 != 1 || n != 3 {
		t.Errorf("short phase: p50 %v over %d ops, want 1 over 3", p50, n)
	}
}

func TestFootprintTakesTheTypicalShard(t *testing.T) {
	one := [][]float64{{238}, {240}, {251}}
	if got := footprintMB(one, []float64{240}); got != 240 {
		t.Errorf("one process: %v, want its own peak", got)
	}
	// A boot that happened to peak low counts as the typical boot.
	if got := footprintMB(one, []float64{229}); got != 240 {
		t.Errorf("one process, low boot: %v, want the median boot 240", got)
	}
	boots := [][]float64{{14, 121, 119}, {15, 118, 120}, {14, 124, 109}}
	// Typical shard boot 119.5; the load took the router to 17 and left
	// the shards where booting put them.
	if got := footprintMB(boots, []float64{17, 124, 109}); got != 17+2*119.5 {
		t.Errorf("low and high boot: %v, want %v", got, 17+2*119.5)
	}
	// One shard's collector fell behind: the other shard is the typical one.
	if got := footprintMB(boots, []float64{17, 152, 121}); got != 17+2*121 {
		t.Errorf("router 17, shards 152 and 121: %v, want %v", got, 17+2*121)
	}
	// Growth on every shard shows in full.
	if got := footprintMB(boots, []float64{17, 150, 152}); got != 17+2*150 {
		t.Errorf("two grown shards: %v, want %v", got, 17+2*150)
	}
	// A single set-up (the traced run) has only its own boot to go by.
	if got := footprintMB([][]float64{{14, 124, 109}}, []float64{17, 124, 109}); got != 17+2*116.5 {
		t.Errorf("single set-up: %v, want %v", got, 17+2*116.5)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	const stat = "4242 (ad platform) d) S 1 4242 4242 0 -1 4194560 900 0 0 0 " +
		"137 21 0 0 20 0 9 0 123456 1234567890 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(137+21) * 1000 / clockTick; got != want {
		t.Errorf("cpu = %v ms, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseHostStat(t *testing.T) {
	const stat = "cpu  257778 10 75103 663217 13113 0 20298 52982 7 3\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	total, steal, err := parseHostStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	// Guest and guest_nice are already counted in user and nice.
	if want := uint64(257778 + 10 + 75103 + 663217 + 13113 + 0 + 20298 + 52982); total != want || steal != 52982 {
		t.Errorf("total %d steal %d, want %d and 52982", total, steal, want)
	}
	a := tick{hostTotal: 1000, hostSteal: 10}
	b := tick{hostTotal: 1200, hostSteal: 16}
	if got := stolen(a, b); !near(got, 0.03) {
		t.Errorf("stolen = %v, want 0.03", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu a b c d e f g h"} {
		if _, _, err := parseHostStat(bad); err == nil {
			t.Errorf("parseHostStat(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	const status = "Name:\tadplatformd\nVmPeak:\t 1300000 kB\nVmHWM:\t  262144 kB\nVmRSS:\t  200000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 256 {
		t.Errorf("VmHWM = %v MB, want 256", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) succeeded", bad)
		}
	}
}

// The generated sequence must be a function of the seed alone, and a pause
// must always find a campaign whose create has completed, even with every
// other client's create still in flight.
func TestGeneratePauseNeverStarves(t *testing.T) {
	w, ok := findWorkload("advertiser_cluster")
	if !ok {
		t.Fatal("advertiser_cluster is gone")
	}
	wd := &world{w: w, attrs: make([]string, 614), pages: make([]string, likePages)}
	const clients = 2
	a, b := wd.generate(9, 5000, clients), wd.generate(9, 5000, clients)
	depth, creates, pauses := clients+1, 0, 0 // the seeded spares
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two generations with one seed", i)
		}
		switch a[i].kind {
		case opCreate:
			depth++
			creates++
		case opPause:
			// Even if the other clients' creates have not finished.
			if depth-(clients-1) < 1 {
				t.Fatalf("op %d: pause with %d campaigns created and %d possibly in flight", i, depth, clients-1)
			}
			depth--
			pauses++
		}
	}
	if creates == 0 || pauses == 0 {
		t.Fatalf("mix produced %d creates and %d pauses", creates, pauses)
	}
	if c := wd.generate(10, 5000, clients); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] {
		t.Error("a different seed produced the same leading ops")
	}
}
