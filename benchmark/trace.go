package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for the client's
// root span). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans from the benchmark's shims. It is the benchmark's
// own tracer: nothing inside the program is edited, the shims sit at seams
// the program already has. Spans stay in memory until the run ends.
//
// A span finds its parent in one of three ways, whichever its seam allows.
// A seam that carries a context (BrowseFeedCtx, the scatter-gather calls,
// an http.Request) takes the parent from it. An HTTP hop carries request
// and parent in headers. The remaining seams (LikePage(uid, page) and
// friends) carry neither, so there the request is recognised by an argument
// that no other request in flight shares — the user, the new campaign's
// headline, the campaign paused — and its innermost open span is looked up
// under that key. Those ops never fan out, so one pointer per request is
// enough. The client makes the keys unique: see enterRoot.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu        sync.Mutex
	spans     []span
	innermost map[string]*frame // by request key
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), innermost: make(map[string]*frame)}
}

// frame is an open span.
type frame struct {
	rec    *recorder
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
	// key is the request's key, "" for a request followed by context alone;
	// below is what the key pointed at before this span opened.
	key   string
	below *frame
}

// Headers that carry a span across an HTTP hop.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
	hdrKey  = "X-Bench-Key"
)

type frameKey struct{}

func withFrame(ctx context.Context, f *frame) context.Context {
	if f == nil {
		return ctx
	}
	return context.WithValue(ctx, frameKey{}, f)
}

// open starts a span and, for a keyed request, makes it the innermost.
func (r *recorder) open(name string, req, parent int64, key string) *frame {
	f := &frame{rec: r, id: r.nextID.Add(1), parent: parent, req: req, name: name, key: key}
	if key != "" {
		r.mu.Lock()
		f.below = r.innermost[key]
		r.innermost[key] = f
		r.mu.Unlock()
	}
	f.start = time.Now()
	return f
}

// enter starts a span as a child of the span the context carries. With
// recording off, or outside any request (background work), it returns nil;
// a nil frame's exit is a no-op.
func (r *recorder) enter(ctx context.Context, name string) *frame {
	if !r.on.Load() {
		return nil
	}
	parent, _ := ctx.Value(frameKey{}).(*frame)
	if parent == nil {
		return nil
	}
	return r.open(name, parent.req, parent.id, parent.key)
}

// enterKeyed starts a span as a child of the innermost open span of the
// request in flight under key.
func (r *recorder) enterKeyed(key, name string) *frame {
	if !r.on.Load() {
		return nil
	}
	r.mu.Lock()
	parent := r.innermost[key]
	r.mu.Unlock()
	if parent == nil {
		return nil
	}
	return r.open(name, parent.req, parent.id, key)
}

// enterRoot starts the client's span of request req. A request whose op
// reaches context-free seams passes its key; should another request in
// flight hold the same key (two clients drew the same user), this one waits
// for it to finish, so a key always names one request.
func (r *recorder) enterRoot(name string, req int64, key string) *frame {
	if !r.on.Load() {
		return nil
	}
	f := &frame{rec: r, id: r.nextID.Add(1), req: req, name: name, key: key}
	for key != "" {
		r.mu.Lock()
		free := r.innermost[key] == nil
		if free {
			r.innermost[key] = f
		}
		r.mu.Unlock()
		if free {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	f.start = time.Now()
	return f
}

// enterRequest starts a server-side span: a child of the span in the
// request's context when a handler wraps another handler, otherwise of the
// span named in the request's headers.
func (r *recorder) enterRequest(req *http.Request, name string) *frame {
	if !r.on.Load() {
		return nil
	}
	if f := r.enter(req.Context(), name); f != nil {
		return f
	}
	id, err1 := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
	parent, err2 := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
	if err1 != nil || err2 != nil {
		return nil // not one of ours: a readiness probe, a scrape
	}
	return r.open(name, id, parent, req.Header.Get(hdrKey))
}

// stamp writes f's identity into outgoing request headers.
func (f *frame) stamp(h http.Header) {
	if f == nil {
		return
	}
	h.Set(hdrReq, strconv.FormatInt(f.req, 10))
	h.Set(hdrSpan, strconv.FormatInt(f.id, 10))
	if f.key != "" {
		h.Set(hdrKey, f.key)
	}
}

func (f *frame) exit() {
	if f == nil {
		return
	}
	end := time.Now()
	r := f.rec
	r.mu.Lock()
	// Closing a span closes what is still open above it: a server handler
	// returns only after its client has read the response and moved on, and
	// then finds itself already gone from the request's stack.
	for top := r.innermost[f.key]; f.key != "" && top != nil; top = top.below {
		if top != f {
			continue
		}
		if f.below != nil {
			r.innermost[f.key] = f.below
		} else {
			delete(r.innermost, f.key)
		}
		break
	}
	r.spans = append(r.spans, span{ID: f.id, Parent: f.parent, Req: f.req, Name: f.name,
		Start: int64(f.start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// selfTimes returns each span's self time, in nanoseconds: the time during
// which it was open and none of its children was. Where a fan-out has
// several branches open at once, each instant is shared equally among the
// innermost open spans, so the self times of one request's spans sum to its
// root span's duration exactly — provided every span lies inside its
// parent; a child that outlives its parent adds its overrun to the sum.
func selfTimes(spans []span) map[int64]float64 {
	byReq := make(map[int64][]span)
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	self := make(map[int64]float64, len(spans))
	for _, req := range byReq {
		edges := make([]int64, 0, 2*len(req))
		for _, s := range req {
			edges = append(edges, s.Start, s.End)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for e := 1; e < len(edges); e++ {
			lo, hi := edges[e-1], edges[e]
			if hi == lo {
				continue
			}
			open := func(s span) bool { return s.Start <= lo && s.End >= hi }
			var innermost []int64
			for _, s := range req {
				if !open(s) {
					continue
				}
				hasOpenChild := false
				for _, c := range req {
					if c.Parent == s.ID && open(c) {
						hasOpenChild = true
						break
					}
				}
				if !hasOpenChild {
					innermost = append(innermost, s.ID)
				}
			}
			for _, id := range innermost {
				self[id] += float64(hi-lo) / float64(len(innermost))
			}
		}
	}
	return self
}

// attribution folds spans into mean self microseconds per request, by span
// name, and reports how far the self times are from summing to the client
// spans (trace.sum_error_pct; 0 when every span lies inside its parent).
func attribution(spans []span) (perName map[string]float64, requests int, sumErrPct float64) {
	self := selfTimes(spans)
	perName = make(map[string]float64)
	var rootTotal, selfTotal float64
	for _, s := range spans {
		perName[s.Name] += self[s.ID]
		selfTotal += self[s.ID]
		if s.Parent == 0 {
			requests++
			rootTotal += float64(s.End - s.Start)
		}
	}
	if requests == 0 {
		return perName, 0, 0
	}
	for k := range perName {
		perName[k] /= float64(requests) * 1e3
	}
	return perName, requests, 100 * math.Abs(selfTotal-rootTotal) / rootTotal
}

// writeSpans writes spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRows is the attribution table's row order: span names top-down,
// then the isolated split of the platform row.
var layerRows = []struct{ span, label, note string }{
	{"client", "client.wire", "client to edge and back, plus the generator itself"},
	{"gateway", "gateway", ""},
	{"httpapi", "httpapi", ""},
	{"cluster", "cluster", ""},
	{"rpc.client", "rpc.client", ""},
	{"rpc.wire", "rpc.wire", "transport, loopback, server accept"},
	{"rpc.server", "rpc.server", ""},
	{"platform", "platform", "op under the shard lock, commit wait included"},
}

// printAttribution prints one workload's table: layer, self µs per request,
// share of the client span.
func printAttribution(w io.Writer, name string, perName map[string]float64, requests int, extra [][3]string) {
	total := 0.0
	for _, v := range perName {
		total += v
	}
	fmt.Fprintf(w, "\nattribution %s (%d traced requests, client span %.1f µs)\n", name, requests, total)
	fmt.Fprintf(w, "  %-16s %12s %7s\n", "layer", "self µs/op", "share")
	for _, row := range layerRows {
		v := perName[row.span]
		fmt.Fprintf(w, "  %-16s %12.1f %6.1f%%  %s\n", row.label, v, 100*v/total, row.note)
	}
	for _, e := range extra {
		fmt.Fprintf(w, "  %-16s %12s %7s  %s\n", e[0], e[1], "", e[2])
	}
}
