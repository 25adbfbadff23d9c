package faults

import (
	"context"
	"io"
	"net"
	"net/http"
	"path"
	"sync"
	"time"
)

// NetConfig sets the per-request probabilities of each network fault. The
// zero value injects nothing; partitions via SetPartitioned still work.
type NetConfig struct {
	// DialError is the chance a request fails as a refused dial — before
	// anything reaches the wire, so the rpc client classifies it as
	// provably-unsent and may retry even mutations.
	DialError float64
	// Delay is the chance a request is held before forwarding.
	Delay float64
	// DelayMax bounds an injected delay (default 20ms). The actual delay
	// is a deterministic draw in [0, DelayMax).
	DelayMax time.Duration
	// Duplicate is the chance a request in DuplicableOps is delivered
	// twice; the extra response is read and discarded. Mutations must stay
	// out of that set — at-most-once for non-idempotent ops is the rpc
	// client's contract, and the harness proves it separately by cutting
	// responses after the server applied the op (ResetBody).
	Duplicate float64
	// DuplicableOps is the set of rpc op names Duplicate may fire on; nil
	// duplicates nothing. A harness over the shard protocol passes
	// rpc.ReadOps(), which is derived from the op table.
	DuplicableOps map[string]bool
	// ResetBody is the chance a response body is cut mid-stream after the
	// request reached the server: the caller sees a transport error but
	// the op may have applied — the indeterminate case crash-safe systems
	// must tolerate.
	ResetBody float64
}

// Transport is an http.RoundTripper that injects network faults between
// one rpc client and one peer. Plug it in via rpc.Options.Transport; build
// one Transport per peer so partitions and schedules are per-pair. The
// injection site of a request is "<peer>/<op>", so each (peer, op) pair
// draws an independent deterministic schedule.
type Transport struct {
	base http.RoundTripper
	inj  *Injector
	cfg  NetConfig
	peer string // stable label, e.g. "node0"

	mu          sync.Mutex
	partitioned bool
}

// NewTransport wraps base (a default pooled http.Transport when nil).
func NewTransport(inj *Injector, cfg NetConfig, peer string, base http.RoundTripper) *Transport {
	if base == nil {
		base = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
	}
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 20 * time.Millisecond
	}
	return &Transport{base: base, inj: inj, cfg: cfg, peer: peer}
}

// SetPartitioned cuts (true) or heals (false) the link to this peer.
// While cut, every request fails as a refused dial regardless of arming —
// partitions are harness-driven topology, not probability draws.
func (t *Transport) SetPartitioned(on bool) {
	t.mu.Lock()
	t.partitioned = on
	t.mu.Unlock()
}

// Partitioned reports whether the link is currently cut.
func (t *Transport) Partitioned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partitioned
}

// dialRefused manufactures the error shape of a refused TCP connect, which
// the rpc client classifies as provably-unsent.
func dialRefused(req *http.Request) error {
	return &net.OpError{Op: "dial", Net: "tcp",
		Err: errInjected{"connection refused to " + req.URL.Host}}
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := path.Base(req.URL.Path)
	site := t.peer + "/" + op

	if t.Partitioned() {
		t.inj.Record(NetPartition)
		return nil, dialRefused(req)
	}
	if t.inj.Hit(site, NetDialError, t.cfg.DialError) {
		return nil, dialRefused(req)
	}
	if t.inj.Hit(site, NetDelay, t.cfg.Delay) {
		// Draw the duration before sleeping so the schedule stays
		// deterministic even if the context fires first.
		d := time.Duration(t.inj.Magnitude(site+"#delay", int(t.cfg.DelayMax)))
		timer := time.NewTimer(d)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if t.cfg.DuplicableOps[op] && t.inj.Hit(site, NetDuplicate, t.cfg.Duplicate) {
		t.deliverDuplicate(req)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.inj.Hit(site, NetResetBody, t.cfg.ResetBody) {
		// Half the cuts land before the first byte (always observable,
		// even on tiny ack bodies); the rest land inside the first 512B.
		var cut int64
		if t.inj.Magnitude(site+"#cut", 2) == 1 {
			cut = int64(t.inj.Magnitude(site+"#cutlen", 512))
		}
		resp.Body = &cutBody{rc: resp.Body, remain: cut}
	}
	return resp, nil
}

// deliverDuplicate sends an extra copy of req and discards the response,
// simulating a network layer that delivered the datagram twice. Requests
// whose body cannot be replayed (no GetBody) are left alone.
func (t *Transport) deliverDuplicate(req *http.Request) {
	dup := req.Clone(context.WithoutCancel(req.Context()))
	if req.Body != nil {
		if req.GetBody == nil {
			return
		}
		body, err := req.GetBody()
		if err != nil {
			return
		}
		dup.Body = body
	}
	resp, err := t.base.RoundTrip(dup)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// cutBody yields remain bytes of the wrapped response body, then fails
// with a connection-reset-shaped error (not io.EOF), so readers see a
// mid-stream transport failure.
type cutBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, &net.OpError{Op: "read", Net: "tcp",
			Err: errInjected{"connection reset mid-body"}}
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if err == io.EOF && b.remain <= 0 {
		// The cut landed exactly at the real end; still surface a reset
		// so the fault is observable.
		err = nil
	}
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }
