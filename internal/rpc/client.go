package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/trace"
)

// Client defaults; every knob is overridable through Options.
const (
	DefaultCallTimeout      = 2 * time.Second
	DefaultMaxRetries       = 3
	DefaultBackoffBase      = 25 * time.Millisecond
	DefaultBackoffMax       = 1 * time.Second
	DefaultFailureThreshold = 5
	DefaultCircuitCooldown  = 2 * time.Second
)

// Options tunes one peer's client.
type Options struct {
	// Secret is the shared shard secret sent as a bearer token. Empty
	// sends no Authorization header (matches a secretless test server).
	Secret string
	// CallTimeout bounds each attempt (default DefaultCallTimeout). The
	// caller's context still bounds the call overall — the effective
	// deadline is whichever is sooner.
	CallTimeout time.Duration
	// MaxRetries is how many additional attempts follow a retryable
	// failure of an idempotent call (default DefaultMaxRetries; negative
	// disables retries). Mutations retry only when the connection was
	// refused at dial time — the one failure that proves the shard never
	// saw the request — regardless of this being larger.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries; each delay is doubled from the base, capped at max, and
	// jittered ±50% so a router's retries against a recovering shard
	// don't arrive in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeDelay enables hedged reads: if an idempotent call has not
	// answered after this long, a duplicate is issued and the first
	// response wins. 0 disables hedging.
	HedgeDelay time.Duration
	// FailureThreshold consecutive failures open the circuit breaker
	// (default DefaultFailureThreshold).
	FailureThreshold int
	// CircuitCooldown is how long an open breaker fails fast before
	// admitting a half-open probe (default DefaultCircuitCooldown).
	CircuitCooldown time.Duration
	// Registry receives the client's per-peer metrics; nil leaves the
	// client instrumented against unregistered metrics.
	Registry *obs.Registry
	// Transport replaces the pooled default round-tripper. This is the
	// fault-injection seam: the chaos harness passes a faults.Transport
	// here to drop, delay, duplicate, and cut this peer's traffic.
	Transport http.RoundTripper
}

func (o *Options) withDefaults() {
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = DefaultFailureThreshold
	}
	if o.CircuitCooldown <= 0 {
		o.CircuitCooldown = DefaultCircuitCooldown
	}
}

// Client speaks the shard RPC protocol to one peer over a pooled
// connection set. It is safe for concurrent use; a router holds one
// Client per shard node for the process lifetime.
type Client struct {
	baseURL string
	peer    string
	opts    Options
	hc      *http.Client
	m       *clientMetrics
	br      breaker
}

// NewClient returns a client for a peer's base URL (e.g.
// "http://10.0.0.7:9000").
func NewClient(baseURL string, opts Options) *Client {
	opts.withDefaults()
	peer := baseURL
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		peer = u.Host
	}
	tr := opts.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	hc := &http.Client{Transport: tr}
	m := newClientMetrics(opts.Registry, peer)
	c := &Client{
		baseURL: baseURL,
		peer:    peer,
		opts:    opts,
		hc:      hc,
		m:       m,
	}
	c.br = breaker{
		threshold: opts.FailureThreshold,
		cooldown:  opts.CircuitCooldown,
		m:         m,
	}
	return c
}

// BaseURL returns the peer's base URL — the dialable address the router
// publishes in ring pushes.
func (c *Client) BaseURL() string { return c.baseURL }

// Peer returns the peer label (host:port).
func (c *Client) Peer() string { return c.peer }

// Healthy reports whether the peer's breaker admits calls: closed, or open
// long enough that a half-open probe is due. RemoteShard surfaces this to
// the cluster's routing layer.
func (c *Client) Healthy() bool { return c.br.admitting() }

// Close releases pooled connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// errNotSent marks transport failures where the request provably never
// reached the peer (connection refused at dial time) — the only failures
// a non-idempotent call may retry.
var errNotSent = errors.New("request not sent")

// healthOp is the liveness endpoint: a GET beside the op table's POSTs.
const healthOp = "health"

// Health probes the peer's health endpoint with a single attempt and
// feeds the breaker on both outcomes, so an explicit probe can close a
// recovered peer's circuit without risking a real operation. It is never
// retried and ignores the breaker's verdict: probing a dead peer is its job.
func (c *Client) Health(ctx context.Context) (HealthResp, error) {
	cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	var h HealthResp
	raw, status, err := c.roundTrip(cctx, http.MethodGet, healthOp, nil)
	if err == nil {
		if uerr := json.Unmarshal(raw, &h); uerr != nil {
			err = fmt.Errorf("%w: %v", ErrMalformed, uerr)
		}
	}
	if err != nil {
		c.br.failure()
		return HealthResp{}, &CallError{Peer: c.peer, Op: healthOp, Status: status, Attempts: 1, Err: err}
	}
	c.br.success()
	return h, nil
}

// Call issues one operation against the peer: marshal req (nil for none),
// unmarshal the answer into resp (nil to discard). idempotent marks
// operations that are safe to re-execute (pure reads); they get the full
// retry-and-hedge treatment. Mutations get one shot unless the connection
// was refused outright.
//
// Errors: *RemoteError for application refusals (returned verbatim so
// refusal text survives the hop), else a *CallError wrapping one of the
// package sentinels.
func (c *Client) Call(ctx context.Context, op string, idempotent bool, req, resp any) error {
	// Only sampled requests pay for the span (and its name concat); the
	// FromContext guard keeps the unsampled path allocation-free.
	if trace.FromContext(ctx) != nil {
		var sp *trace.Span
		ctx, sp = trace.StartChild(ctx, "rpc.call "+op)
		sp.Annotate("peer", c.peer)
		if !c.br.admitting() {
			sp.Event("breaker_open")
		}
		err := c.call(ctx, op, idempotent, req, resp)
		sp.SetError(err)
		sp.Finish()
		return err
	}
	return c.call(ctx, op, idempotent, req, resp)
}

func (c *Client) call(ctx context.Context, op string, idempotent bool, req, resp any) error {
	if !c.br.allow() {
		return &CallError{Peer: c.peer, Op: op, Err: ErrCircuitOpen}
	}
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return &CallError{Peer: c.peer, Op: op, Err: fmt.Errorf("encoding request: %w", err)}
		}
	}
	attempts := 0
	for {
		attempts++
		raw, status, err := c.exchange(ctx, op, body, idempotent)
		if err == nil {
			c.br.success()
			if resp == nil {
				return nil
			}
			if uerr := json.Unmarshal(raw, resp); uerr != nil {
				c.br.failure()
				return &CallError{Peer: c.peer, Op: op, Status: status, Attempts: attempts,
					Err: fmt.Errorf("%w: %v", ErrMalformed, uerr)}
			}
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// The shard answered; the transport is fine.
			c.br.success()
			return re
		}
		if errors.Is(err, ErrStaleRing) {
			// Also an answered refusal — the peer is healthy, just ahead of
			// our ring. Don't feed the breaker or retry; surface it so the
			// routing layer refreshes membership.
			c.br.success()
			return &CallError{Peer: c.peer, Op: op, Status: status, Attempts: attempts, Err: err}
		}
		c.br.failure()
		if !retryable(err, idempotent) || attempts > c.opts.MaxRetries {
			return &CallError{Peer: c.peer, Op: op, Status: status, Attempts: attempts, Err: err}
		}
		select {
		case <-ctx.Done():
			return &CallError{Peer: c.peer, Op: op, Status: status, Attempts: attempts,
				Err: fmt.Errorf("%w: %v (while backing off from: %v)", ErrTimeout, ctx.Err(), err)}
		case <-time.After(c.backoff(attempts)):
		}
		c.m.retries.Inc()
		trace.FromContext(ctx).Event("retry")
		if !c.br.allow() {
			return &CallError{Peer: c.peer, Op: op, Attempts: attempts, Err: ErrCircuitOpen}
		}
	}
}

// backoff returns the jittered exponential delay before retry n (1-based).
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffBase << (n - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// ±50% jitter; mrand's global generator is safe for concurrent use.
	return time.Duration(float64(d) * (0.5 + mrand.Float64()))
}

// retryable classifies a failed attempt. Idempotent reads retry on any
// transport failure; mutations only when the request never left this
// process.
func retryable(err error, idempotent bool) bool {
	if !idempotent {
		return errors.Is(err, errNotSent)
	}
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout)
}

// exchange runs one logical attempt, hedging idempotent calls when
// configured: if the primary has not answered within HedgeDelay, a
// duplicate fires and the first success wins (losers are canceled on
// return via the shared per-attempt context).
func (c *Client) exchange(ctx context.Context, op string, body []byte, idempotent bool) ([]byte, int, error) {
	cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	if !idempotent || c.opts.HedgeDelay <= 0 {
		return c.roundTrip(cctx, http.MethodPost, op, body)
	}
	type result struct {
		raw    []byte
		status int
		err    error
	}
	ch := make(chan result, 2)
	launch := func() {
		raw, status, err := c.roundTrip(cctx, http.MethodPost, op, body)
		ch <- result{raw, status, err}
	}
	go launch()
	t := time.NewTimer(c.opts.HedgeDelay)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.raw, r.status, r.err
	case <-t.C:
		c.m.hedges.Inc()
		trace.FromContext(ctx).Event("hedge")
		go launch()
	}
	r := <-ch
	if r.err == nil {
		return r.raw, r.status, nil
	}
	r2 := <-ch
	if r2.err == nil {
		return r2.raw, r2.status, nil
	}
	return r.raw, r.status, r.err
}

// roundTrip performs a single HTTP exchange — the only place a response
// becomes one of the package's typed errors.
func (c *Client) roundTrip(ctx context.Context, method, op string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+PathPrefix+op, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: building request: %v", ErrMalformed, err)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.Secret != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Secret)
	}
	// Propagate the trace across the process boundary: sampled calls
	// carry a traceparent the shard's server continues; unsampled calls
	// carry nothing (Inject of nil is a no-op).
	trace.Inject(trace.FromContext(ctx), req.Header)
	c.m.requests.Inc()
	start := time.Now()
	resp, err := c.hc.Do(req)
	c.m.requestSeconds.ObserveSince(start)
	if err != nil {
		c.m.errors.Inc()
		return nil, 0, classifyNetErr(err)
	}
	defer resp.Body.Close()
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxBody+1))
	if rerr != nil {
		// The connection dropped mid-stream: the shard may or may not
		// have applied the op, so this is never errNotSent.
		c.m.errors.Inc()
		return nil, resp.StatusCode, fmt.Errorf("%w: reading response: %v", ErrUnavailable, rerr)
	}
	if len(raw) > MaxBody {
		c.m.errors.Inc()
		return nil, resp.StatusCode, fmt.Errorf("%w: response exceeds %d bytes", ErrMalformed, MaxBody)
	}
	if resp.StatusCode == http.StatusOK {
		return raw, resp.StatusCode, nil
	}
	err = statusErr(resp.StatusCode, raw)
	var re *RemoteError
	if !errors.As(err, &re) {
		c.m.errors.Inc()
	}
	return nil, resp.StatusCode, err
}

// statusErr maps a non-200 response to a typed error.
func statusErr(status int, raw []byte) error {
	var eb errorBody
	msg := http.StatusText(status)
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch {
	case status == http.StatusUnauthorized:
		return fmt.Errorf("%w: %s", ErrAuth, msg)
	case status == http.StatusUnprocessableEntity:
		return &RemoteError{Msg: msg}
	case status == http.StatusConflict:
		// The shard refused ownership of the addressed user: the caller's
		// ring is stale. Never retried at this layer — the op was not
		// applied, and the fix is a membership refresh, not a resend.
		return fmt.Errorf("%w: %s", ErrStaleRing, msg)
	case status == http.StatusBadRequest,
		status == http.StatusNotFound,
		status == http.StatusRequestEntityTooLarge:
		// The peers disagree about the protocol; retrying won't fix it.
		return fmt.Errorf("%w: status %d: %s", ErrMalformed, status, msg)
	default:
		return fmt.Errorf("%w: status %d: %s", ErrUnavailable, status, msg)
	}
}

// classifyNetErr types a transport error from http.Client.Do.
func classifyNetErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return fmt.Errorf("%w: %w: %v", ErrUnavailable, errNotSent, err)
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// breaker is a consecutive-failure circuit breaker. Closed: all calls
// pass. After threshold consecutive failures it opens: calls fail fast
// for the cooldown, then exactly one half-open probe is admitted; its
// success closes the breaker, its failure re-opens it for another
// cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	m         *clientMetrics

	mu        sync.Mutex
	failures  int
	openUntil time.Time // zero when closed
	probing   bool      // a half-open probe is in flight
}

// allow reports whether a call may proceed, admitting the half-open probe
// when the cooldown has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// admitting is allow without the probe side effect — the health view.
func (b *breaker) admitting() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openUntil.IsZero() || !time.Now().Before(b.openUntil)
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if !b.openUntil.IsZero() {
		b.openUntil = time.Time{}
		b.m.circuitState.Set(0)
	}
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.failures < b.threshold {
		return
	}
	wasClosed := b.openUntil.IsZero()
	b.openUntil = time.Now().Add(b.cooldown)
	if wasClosed {
		b.m.circuitOpened.Inc()
		b.m.circuitState.Set(1)
	}
}
