package rpc_test

// Transport-fault tests for the rpc client, driven through the
// faults.Transport seam: retry-budget exhaustion must surface the typed
// ErrUnavailable, and a duplicate-delivered request must never
// double-apply a mutation.

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// Exhausting the retry budget against a peer that never accepts a
// connection must surface the typed ErrUnavailable — with the attempt
// count on the CallError — not a raw *net.OpError.
func TestRetryBudgetExhaustionSurfacesUnavailable(t *testing.T) {
	p := platform.New(platform.Config{Seed: 1})
	srv := httptest.NewServer(rpc.NewServer(p, "", nil))
	defer srv.Close()

	inj := faults.NewInjector(1, nil)
	inj.Arm(true)
	tr := faults.NewTransport(inj, faults.NetConfig{DialError: 1}, "peer0", nil)
	c := rpc.NewClient(srv.URL, rpc.Options{
		Transport:        tr,
		MaxRetries:       2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		FailureThreshold: 100, // keep the breaker out of this test
	})
	defer c.Close()

	err := users(c)
	if err == nil {
		t.Fatal("call through a dead link succeeded")
	}
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("exhausted retries = %v, want errors.Is ErrUnavailable", err)
	}
	var ce *rpc.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CallError, got %T: %v", err, err)
	}
	if want := 3; ce.Attempts != want { // initial try + MaxRetries
		t.Fatalf("Attempts = %d, want %d", ce.Attempts, want)
	}
	if got := inj.Counts()[faults.NetDialError]; got != 3 {
		t.Fatalf("injected dial errors = %d, want one per attempt (3)", got)
	}
}

// countingBackend counts how many times each op reaches the shard, so
// duplicate delivery is observable server-side.
type countingBackend struct {
	rpc.Backend
	visits atomic.Int64
	prefs  atomic.Int64
}

func (b *countingBackend) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	b.visits.Add(1)
	return b.Backend.VisitPage(uid, px)
}

func (b *countingBackend) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	b.prefs.Add(1)
	return b.Backend.AdPreferences(uid)
}

// A network that duplicate-delivers requests must never double-apply a
// mutation: the transport only replays idempotent reads, and the client
// never re-sends a mutation that may have been received. The read path
// tolerates the duplicate; the visit is applied exactly once.
func TestDuplicateDeliveryNeverDoubleAppliesMutation(t *testing.T) {
	p := platform.New(platform.Config{Seed: 1})
	uids := addTestUsers(t, p, 3)
	if err := p.RegisterAdvertiser("dup-adv"); err != nil {
		t.Fatal(err)
	}
	px, err := p.IssuePixel("dup-adv")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: p}
	srv := httptest.NewServer(rpc.NewServer(cb, "", nil))
	defer srv.Close()

	inj := faults.NewInjector(2, nil)
	inj.Arm(true)
	tr := faults.NewTransport(inj, faults.NetConfig{Duplicate: 1, DuplicableOps: rpc.ReadOps()}, "peer0", nil)
	c := rpc.NewClient(srv.URL, rpc.Options{Transport: tr})
	defer c.Close()

	ctx := context.Background()
	if err := c.VisitPage(ctx, uids[0], px); err != nil {
		t.Fatalf("visit through duplicating network: %v", err)
	}
	if got := cb.visits.Load(); got != 1 {
		t.Fatalf("mutation applied %d times, want exactly 1", got)
	}
	if _, err := c.AdPreferences(ctx, uids[0]); err != nil {
		t.Fatalf("read through duplicating network: %v", err)
	}
	if got := cb.prefs.Load(); got != 2 {
		t.Fatalf("idempotent read delivered %d times, want 2 (the duplicate)", got)
	}
	if got := inj.Counts()[faults.NetDuplicate]; got < 1 {
		t.Fatal("duplicate fault never fired")
	}
}
