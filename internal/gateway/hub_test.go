package gateway

import (
	"testing"

	"github.com/treads-project/treads/internal/obs"
)

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub(nil)
	ch, cancel := h.Subscribe(4)
	defer cancel()
	if got := int(h.nsubs.Load()); got != 1 {
		t.Fatalf("Subscribers() = %d, want 1", got)
	}
	h.Publish(Event{Tenant: "alpha", Decision: "admitted"})
	e := <-ch
	if e.Tenant != "alpha" || e.Decision != "admitted" {
		t.Fatalf("received %+v", e)
	}
}

func TestHubDropsWhenSubscriberFull(t *testing.T) {
	dropped := obs.NewCounter()
	h := NewHub(dropped)
	ch, cancel := h.Subscribe(2)
	defer cancel()
	for i := 0; i < 5; i++ {
		h.Publish(Event{Status: i})
	}
	if got := dropped.Value(); got != 3 {
		t.Fatalf("dropped = %v, want 3", got)
	}
	// The buffered events are the earliest two, in order.
	if e := <-ch; e.Status != 0 {
		t.Fatalf("first buffered event = %+v", e)
	}
	if e := <-ch; e.Status != 1 {
		t.Fatalf("second buffered event = %+v", e)
	}
}

func TestHubCancelIdempotentAndClosesChannel(t *testing.T) {
	h := NewHub(nil)
	ch, cancel := h.Subscribe(1)
	cancel()
	cancel()
	if _, ok := <-ch; ok {
		t.Fatalf("channel still open after cancel")
	}
	if got := int(h.nsubs.Load()); got != 0 {
		t.Fatalf("Subscribers() = %d after cancel, want 0", got)
	}
	// Publishing with no subscribers is a no-op, not a panic.
	h.Publish(Event{})
}

func TestHubPublishNoSubscribersIsWaitFree(t *testing.T) {
	h := NewHub(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Publish(Event{Tenant: "alpha"})
	})
	if allocs != 0 {
		t.Fatalf("Publish with no subscribers allocates %v, want 0", allocs)
	}
}
