package gateway

import (
	"sync"
	"sync/atomic"

	"github.com/treads-project/treads/internal/obs"
)

// Event is one per-request gateway decision, as streamed to hub
// subscribers. Events carry tenant and class identity but never user
// IDs — the hub sits inside the same trust boundary as /metrics.
type Event struct {
	UnixNanos  int64  `json:"unix_nanos"`
	Tenant     string `json:"tenant"`
	Class      string `json:"class"`
	Route      string `json:"route"`
	Decision   string `json:"decision"` // admitted | limited | shed | quota | unauthenticated
	Status     int    `json:"status"`
	RetryAfter int64  `json:"retry_after_ms,omitempty"`
	LatencyUS  int64  `json:"latency_us,omitempty"` // admitted requests only
}

// Hub fans gateway decisions out to live subscribers (the
// /admin/v1/traffic stream). Publish is wait-free for the request path:
// with no subscribers it is one atomic load and nothing else, and with
// subscribers it never blocks — a subscriber whose buffer is full loses
// the event (counted in gateway_hub_dropped_total) rather than ever
// back-pressuring admission decisions.
type Hub struct {
	mu      sync.RWMutex
	subs    map[uint64]chan Event
	nextID  uint64
	nsubs   atomic.Int64
	dropped *obs.Counter
}

// NewHub returns an empty hub. dropped counts events lost to slow
// subscribers; pass a standalone counter when no registry is in play.
func NewHub(dropped *obs.Counter) *Hub {
	if dropped == nil {
		dropped = obs.NewCounter()
	}
	return &Hub{subs: make(map[uint64]chan Event), dropped: dropped}
}

// Publish delivers e to every subscriber without blocking.
func (h *Hub) Publish(e Event) {
	if h.nsubs.Load() == 0 {
		return
	}
	h.mu.RLock()
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped.Inc()
		}
	}
	h.mu.RUnlock()
}

// Subscribe registers a buffered event channel. The returned cancel
// closes the channel and drops the subscription; it is safe to call
// twice.
func (h *Hub) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 64
	}
	ch := make(chan Event, buf)
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	h.mu.Unlock()
	h.nsubs.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			h.mu.Unlock()
			h.nsubs.Add(-1)
			close(ch)
		})
	}
	return ch, cancel
}
