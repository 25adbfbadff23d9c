// Package faults is the deterministic fault-injection layer the chaos
// harness drives the platform through. It provides two seams — a
// filesystem (FS, wrapped by FaultFS) that the journal writes through, and
// an http.RoundTripper (Transport) that the rpc client dials through — plus
// the Injector, a seeded schedule shared by every seam in a run.
//
// Determinism model: the Injector derives one RNG per injection *site* (a
// stable string such as "shard0/wal-0000000000000001.log" or
// "node2/browse") from the run seed alone, so the decision sequence at any
// site is a pure function of (seed, site, nth-decision-at-site). A
// single-threaded run replays bit-identically from its seed; a concurrent
// run keeps every per-site schedule seed-fixed even though the interleaving
// across sites is scheduler-dependent. Invariants checked by the chaos
// harness must therefore hold for every interleaving, which is the point.
//
// Every decision is counted: opportunities (the seam consulted the
// schedule) and fires (a fault was injected), per Kind, exported as obs
// counters. A fault kind that is configured on but records zero
// opportunities is a dead injection point — the harness fails the run on
// it, so a refactor that silently bypasses a seam cannot pass chaos.
package faults

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/stats"
)

// Kind names one fault type. The set is closed: seams only inject kinds
// listed in Kinds, and the harness asserts coverage over that set.
type Kind string

const (
	// FSShortWrite truncates a single write call: only a prefix of the
	// buffer reaches the file and the write returns an error.
	FSShortWrite Kind = "fs_short_write"
	// FSWriteError fails a write call outright with zero bytes written.
	FSWriteError Kind = "fs_write_error"
	// FSSyncError fails an fsync (file or directory), leaving the durable
	// watermark behind the written size.
	FSSyncError Kind = "fs_sync_error"
	// FSRenameError fails a rename, e.g. a snapshot publish.
	FSRenameError Kind = "fs_rename_error"
	// FSCrashTear is recorded by FaultFS.Crash when it discards unsynced
	// bytes, possibly tearing a record mid-frame.
	FSCrashTear Kind = "fs_crash_tear"
	// NetDialError fails a request before it leaves the process, as a
	// refused dial (the one transport error the rpc client may safely
	// retry for mutations).
	NetDialError Kind = "net_dial_error"
	// NetDelay holds a request for a deterministic duration before
	// forwarding it.
	NetDelay Kind = "net_delay"
	// NetDuplicate delivers an idempotent request twice; the duplicate's
	// response is discarded.
	NetDuplicate Kind = "net_duplicate"
	// NetResetBody lets the request through but cuts the response body
	// mid-stream, so the caller cannot know whether the op applied.
	NetResetBody Kind = "net_reset_body"
	// NetPartition is recorded for every request refused while the peer
	// is administratively partitioned via Transport.SetPartitioned.
	NetPartition Kind = "net_partition"
)

// Kinds lists every fault kind, in stable order.
var Kinds = []Kind{
	FSShortWrite, FSWriteError, FSSyncError, FSRenameError, FSCrashTear,
	NetDialError, NetDelay, NetDuplicate, NetResetBody, NetPartition,
}

// Injector is the shared, seeded fault schedule for one chaos run. All
// seams of a run hold the same Injector; arming and disarming it gates
// every injection point at once (boot and verification phases run
// disarmed). The zero value is unusable; construct with NewInjector.
type Injector struct {
	seed  uint64
	armed atomic.Bool

	mu    sync.Mutex
	sites map[string]*stats.RNG

	opportunities map[Kind]*obs.Counter
	fires         map[Kind]*obs.Counter
}

// NewInjector returns a disarmed injector whose entire schedule is a
// function of seed. Counters register in reg (nil: private to this
// injector, so repeated runs in one process don't pollute each other's
// coverage counts).
func NewInjector(seed uint64, reg *obs.Registry) *Injector {
	opp := reg.CounterVec("faults_opportunities_total",
		"Fault-injection decision points consulted, by fault kind. A configured kind with zero opportunities is a dead injection point.",
		"kind")
	fir := reg.CounterVec("faults_injected_total",
		"Faults actually injected, by fault kind.",
		"kind")
	in := &Injector{
		seed:          seed,
		sites:         make(map[string]*stats.RNG),
		opportunities: make(map[Kind]*obs.Counter, len(Kinds)),
		fires:         make(map[Kind]*obs.Counter, len(Kinds)),
	}
	for _, k := range Kinds {
		in.opportunities[k] = opp.With(string(k))
		in.fires[k] = fir.With(string(k))
	}
	return in
}

// Seed returns the run seed, for reprinting on violation.
func (in *Injector) Seed() uint64 { return in.seed }

// Arm enables (true) or disables (false) every injection point sharing
// this injector. Disarmed seams pass all operations through untouched and
// record nothing.
func (in *Injector) Arm(on bool) { in.armed.Store(on) }

// site returns the deterministic RNG for an injection site, creating it on
// first use. The site's stream is derived from the run seed and an FNV
// hash of the site name, so it depends on nothing but (seed, name).
func (in *Injector) site(name string) *stats.RNG {
	in.mu.Lock()
	defer in.mu.Unlock()
	rng, ok := in.sites[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		rng = stats.NewRNG(stats.SubSeed(in.seed, h.Sum64()))
		in.sites[name] = rng
	}
	return rng
}

// Hit is the single decision primitive: it reports whether the next
// scheduled event of kind k at the given site fires, with probability p.
// Armed calls with p > 0 count one opportunity; fires are counted too.
// Each call advances the site's schedule by exactly one draw, so the
// decision sequence at a site is reproducible from the seed and the
// per-site call order alone.
func (in *Injector) Hit(site string, k Kind, p float64) bool {
	if p <= 0 || !in.armed.Load() {
		return false
	}
	in.opportunities[k].Inc()
	rng := in.site(site)
	in.mu.Lock()
	hit := rng.Float64() < p
	in.mu.Unlock()
	if hit {
		in.fires[k].Inc()
	}
	return hit
}

// Magnitude draws a deterministic value in [0, n) from the site's
// schedule, for sizing an already-decided fault (how many bytes of a
// short write land, where a crash tears). n <= 1 returns 0.
func (in *Injector) Magnitude(site string, n int) int {
	if n <= 1 {
		return 0
	}
	rng := in.site(site)
	in.mu.Lock()
	v := rng.Intn(n)
	in.mu.Unlock()
	return v
}

// Record counts a harness-driven fault (crash tears, partitions) that is
// decided outside Hit but must still show up in coverage accounting.
func (in *Injector) Record(k Kind) {
	in.opportunities[k].Inc()
	in.fires[k].Inc()
}

// Counts returns the per-kind fire counts, read from the obs counters so
// the numbers the harness asserts on are the numbers operators scrape.
func (in *Injector) Counts() map[Kind]uint64 {
	out := make(map[Kind]uint64, len(Kinds))
	for _, k := range Kinds {
		out[k] = in.fires[k].Value()
	}
	return out
}

// Opportunities returns the per-kind decision-point counts.
func (in *Injector) Opportunities() map[Kind]uint64 {
	out := make(map[Kind]uint64, len(Kinds))
	for _, k := range Kinds {
		out[k] = in.opportunities[k].Value()
	}
	return out
}
