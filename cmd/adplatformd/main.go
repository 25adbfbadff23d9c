// Command adplatformd runs the simulated advertising platform as an HTTP
// server: the advertiser REST API, the user feed API, the transparency
// pages, and the tracking-pixel endpoint.
//
//	adplatformd [-addr :8080] [-users 1000] [-seed 1] [-review] [-auth]
//	            [-shards N]
//	            [-load state.json] [-save state.json]
//	            [-journal dir] [-compact-every 5m]
//	            [-debug-addr :6060]
//	adplatformd -shard-serve -shard-index I -shard-count N
//	            [-rpc-secret S] [-journal dir]
//	            [-advertise host:port] [-replicate host:port,...] ...
//	adplatformd -peers host:port[/replica:port...],... [-rpc-secret S]
//	            [-rpc-timeout 2s] [-peer-wait 30s] ...
//
// The flags put the process in one of four modes, each booted the same
// way — open the shards it holds, serve the only one bare or a cluster
// over them, build the mode's front end: single (the default) holds one
// shard; shards (-shards N) holds N, each behind the shard wire on an
// in-memory network, under the cluster coordinator; node
// (-shard-serve) holds shard I of N and serves the internal RPC surface
// (/rpc/v1/...) instead of the public API; router (-peers) holds none and
// serves the public API over a fleet of nodes.
//
// Without -load, the platform starts pre-populated with a deterministic
// synthetic population (user IDs user-000000 .. user-NNNNNN) so Treads
// flows can be driven immediately with curl or the client SDK:
//
//	curl -X POST localhost:8080/api/v1/advertisers -d '{"name":"tp"}'
//	curl "localhost:8080/api/v1/attributes?q=net+worth"
//	curl "localhost:8080/pixel/px-000001?uid=user-000000"
//
// Sharding partitions the population by consistent hashing on the user
// ID; user requests route to the owning shard, advertiser mutations
// replicate to every shard, and aggregate reads merge exact per-shard
// totals before privacy thresholds apply. The HTTP API is identical —
// sharding is invisible on the wire. Nodes and a router split one logical
// cluster across processes (or machines); give each node its own -journal
// directory. A router connects one RPC client per shard node
// (retries, deadlines, circuit breaking), and serves the
// identical public HTTP API over the remote cluster. Both sides
// authenticate shard RPCs with -rpc-secret (or the ADPLATFORM_RPC_SECRET
// environment variable), compared in constant time. The router gates
// startup on every shard node reporting healthy within -peer-wait.
//
// Cluster membership is dynamic. -peers names the router's seed nodes: a
// fleet that holds no ring yet gets it as ring version 1, and a router
// restarted after the fleet changed adopts the fleet's newer ring at boot,
// before it serves. At runtime the router grows, shrinks, and fails over
// the fleet through the admin cluster endpoints (GET /admin/v1/cluster,
// POST/DELETE /admin/v1/cluster/shards, POST /admin/v1/cluster/promote,
// POST /admin/v1/cluster/resume) — a live reshard streams the affected users
// to the new node under a short write fence, then pushes the bumped ring
// version to every node. A slot group in -peers may name replicas after
// the owner (owner/replica/...); reads fail over to a replica when the
// owner is down, and promotion makes a replica the owner. On the shard
// side, -advertise names the address this node appears as in ring pushes
// and arms its membership gate (stale routers get a typed refusal and
// refresh), and -replicate makes a journaled owner ship every
// acknowledged operation to its follower nodes before the ack.
//
// With -journal, every mutating operation is written to a write-ahead
// journal before it is acknowledged, so a crash or kill -9 loses nothing:
// the next run with the same -journal recovers the newest snapshot and
// deterministically replays the journal suffix (-load/-users/-seed only
// shape the very first boot of the directory). -shards N keeps one journal
// per shard under <dir>/shard-NNN/ (NNN the three-digit shard index), each
// recovered independently at boot. The journal is compacted in the
// background every -compact-every, and on demand via POST /admin/v1/compact.
//
// Metrics are always exported: GET /metrics on the API address serves
// every registered metric family (request latency, per-shard routing,
// journal fsync timing, delivery throughput) in Prometheus text format —
// aggregates only, never per-user data. With -debug-addr, a second
// listener additionally serves net/http/pprof under /debug/pprof/ plus a
// copy of /metrics; keep that address private, pprof exposes heap and
// goroutine internals.
//
// In single mode, -save writes the full platform state (accounts,
// audiences, campaigns, feeds, billing) as JSON on SIGINT/SIGTERM —
// atomically, via a temp file and rename; a later run with -load resumes
// from it. Shutdown is graceful either way: in-flight requests drain before
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
	"github.com/treads-project/treads/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adplatformd:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	Addr         string
	Users        int
	Skew         float64
	Seed         uint64
	Shards       int
	Review       bool
	BanAfter     int
	Auth         bool
	Load         string
	Save         string
	JournalDir   string
	CompactEvery time.Duration
	DebugAddr    string

	// Edge-gateway mode.
	Gateway         bool
	Keys            string
	GatewayInflight int
	GatewaySLO      time.Duration
	UsageJournal    string

	// Networked-cluster modes.
	ShardServe bool
	ShardIndex int
	ShardCount int
	Advertise  string
	Replicate  string
	Peers      string
	RPCSecret  string
	RPCTimeout time.Duration
	PeerWait   time.Duration

	// Automatic failover (router mode).
	FailoverDetect time.Duration

	// Distributed tracing.
	TraceSample float64
	TraceRing   int
	TraceSlow   time.Duration
}

// parseFlags registers the flag set on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.Users, "users", 1000, "synthetic population size (ignored with -load)")
	fs.Float64Var(&o.Skew, "skew", 0, "Zipf exponent for attribute-coverage skew (0 = legacy generator; ~1.1 for realistic million-user populations)")
	fs.Uint64Var(&o.Seed, "seed", 1, "deterministic seed")
	fs.IntVar(&o.Shards, "shards", 1, "number of platform shards (consistent-hash partitioned by user)")
	fs.BoolVar(&o.Review, "review", false, "enable ToS ad review")
	fs.IntVar(&o.BanAfter, "ban-after", 0, "ban advertisers after N rejected ads (0 = never)")
	fs.BoolVar(&o.Auth, "auth", false, "require per-advertiser API tokens (issued at registration)")
	fs.StringVar(&o.Load, "load", "", "restore platform state from this JSON snapshot")
	fs.StringVar(&o.Save, "save", "", "write platform state to this JSON snapshot on shutdown")
	fs.StringVar(&o.JournalDir, "journal", "", "write-ahead journal directory; enables crash recovery")
	fs.Duration("batch-window", 0, "deprecated, ignored: a journal flush fsyncs as soon as it starts, and writes arriving during an fsync share the next one")
	fs.DurationVar(&o.CompactEvery, "compact-every", 5*time.Minute, "background journal compaction interval (0 = never)")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "private listen address for pprof and /metrics (empty = disabled)")
	fs.BoolVar(&o.Gateway, "gateway", false, "run the multi-tenant edge gateway in front of the public API (requires -keys)")
	fs.StringVar(&o.Keys, "keys", "", "tenant key file (JSON) for the edge gateway")
	fs.IntVar(&o.GatewayInflight, "gateway-inflight", 256, "total admitted-request budget for gateway load shedding")
	fs.DurationVar(&o.GatewaySLO, "gateway-slo", 0, "backend latency SLO driving the gateway's adaptive inflight budget (0 = fixed budget)")
	fs.StringVar(&o.UsageJournal, "usage-journal", "", "usage-ledger journal directory (defaults to the usage subdirectory of -journal)")
	fs.BoolVar(&o.ShardServe, "shard-serve", false, "serve the internal shard RPC surface instead of the public HTTP API")
	fs.IntVar(&o.ShardIndex, "shard-index", 0, "this node's shard index (with -shard-serve)")
	fs.IntVar(&o.ShardCount, "shard-count", 1, "total shard nodes in the cluster (with -shard-serve)")
	fs.StringVar(&o.Advertise, "advertise", "", "address this shard node is advertised as in ring pushes; arms its membership gate (with -shard-serve)")
	fs.StringVar(&o.Replicate, "replicate", "", "comma-separated follower node addresses this owner ships its journal to (with -shard-serve -journal)")
	fs.StringVar(&o.Peers, "peers", "", "comma-separated shard-node groups, owner[/replica...] per slot; a router's seed nodes and its ring when the fleet holds none, while a fleet's newer ring is adopted at boot — change membership at runtime via the admin cluster endpoints")
	fs.StringVar(&o.RPCSecret, "rpc-secret", "", "shared shard-RPC secret (falls back to ADPLATFORM_RPC_SECRET)")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", 2*time.Second, "per-attempt deadline for shard RPCs, health probes included (router and shard node)")
	fs.DurationVar(&o.PeerWait, "peer-wait", 30*time.Second, "how long to wait for dialed shard nodes to report healthy: a router's fleet at startup and each admin join, a shard node's -replicate followers (0 = one probe round)")
	fs.DurationVar(&o.FailoverDetect, "failover-detect", 0, "probe interval for automatic failure detection and replica promotion, router mode (0 = manual failover only)")
	fs.Float64Var(&o.TraceSample, "trace-sample", 0.01, "request trace head-sampling probability in [0,1] (0 records only forced error/slow spans)")
	fs.IntVar(&o.TraceRing, "trace-ring", 4096, "completed-span ring capacity per process")
	fs.DurationVar(&o.TraceSlow, "trace-slow", 500*time.Millisecond, "latency above which an unsampled request records a forced span (negative disables)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if o.RPCSecret == "" {
		o.RPCSecret = os.Getenv("ADPLATFORM_RPC_SECRET")
	}
	return o, nil
}

// mode is the part a process plays in a deployment.
type mode int

const (
	modeSingle mode = iota // one in-process shard, served bare
	modeShards             // -shards N: a cluster over N shards served in process
	modeNode               // -shard-serve: one shard behind the RPC surface
	modeRouter             // -peers: a cluster over remote shard nodes
)

func (m mode) String() string { return [...]string{"single", "shards", "node", "router"}[m] }

// mode works out the process's mode from -shard-serve, -peers and -shards;
// nothing else does. validate refuses the flag combinations this settles
// by precedence.
func (o options) mode() mode {
	switch {
	case o.ShardServe:
		return modeNode
	case o.Peers != "":
		return modeRouter
	case o.Shards > 1:
		return modeShards
	}
	return modeSingle
}

// validate rejects flag combinations the server cannot honor, with errors
// that name the flag and the rule.
func (o options) validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", o.Shards)
	}
	if o.Users < 0 {
		return fmt.Errorf("-users must not be negative, got %d", o.Users)
	}
	if o.BanAfter < 0 {
		return fmt.Errorf("-ban-after must not be negative, got %d", o.BanAfter)
	}
	if o.CompactEvery < 0 {
		return fmt.Errorf("-compact-every must not be negative, got %v (0 disables background compaction)", o.CompactEvery)
	}
	if o.DebugAddr != "" && o.DebugAddr == o.Addr {
		return fmt.Errorf("-debug-addr must differ from -addr; pprof belongs on a private listener")
	}
	if o.Gateway && o.Keys == "" {
		return fmt.Errorf("-gateway requires -keys: the edge cannot admit tenants without a key file")
	}
	if o.Keys != "" && !o.Gateway {
		return fmt.Errorf("-keys only applies with -gateway")
	}
	if o.UsageJournal != "" && !o.Gateway {
		return fmt.Errorf("-usage-journal only applies with -gateway")
	}
	if o.Gateway && o.GatewayInflight < 1 {
		return fmt.Errorf("-gateway-inflight must be positive, got %d", o.GatewayInflight)
	}
	if o.GatewaySLO < 0 {
		return fmt.Errorf("-gateway-slo must not be negative, got %v (0 keeps the fixed budget)", o.GatewaySLO)
	}
	if o.GatewaySLO > 0 && !o.Gateway {
		return fmt.Errorf("-gateway-slo only applies with -gateway")
	}
	if o.FailoverDetect < 0 {
		return fmt.Errorf("-failover-detect must not be negative, got %v (0 disables automatic failover)", o.FailoverDetect)
	}
	// Written so that NaN, which every comparison rejects, fails too.
	if !(o.TraceSample >= 0 && o.TraceSample <= 1) {
		return fmt.Errorf("-trace-sample must be in [0,1], got %v", o.TraceSample)
	}
	if !(o.Skew >= 0) {
		return fmt.Errorf("-skew must not be negative, got %v (0 selects the legacy generator)", o.Skew)
	}
	if o.TraceRing < 1 {
		return fmt.Errorf("-trace-ring must be positive, got %d", o.TraceRing)
	}

	// Where each flag that changes what a process does applies: the
	// "applies to" column of docs/OPERATIONS.md's flags table.
	m := o.mode()
	public := []mode{modeSingle, modeShards, modeRouter}
	for _, r := range []struct {
		set   bool
		flag  string
		modes []mode
		why   string
	}{
		{o.Peers != "", "-peers", []mode{modeRouter}, "a node either holds a shard or routes to them"},
		{o.Shards != 1, "-shards", []mode{modeShards}, "a shard node is one shard of -shard-count, a router's slots are its -peers"},
		{o.Load != "" || o.Save != "", "-load/-save", []mode{modeSingle}, "a snapshot is the whole population of one shard; use -journal for persistence"},
		{o.JournalDir != "", "-journal", []mode{modeSingle, modeShards, modeNode}, "a router's state lives on the shard nodes"},
		{o.Auth, "-auth", public, "shard nodes authenticate with -rpc-secret"},
		{o.Gateway, "-gateway", public, "shard nodes serve only the internal RPC surface"},
		{o.Advertise != "", "-advertise", []mode{modeNode}, "it names the address a shard node appears as in ring pushes"},
		{o.Replicate != "", "-replicate", []mode{modeNode}, "journal shipping runs on the shard owner node"},
		{o.FailoverDetect > 0, "-failover-detect", []mode{modeRouter}, "the router runs the failure detector"},
	} {
		if r.set && !slices.Contains(r.modes, m) {
			return fmt.Errorf("%s only applies in %v mode, not %s: %s", r.flag, r.modes, m, r.why)
		}
	}
	if m == modeNode {
		if o.ShardCount < 1 {
			return fmt.Errorf("-shard-count must be at least 1, got %d", o.ShardCount)
		}
		if o.ShardIndex < 0 || o.ShardIndex >= o.ShardCount {
			return fmt.Errorf("-shard-index must be in [0, %d), got %d", o.ShardCount, o.ShardIndex)
		}
		if o.Replicate != "" && o.JournalDir == "" {
			return fmt.Errorf("-replicate requires -journal: followers replay the owner's journal records")
		}
	}
	// Shard nodes and routers both dial shard nodes.
	if m == modeNode || m == modeRouter {
		if o.RPCTimeout <= 0 {
			return fmt.Errorf("-rpc-timeout must be positive, got %v", o.RPCTimeout)
		}
		if o.PeerWait < 0 {
			return fmt.Errorf("-peer-wait must not be negative, got %v", o.PeerWait)
		}
	}
	return nil
}

func run() error {
	opts, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}
	if err := opts.validate(); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "adplatformd: ", log.LstdFlags)
	configureTracing(opts)
	n, err := boot(opts, logger)
	if err != nil {
		return err
	}
	handler, stop, err := front(opts, n, logger)
	defer stop()
	if err != nil {
		return err
	}
	return n.serve(opts, logger, handler)
}

// node is a booted process: the shards it holds, the backend its front end
// serves, and the handles the daemon needs beside them; a nil field is one
// the mode does not have.
type node struct {
	members   held            // the shards held here, in slot order; none on a router
	backend   httpapi.Backend // the one member bare, else the cluster
	compactor httpapi.Compactor
	admin     *membershipAdmin // the router, the one mode with dynamic membership
}

// held is the shards a process opened. It compacts their journals one at a
// time, so the others keep serving, and reports the least snapshot LSN.
type held []*platform.Platform

func (h held) Compact() (least uint64, err error) {
	for i, p := range h {
		lsn, err := p.Compact()
		if err != nil {
			return 0, fmt.Errorf("compacting shard %d: %w", i, err)
		}
		if i == 0 || lsn < least {
			least = lsn
		}
	}
	return least, nil
}

// boot opens the shards the process holds — slot -shard-index of
// -shard-count on a shard node, slots 0…N-1 of -shards N otherwise, none on
// a router — and the backend over them: the only member bare (so single
// mode never crosses the cluster coordinator), a cluster over several, and
// on a router a cluster over the -peers fleet.
func boot(opts options, logger *log.Logger) (node, error) {
	m := opts.mode()
	var n node
	first, count, ring := 0, opts.Shards, opts.Shards
	switch m {
	case modeNode:
		first, count, ring = opts.ShardIndex, 1, opts.ShardCount
	case modeRouter:
		admin, err := openRouter(opts, logger)
		if err != nil {
			return node{}, err
		}
		n.backend, n.admin = admin.clu, admin
		count, ring = 0, admin.clu.Shards()
	}
	for i := first; i < first+count; i++ {
		dir := opts.JournalDir
		if dir != "" && count > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		}
		mb, err := openMember(opts, i, ring, dir, logger)
		if err != nil {
			return node{}, err
		}
		n.members = append(n.members, mb)
	}
	if len(n.members) > 0 {
		// What was live at the boot's last collection sets the heap goal the
		// first cycle under load runs to: the state the node serves, plus
		// whatever the generator, the index build or the boot snapshot's
		// frame still held when that collection ran, which varies from one
		// boot to the next. One collection here sets the goal from the
		// state alone (10 MB on slot 0 of 2 at 12 000 users).
		runtime.GC()
	}
	switch {
	case len(n.members) == 1:
		n.backend = n.members[0]
	case len(n.members) > 1:
		c, err := cluster.NewServed(n.members, cluster.Options{Registry: obs.Default})
		if err != nil {
			return node{}, err
		}
		n.backend = c
	}
	if opts.JournalDir != "" { // journaled members, compacted where they are held
		n.compactor = n.members
	}
	users := 0
	for _, mb := range n.members {
		users += len(mb.Users())
	}
	logger.Printf("%s ready: %d of %d slots and %d users held here (journal=%v review=%v auth=%v rpc-secret=%v)",
		m, len(n.members), ring, users, opts.JournalDir != "", opts.Review, opts.Auth, opts.RPCSecret != "")
	return n, nil
}

// front builds what the node serves on -addr — the shard RPC surface on a
// shard node, the public API everywhere else — and returns stop, never
// nil, which releases what front started once serve has returned.
func front(opts options, n node, logger *log.Logger) (http.Handler, func(), error) {
	if opts.mode() == modeNode {
		if opts.RPCSecret == "" {
			logger.Printf("warning: no -rpc-secret (or ADPLATFORM_RPC_SECRET); shard RPC surface is UNAUTHENTICATED")
		}
		// validate() ties -replicate to -journal.
		replicate := slices.Concat(parsePeerGroups(opts.Replicate)...)
		if opts.Replicate != "" && len(replicate) == 0 {
			return nil, func() {}, fmt.Errorf("arming replication: -replicate is empty after parsing %q", opts.Replicate)
		}
		sn, err := shardnode.New(n.members[0], shardnode.Config{
			RPC:       rpcOptions(opts),
			Advertise: opts.Advertise,
			Replicate: replicate,
			PeerWait:  opts.PeerWait,
			Logger:    logger,
		})
		if err != nil {
			return nil, func() {}, err
		}
		return sn.Handler(), func() {}, nil
	}

	// The server gets no request logger: a line per request is a write
	// syscall on the hot path and puts user IDs (they are in the paths) in
	// the log; /metrics and /admin/v1/trace say what was served.
	var handler *httpapi.Server
	var auth *httpapi.Authenticator
	if opts.Auth {
		handler, auth = httpapi.NewServerWithAuth(n.backend, nil)
		// The admin token guards operator endpoints (journal
		// compaction). Logged once at startup; rotate by restarting.
		adminTok, err := auth.Issue(httpapi.AdminAccount)
		if err != nil {
			return nil, func() {}, fmt.Errorf("issuing admin token: %w", err)
		}
		logger.Printf("admin token: %s", adminTok)
	} else {
		handler = httpapi.NewServer(n.backend, nil)
	}
	handler.SetCompactor(n.compactor)
	stop := func() {}
	if n.admin != nil {
		handler.SetClusterAdmin(n.admin)
		// With -failover-detect the router probes every slot owner and,
		// on a sustained failure, promotes the best follower on its own —
		// the self-healing loop; without it failover stays an explicit
		// admin call.
		if opts.FailoverDetect > 0 {
			stop = startFailoverSupervisor(n.admin, opts, logger).Close
		}
		// A router stitches every shard node's span ring into its trace
		// dump; shards held in this process record into its own ring.
		handler.SetTraceFetcher(n.admin.clu)
	}

	// With -gateway, the edge wraps the public API: tenant keys, rate
	// limits, usage metering, and priority load shedding all happen before
	// a request reaches the handler above.
	edge, err := buildGateway(opts, auth, handler, logger)
	if err != nil || edge == nil {
		return handler, stop, err
	}
	return edge, func() {
		// Flush and snapshot the usage ledger on the way out so billing
		// survives restart exactly.
		if err := edge.Close(); err != nil {
			logger.Printf("closing gateway: %v", err)
		}
		stop()
	}, nil
}

// buildGateway constructs the edge gateway when -gateway is set, nil
// otherwise. With -auth, the gateway's own admin endpoints
// (/admin/v1/usage, /admin/v1/traffic) demand the admin bearer token —
// the same credential that guards journal compaction. The usage ledger
// defaults to a sibling of the platform journal so one -journal flag
// makes the whole daemon durable.
func buildGateway(opts options, auth *httpapi.Authenticator, inner http.Handler, logger *log.Logger) (*gateway.Gateway, error) {
	if !opts.Gateway {
		return nil, nil
	}
	ks, err := gateway.LoadKeyFile(opts.Keys, time.Now())
	if err != nil {
		return nil, err
	}
	usageDir := opts.UsageJournal
	if usageDir == "" && opts.JournalDir != "" {
		usageDir = filepath.Join(opts.JournalDir, "usage")
	}
	var authorize func(*http.Request) bool
	if auth != nil {
		authorize = func(r *http.Request) bool {
			return auth.Verify(httpapi.AdminAccount, httpapi.BearerToken(r))
		}
	}
	g, err := gateway.New(inner, gateway.Config{
		Keys:      ks,
		Inflight:  opts.GatewayInflight,
		SLO:       opts.GatewaySLO,
		UsageDir:  usageDir,
		Authorize: authorize,
		KeysPath:  opts.Keys,
	})
	if err != nil {
		return nil, err
	}
	budget := fmt.Sprintf("fixed inflight budget %d", opts.GatewayInflight)
	if opts.GatewaySLO > 0 {
		budget = fmt.Sprintf("adaptive inflight budget ≤%d (SLO %v)", opts.GatewayInflight, opts.GatewaySLO)
	}
	ledger := usageDir
	if ledger == "" {
		ledger = "(in-memory)"
	}
	logger.Printf("edge gateway: %d tenants, %s, usage ledger %s", len(ks.Tenants()), budget, ledger)
	return g, nil
}

// configureTracing applies the trace flags to the process tracer, naming
// the service after the mode. The sampler stream is seeded off the
// deterministic platform seed (its own sub-stream, so sampling never
// perturbs population generation), making trace decisions replayable for a
// given seed and request order.
func configureTracing(opts options) {
	service := "single"
	switch opts.mode() {
	case modeNode:
		service = fmt.Sprintf("shard-%d", opts.ShardIndex)
	case modeRouter:
		service = "router"
	}
	trace.Default.Configure(trace.Options{
		Service:       service,
		SampleRate:    opts.TraceSample,
		RingSize:      opts.TraceRing,
		SlowThreshold: opts.TraceSlow,
		Seed:          stats.SubSeed(opts.Seed, 0x7ace),
	})
}

// serve runs the handler on opts.Addr (plus the optional private debug
// listener and the background compaction ticker) until SIGINT/SIGTERM, then
// shuts the node down in the one order every mode shares: drain in-flight
// requests, final compaction, the -save snapshot, close the backend.
func (n node) serve(opts options, logger *log.Logger, handler http.Handler) error {
	srv := &http.Server{
		Addr:    opts.Addr,
		Handler: handler,
	}

	// The optional debug listener: pprof plus a /metrics copy, on its own
	// mux so nothing here ever reaches the public API address.
	var debugSrv *http.Server
	if opts.DebugAddr != "" {
		debugSrv = &http.Server{Addr: opts.DebugAddr, Handler: debugMux()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("debug server: %v", err)
			}
		}()
		logger.Printf("debug server (pprof, /metrics) on %s", opts.DebugAddr)
	}

	// Background journal compaction keeps recovery time bounded.
	stopCompact := make(chan struct{})
	if n.compactor != nil && opts.CompactEvery > 0 {
		go func() {
			t := time.NewTicker(opts.CompactEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if lsn, err := n.compactor.Compact(); err != nil {
						logger.Printf("background compaction: %v", err)
					} else {
						logger.Printf("compacted journal through LSN %d", lsn)
					}
				case <-stopCompact:
					return
				}
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// persist (final compaction with -journal) before returning.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("listening on %s", opts.Addr)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Printf("received %v, shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("draining requests: %v", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			logger.Printf("stopping debug server: %v", err)
		}
	}
	close(stopCompact)

	if n.compactor != nil {
		if lsn, err := n.compactor.Compact(); err != nil {
			logger.Printf("final compaction: %v", err)
		} else {
			logger.Printf("final snapshot through LSN %d", lsn)
		}
	}
	if opts.Save != "" {
		if err := n.save(opts.Save); err != nil {
			return fmt.Errorf("saving state: %w", err)
		}
		logger.Printf("saved state to %s", opts.Save)
	}
	if c, ok := n.backend.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return fmt.Errorf("closing backend: %w", err)
		}
	}
	return nil
}

// save writes the -save snapshot. validate() restricts -save to single
// mode, so the node holds exactly one member; its state records the
// delivery RNG's current state, so a -load resumes the auctions where this
// run left them instead of replaying a stream it already drew.
func (n node) save(path string) error {
	return saveAtomic(path, n.members[0].State())
}

// openRouter dials the -peers fleet: one RPC client per shard node,
// wrapped as RemoteShards (one ReplicaSet per slot, followers included)
// under the same cluster coordinator -shards N uses.
// Startup gates on every peer reporting healthy so the router never serves
// over a half-up fleet. The nodes themselves are the membership source for
// stale-ring recovery, and they are asked first: a router restarted after
// the fleet was resharded adopts the fleet's newer ring before it serves —
// serving on the -peers ring would send replicated mutations to a subset of
// the slot owners and fork their advertiser state. Only a fleet holding no
// newer ring gets the -peers ring pushed as version 1. The returned admin
// holds the cluster and is the dynamic-membership surface behind the admin
// cluster endpoints.
func openRouter(opts options, logger *log.Logger) (*membershipAdmin, error) {
	groups := parsePeerGroups(opts.Peers)
	if len(groups) == 0 {
		return nil, fmt.Errorf("-peers is empty after parsing %q", opts.Peers)
	}
	dialer := shardnode.NewDialer(rpcOptions(opts))
	shards := make([]*cluster.ReplicaSet, len(groups))
	var remotes []*cluster.RemoteShard
	seeds := make([]*rpc.Client, len(groups))
	for i, g := range groups {
		s, members := dialer.Shard(g[0], g[1:])
		shards[i] = s
		remotes = append(remotes, members...)
		seeds[i] = members[0].Client()
	}
	if err := shardnode.WaitForPeers(remotes, opts.PeerWait, logger); err != nil {
		return nil, err
	}
	c, err := cluster.NewFromSets(shards, cluster.Options{Registry: obs.Default})
	if err != nil {
		return nil, err
	}
	c.SetMembershipSource(&cluster.RemoteMembershipSource{
		Seeds:   seeds,
		Dial:    dialer.DialInfo,
		Timeout: opts.RPCTimeout,
	})
	admin := &membershipAdmin{clu: c, dial: dialer, wait: opts.PeerWait, logger: logger}
	// A fleet with no membership gates answers no ring query; it gets the
	// -peers ring like a fresh one.
	if err := c.RefreshMembership(); err != nil {
		logger.Printf("asking the fleet for its ring: %v", err)
	}
	if v := c.Version(); v > 1 {
		logger.Printf("adopted the fleet's ring v%d (%d slots) over the -peers ring", v, c.Shards())
		return admin, nil
	}
	// Seed every node's gate with the boot ring, best-effort: a node that
	// misses the push (or runs without -advertise) refuses nothing extra —
	// it just cannot reject misrouted users until a later push lands.
	info := c.RingInfo()
	ctx, cancel := context.WithTimeout(context.Background(), opts.RPCTimeout)
	defer cancel()
	for _, r := range remotes {
		if err := r.PushRing(ctx, info); err != nil {
			logger.Printf("seeding ring v%d on %s: %v", info.Version, r.Addr(), err)
		}
	}
	return admin, nil
}

// rpcOptions are the shard-RPC client options the dialer flags carry, on
// the process's registry.
func rpcOptions(opts options) rpc.Options {
	return rpc.Options{
		Secret:      opts.RPCSecret,
		CallTimeout: opts.RPCTimeout,
		Registry:    obs.Default,
	}
}

// openMember boots slot i of a ring-slot partition of the population. With
// dir empty it is a plain in-memory platform. With dir set it is journaled
// there — booted and snapshotted on the directory's first open, recovered
// afterwards, the journal instrumented under the shard's label. Either way
// the open's wall time is logged and exported as
// startup_recovery_seconds{shard}.
func openMember(opts options, i, ring int, dir string, logger *log.Logger) (*platform.Platform, error) {
	boot := bootShard(opts, i, ring, logger)
	shard := fmt.Sprintf("%d", i)
	start := time.Now()
	var p *platform.Platform
	var err error
	booted := false // OpenJournaled calls boot only on a fresh directory
	if dir == "" {
		if p, err = boot(); err != nil {
			return nil, fmt.Errorf("booting shard %d: %w", i, err)
		}
	} else {
		p, err = platform.OpenJournaled(dir, journal.Options{
			Metrics: journal.NewMetrics(obs.Default, shard),
		}, func() (*platform.Platform, error) {
			booted = true
			return boot()
		})
		if err != nil {
			return nil, fmt.Errorf("opening journal for shard %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	obs.Default.GaugeVec("startup_recovery_seconds",
		"Wall time each shard spent coming up at boot: without a journal, booting the population; on a fresh journal directory, booting the population and writing the boot snapshot; on a reopen, snapshot load plus deterministic replay of the journal suffix.",
		"shard").With(shard).Set(elapsed.Seconds())
	switch {
	case dir == "":
		logger.Printf("shard %d booted %d users in %v", i, len(p.Users()), elapsed.Round(time.Millisecond))
	case booted:
		logger.Printf("shard %d booted %d users and wrote the boot snapshot to %s in %v", i, len(p.Users()), dir, elapsed.Round(time.Millisecond))
	default:
		logger.Printf("shard %d journal open in %s (recovered through LSN %d in %v)", i, dir, p.LastLSN(), elapsed.Round(time.Millisecond))
	}
	return p, nil
}

// debugMux builds the private debug handler: net/http/pprof under
// /debug/pprof/ and the default metrics registry at /metrics. Deliberately
// its own mux — registering pprof on http.DefaultServeMux would expose it
// to anything else that serves the default mux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", obs.Default.Handler())
	return mux
}

// bootShard returns the boot function for slot i of a ring-slot partition:
// restore from -load (single mode only), or generate the deterministic
// synthetic population and keep the users the consistent-hash ring assigns
// slot i. Every slot runs the same generator with the same seed, so the
// union over slots is exactly the one-slot population. With -journal this
// runs only on the directory's first open; afterwards the journal itself is
// the source of truth.
func bootShard(opts options, i, ring int, logger *log.Logger) func() (*platform.Platform, error) {
	return func() (*platform.Platform, error) {
		if opts.Load != "" {
			f, err := os.Open(opts.Load)
			if err != nil {
				return nil, fmt.Errorf("reading snapshot: %w", err)
			}
			state, err := platform.ReadSnapshot(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("parsing snapshot: %w", err)
			}
			p, err := platform.Restore(state)
			if err != nil {
				return nil, fmt.Errorf("restoring snapshot: %w", err)
			}
			logger.Printf("restored %d users from %s", len(p.Users()), opts.Load)
			return p, nil
		}
		cfg := workload.DefaultConfig()
		cfg.Users = opts.Users
		cfg.Seed = opts.Seed
		cfg.Skew = opts.Skew
		// Every slot draws the whole population but builds only its own
		// users.
		var keep func(profile.UserID) bool
		if ring > 1 {
			owners := cluster.NewRing(ring, 0)
			keep = func(u profile.UserID) bool { return owners.Owner(string(u)) == i }
		}
		// The store and the index are sized for the users the slot keeps.
		p := platform.New(platform.Config{
			Seed:      stats.SubSeed(opts.Seed, uint64(i)),
			ReviewAds: opts.Review,
			BanAfter:  opts.BanAfter,
			Users:     workload.KeptUsers(cfg, keep),
		})
		cfg.Catalog = p.Catalog()
		var err error
		workload.EachKept(cfg, keep, func(u *profile.Profile) {
			if err == nil {
				err = p.AddUser(u)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("loading population: %w", err)
		}
		return p, nil
	}
}

// saveAtomic writes the snapshot through a temp file and rename so a crash
// mid-write can never leave a truncated snapshot at the target path.
func saveAtomic(path string, state platform.State) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := platform.WriteSnapshot(tmp, state); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
