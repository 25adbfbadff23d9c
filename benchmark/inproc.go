package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
	popgen "github.com/treads-project/treads/internal/workload"
)

// stack is a workload's topology assembled inside this process the way
// cmd/adplatformd assembles it across processes (and internal/chaos does
// for its networked mode): gateway → httpapi → cluster → rpc client →
// loopback HTTP → rpc server → journaled platform, with a timing shim at
// every seam. It exists only for attribution; end-to-end numbers come from
// real processes.
type stack struct {
	base     string
	servers  []*http.Server
	journals []*platform.Journaled
	// single is the bare platform on a one-process workload, nil otherwise.
	single *platform.Platform
}

// bootPlatform generates shard i's slice of the population exactly as the
// daemon's bootShard does.
func bootPlatform(seed uint64, i, shards int) (*platform.Platform, error) {
	p := platform.New(platform.Config{Seed: stats.SubSeed(seed, uint64(i))})
	cfg := popgen.DefaultConfig()
	cfg.Users = population
	cfg.Seed = seed
	cfg.Catalog = p.Catalog()
	ring := cluster.NewRing(shards, 0)
	var err error
	popgen.Each(cfg, func(u *profile.Profile) {
		if err != nil || (shards > 1 && ring.Owner(string(u.ID)) != i) {
			return
		}
		err = p.AddUser(u)
	})
	if err != nil {
		return nil, fmt.Errorf("loading population: %w", err)
	}
	return p, nil
}

// serve starts h on a fresh loopback port.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed from close()
	return ln.Addr().String(), nil
}

// bootInProcess assembles w's stack. Journals live under dir.
func bootInProcess(w workload, seed uint64, dir string, rec *recorder, n *counters) (*stack, error) {
	// The program's own tracing stays off, as in the daemons.
	trace.Default.Configure(trace.Options{Service: "benchmark", SampleRate: 0})
	reg := obs.NewRegistry()
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	if !w.Cluster {
		p, err := bootPlatform(seed, 0, 1)
		if err != nil {
			return nil, err
		}
		s.single = p
		api := httpapi.NewServerWithRegistry(platformShim{Platform: p, rec: rec, n: n}, nil, reg)
		addr, err := s.serve(handlerShim{rec: rec, name: "httpapi", next: api})
		if err != nil {
			return nil, err
		}
		s.base, ok = "http://"+addr, true
		return s, nil
	}

	shards := make([]cluster.Shard, shardNodes)
	for i := range shards {
		i := i
		jp, err := platform.OpenJournaled(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), journal.Options{
			BatchWindow: 2 * time.Millisecond,
			FS:          fsShim{FS: faults.OS{}, n: n},
			Metrics:     journal.NewMetrics(reg, fmt.Sprint(i)),
		}, func() (*platform.Platform, error) { return bootPlatform(seed, i, shardNodes) })
		if err != nil {
			return nil, fmt.Errorf("opening in-process shard %d: %w", i, err)
		}
		s.journals = append(s.journals, jp)
		mux := http.NewServeMux()
		mux.Handle(rpc.PathPrefix, handlerShim{rec: rec, name: "rpc.server",
			next: rpc.NewServer(journaledShim{Journaled: jp, rec: rec, n: n}, rpcSecret, reg)})
		addr, err := s.serve(mux)
		if err != nil {
			return nil, err
		}
		cl := rpc.NewClient("http://"+addr, rpc.Options{
			Secret:      rpcSecret,
			CallTimeout: 2 * time.Second,
			Registry:    reg,
			// The pooled transport rpc.NewClient would build itself.
			Transport: transportShim{rec: rec, n: n, base: &http.Transport{
				MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}},
		})
		shards[i] = shardShim{RemoteShard: cluster.NewRemoteShard(cl), rec: rec, n: n}
	}
	clu, err := cluster.New(shards, cluster.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	keys, err := gateway.ParseKeyFile([]byte(keyFile), time.Now())
	if err != nil {
		return nil, err
	}
	api := httpapi.NewServerWithRegistry(clusterShim{Cluster: clu, rec: rec}, nil, reg)
	gw, err := gateway.New(handlerShim{rec: rec, name: "httpapi", next: api}, gateway.Config{Keys: keys, Inflight: 256, Registry: reg})
	if err != nil {
		return nil, err
	}
	addr, err := s.serve(handlerShim{rec: rec, name: "gateway", next: gw})
	if err != nil {
		return nil, err
	}
	s.base, ok = "http://"+addr, true
	return s, nil
}

func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx) // idle keep-alive connections only; nothing to lose
	}
	for _, jp := range s.journals {
		_ = jp.Close() // the journal directory is deleted next
	}
}
