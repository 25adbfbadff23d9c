package shardnode_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
)

// TestRestartWithOtherFlags: a node reopened on its journal directory
// follows the configuration it is given, not the one its journal was
// written under. Owner O boots with an advertised address and a -replicate
// follower F, restarts without either, then with both again. With them,
// O's gate refuses a write for a user the pushed ring gives another node,
// and F's ShipLSN follows O's LastLSN; without them the ring push finds no
// gate, the write is accepted, and F's ShipLSN stays put.
func TestRestartWithOtherFlags(t *testing.T) {
	root := t.TempDir()
	start := func(name, addr string, replicate ...string) (*platform.Journaled, *shardnode.Node) {
		t.Helper()
		jp, err := platform.OpenJournaled(filepath.Join(root, name), journal.Options{NoSync: true}, func() (*platform.Platform, error) {
			return platform.New(platform.Config{Seed: 17}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := shardnode.Config{}
		if len(replicate) > 0 {
			cfg = shardnode.Config{Advertise: ln.Addr().String(), Replicate: replicate, PeerWait: 10 * time.Second}
		}
		sn, err := shardnode.Start(jp, ln, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sn.Kill(); jp.Close() })
		return jp, sn
	}
	follower, fnode := start("f", "127.0.0.1:0")
	shipLSN := func() uint64 {
		st, _ := follower.FollowStatus()
		return st.ShipLSN
	}
	addr := "127.0.0.1:0"
	elsewhere := rpc.RingInfo{Version: 1, Shards: []rpc.ShardInfo{{Addr: "http://elsewhere:1"}}}
	for i, flags := range []bool{true, false, true} {
		var replicate []string
		if flags {
			replicate = []string{fnode.Addr()}
		}
		jp, sn := start("o", addr, replicate...)
		addr = sn.Addr()
		cl := rpc.NewClient("http://"+addr, rpc.Options{MaxRetries: -1})
		owner := cluster.NewRemoteShard(cl)
		_, pushErr := rpc.Do(context.Background(), cl, rpc.OpSetRing, elsewhere)
		before := shipLSN()
		if err := owner.RegisterAdvertiser(fmt.Sprintf("adv-%d", i)); err != nil {
			t.Fatalf("boot %d: RegisterAdvertiser: %v", i, err)
		}
		misrouted := owner.AddUser(profile.New(profile.UserID(fmt.Sprintf("user-%d", i))))
		if flags && (pushErr != nil || !errors.Is(misrouted, rpc.ErrStaleRing) || shipLSN() != jp.LastLSN()) {
			t.Fatalf("boot %d with the flags: ring push %v, misrouted write %v, follower at LSN %d, owner at %d; want the push held, the write refused as stale and the follower at the owner",
				i, pushErr, misrouted, shipLSN(), jp.LastLSN())
		}
		if !flags && (pushErr == nil || misrouted != nil || shipLSN() != before || jp.LastLSN() == before) {
			t.Fatalf("boot %d without them: ring push %v, write %v, follower %d -> %d, owner at %d; want no gate, the write accepted and the follower left behind",
				i, pushErr, misrouted, before, shipLSN(), jp.LastLSN())
		}
		cl.Close()
		sn.Kill()
		if err := jp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// blockingBackend holds every browse until released, so a test can have a
// call in flight when the node dies.
type blockingBackend struct {
	*platform.Platform
	entered chan struct{}
	release chan struct{}
}

func (b blockingBackend) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	b.entered <- struct{}{}
	<-b.release
	return nil, nil
}

// TestKillAndRestartOnAMemNet pins what the in-memory network must do for
// a node the way a host's loopback does for a process: Kill closes every
// open pipe, so a call in flight fails at once instead of waiting out its
// deadline, and it was sent, so the mutation is not retried; after Kill a
// dial is refused as never sent; and the name is free again at once, so
// Restart serves on it with no wait.
func TestKillAndRestartOnAMemNet(t *testing.T) {
	mn := rpc.NewMemNet()
	ln, err := mn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b := blockingBackend{Platform: platform.New(platform.Config{Seed: 5}), entered: make(chan struct{}), release: make(chan struct{})}
	defer close(b.release)
	sn, err := shardnode.Start(b, ln, shardnode.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Kill()
	cl := rpc.NewClient("http://"+sn.Addr(), rpc.Options{Transport: mn.Transport(), CallTimeout: time.Minute, MaxRetries: 2, BackoffBase: time.Millisecond})
	defer cl.Close()
	owner := cluster.NewRemoteShard(cl)

	inflight := make(chan error, 1)
	go func() {
		_, err := owner.BrowseFeedCtx(context.Background(), "u", 1)
		inflight <- err
	}()
	<-b.entered
	sn.Kill()
	var ce *rpc.CallError
	select {
	case err := <-inflight:
		if !errors.As(err, &ce) || ce.Attempts != 1 || !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("browse in flight at Kill: %v, want one attempt failing unavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a call in flight at Kill still hangs after 10s")
	}

	// Only a call that was never sent may be retried as a mutation.
	if err := owner.RegisterAdvertiser("acme"); !errors.As(err, &ce) || ce.Attempts != 3 {
		t.Fatalf("register on a killed node: %v, want 3 attempts of a never-sent call", err)
	}

	// The name is free the moment Kill returns.
	probe, err := mn.Listen(sn.Addr())
	if err != nil {
		t.Fatalf("binding a killed node's name: %v", err)
	}
	probe.Close()
	if err := sn.Restart(b); err != nil {
		t.Fatal(err)
	}
	if err := owner.RegisterAdvertiser("acme"); err != nil {
		t.Fatalf("register after Restart: %v", err)
	}
}

// TestOwnerNodeCountsWhatItShips: journal shipping runs on the owner node,
// so the owner node's own /metrics counts it. An owner with one -replicate
// follower acknowledges three writes; its registry then reads three
// shipped records and no failure, and the follower is at the owner's LSN.
func TestOwnerNodeCountsWhatItShips(t *testing.T) {
	root := t.TempDir()
	mn := rpc.NewMemNet()
	start := func(name string, cfg shardnode.Config) (*platform.Journaled, *shardnode.Node) {
		t.Helper()
		jp, err := platform.OpenJournaled(filepath.Join(root, name), journal.Options{NoSync: true}, func() (*platform.Platform, error) {
			return platform.New(platform.Config{Seed: 19}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := mn.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.RPC.Transport = mn.Transport()
		sn, err := shardnode.Start(jp, ln, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sn.Kill(); jp.Close() })
		return jp, sn
	}
	follower, fnode := start("f", shardnode.Config{})
	reg := obs.NewRegistry()
	owner, onode := start("o", shardnode.Config{RPC: rpc.Options{Registry: reg}, Replicate: []string{fnode.Addr()}, PeerWait: 10 * time.Second})
	cl := rpc.NewClient("http://"+onode.Addr(), rpc.Options{Transport: mn.Transport()})
	defer cl.Close()
	for i := range 3 {
		if err := cluster.NewRemoteShard(cl).RegisterAdvertiser(fmt.Sprintf("adv-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	onode.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"\ncluster_replica_ship_records_total 3\n", "\ncluster_replica_ship_failures_total 0\n"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("owner node's /metrics lacks %q:\n%s", strings.TrimSpace(want), w.Body)
		}
	}
	if st, err := follower.FollowStatus(); err != nil || st.ShipLSN != owner.LastLSN() {
		t.Errorf("follower status %+v (%v), want it at the owner's LSN %d", st, err, owner.LastLSN())
	}
}
