package cluster_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
)

// frailShard is the router's handle on one shard node: the RemoteShard it
// drives, the node's platform for the test to inspect, and a kill switch
// standing for a failure detector's verdict on an owner process that
// stopped answering without losing its disk.
type frailShard struct {
	*cluster.RemoteShard
	Journaled *platform.Journaled
	down      atomic.Bool
}

func (f *frailShard) Healthy() bool { return !f.down.Load() && f.RemoteShard.Healthy() }

// Probe fails while the kill switch is set, as a probe of a process that
// stopped answering would.
func (f *frailShard) Probe(ctx context.Context) error {
	if f.down.Load() {
		return cluster.ErrShardUnavailable
	}
	return f.RemoteShard.Probe(ctx)
}

// LastLSN is the node's own last journaled LSN, read in process.
func (f *frailShard) LastLSN() uint64 { return f.Journaled.LastLSN() }

// memNodes serves each platform as a shard node — the assembly adplatformd
// -shard-serve runs, rearm handler included — on one in-memory network, so
// an owner among them can ship to the others, and returns the router's
// handle on each. Nodes and clients stop at cleanup.
func memNodes(t testing.TB, jps ...*platform.Journaled) []*frailShard {
	t.Helper()
	mn := rpc.NewMemNet()
	opts := rpc.Options{Transport: mn.Transport()}
	out := make([]*frailShard, len(jps))
	for i, jp := range jps {
		ln, err := mn.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		sn, err := shardnode.Start(jp, ln, shardnode.Config{RPC: opts})
		if err != nil {
			t.Fatal(err)
		}
		cl := rpc.NewClient("http://"+sn.Addr(), opts)
		t.Cleanup(func() {
			cl.Close()
			sn.Kill()
		})
		out[i] = &frailShard{RemoteShard: cluster.NewRemoteShard(cl), Journaled: jp}
	}
	return out
}

// noJournal reports whether err is a journal-less member's refusal:
// platform.ErrNoJournal in process, its 422 over the wire.
func noJournal(err error) bool {
	var re *rpc.RemoteError
	return errors.Is(err, platform.ErrNoJournal) || errors.As(err, &re) && re.Msg == platform.ErrNoJournal.Error()
}

// TestInMemoryClusterCloseLeavesNoGoroutine: an in-memory cluster runs a
// shard server per member and pooled client connections to each. Close
// must stop all of them, so the goroutine count returns to where it was.
func TestInMemoryClusterCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := cluster.NewInMemory(3, platform.Config{Seed: 3}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, camp := populateElastic(t, c, 12)
	if _, err := c.Report(context.Background(), "mover", camp); err != nil {
		t.Fatal(err)
	}
	if c.User(users[0]) == nil {
		t.Fatal("user lost")
	}
	if running := runtime.NumGoroutine(); running <= base {
		t.Fatalf("%d goroutines with the cluster serving, %d before: the servers run none?", running, base)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5s after Close, %d before the cluster:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedShardReportsItsJournalFailure: a member NewServed serves has
// no prober in front of it, so its process reads the member's health
// itself. Once its journal fails, the cluster refuses the shard's users'
// writes with the typed ErrShardUnavailable at once, as it does for a
// journaled platform it holds bare.
func TestServedShardReportsItsJournalFailure(t *testing.T) {
	inj := faults.NewInjector(1, nil)
	ffs := faults.NewFaultFS(faults.OS{}, inj, faults.DiskConfig{SyncError: 1}, "")
	ffs.SkipSync = true
	jp, err := platform.OpenJournaled(t.TempDir(), journal.Options{FS: ffs}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: 113}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewServed([]*platform.Platform{jp}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inj.Arm(true)
	if err := c.AddUser(profile.New("user-a")); err == nil || jp.JournalFailed() == nil {
		t.Fatalf("AddUser on a failing disk: %v; want the journal failed (it is %v)", err, jp.JournalFailed())
	}
	inj.Arm(false)
	if err := c.AddUser(profile.New("user-b")); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Errorf("write to a served shard whose journal failed: %v, want ErrShardUnavailable", err)
	}
}
