package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/workload"
)

// shardProc is one adplatformd -shard-serve subprocess under test control.
type shardProc struct {
	cmd  *exec.Cmd
	args []string
}

// startShard launches (or relaunches) a shard node subprocess. Output goes
// to the test log so a failure leaves the node's own account of events.
func startShard(t *testing.T, bin string, args []string) *shardProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting shard node: %v", err)
	}
	return &shardProc{cmd: cmd, args: args}
}

// freeAddrs reserves n distinct loopback ports and releases them for the
// subprocesses to bind. The gap between release and bind is racy in
// principle; in practice nothing else grabs ephemeral ports mid-test.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// TestMultiProcessClusterE2E is the acceptance crash test for the
// networked deployment: three real shard-node processes with per-shard
// journals, a router assembled over real RPC clients, a workload phase,
// then SIGKILL of one node, typed errors while it is down, restart on the
// same journal, and a second phase. The merged campaign report must equal
// the sum of impressions the driver was acked across both phases — no
// impression lost to the crash, none double-counted by recovery.
func TestMultiProcessClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "adplatformd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building adplatformd: %v", err)
	}

	const (
		nShards = 3
		secret  = "e2e-shared-secret"
		victim  = 1 // the shard we kill mid-run
	)
	addrs := freeAddrs(t, nShards)
	shardArgs := func(i int) []string {
		return []string{
			"-shard-serve",
			"-shard-index", fmt.Sprint(i),
			"-shard-count", fmt.Sprint(nShards),
			"-addr", addrs[i],
			"-journal", filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			"-rpc-secret", secret,
			"-users", "60",
			"-seed", "7",
		}
	}
	procs := make([]*shardProc, nShards)
	for i := 0; i < nShards; i++ {
		procs[i] = startShard(t, bin, shardArgs(i))
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	})

	// Router side: one client per node, health-gated startup, then a
	// Cluster over RemoteShards — exactly what -peers mode assembles.
	clients := make([]*rpc.Client, nShards)
	shards := make([]cluster.Shard, nShards)
	remotes := make([]*cluster.RemoteShard, nShards)
	for i := range clients {
		clients[i] = rpc.NewClient("http://"+addrs[i], rpc.Options{
			Secret:      secret,
			CallTimeout: 5 * time.Second,
		})
		remotes[i] = cluster.NewRemoteShard(clients[i])
		shards[i] = remotes[i]
	}
	t.Cleanup(func() {
		for _, r := range remotes {
			r.Close()
		}
	})
	waitHealthy := func(i int, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			h, err := clients[i].Health(ctx)
			cancel()
			if err == nil && h.OK {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d not healthy within %v: %v", i, within, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	for i := 0; i < nShards; i++ {
		waitHealthy(i, 30*time.Second)
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	users := c.Users()
	if len(users) != 60 {
		t.Fatalf("cluster reports %d users, want the full 60-user population", len(users))
	}

	// One campaign that can match anybody, so browsing records impressions.
	if err := c.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	camp, err := c.CreateCampaign("acme", platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(0, 200)")},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "e2e", Body: "crash test"},
	})
	if err != nil {
		t.Fatal(err)
	}

	driveCfg := workload.DriverConfig{
		Goroutines:      4,
		OpsPerGoroutine: 75,
		Users:           users,
		Mix:             workload.OpMix{Browse: 1}, // browses only: every op records impressions
		BrowseSlots:     3,
		Seed:            21,
	}

	// Phase 1: all nodes up.
	st1 := workload.Drive(c, driveCfg)
	if st1.Errors != 0 {
		t.Fatalf("phase 1: %d errors with all nodes up", st1.Errors)
	}
	if st1.Impressions == 0 {
		t.Fatal("phase 1 produced no impressions; the crash test would be vacuous")
	}

	// SIGKILL the victim between phases — no in-flight requests, so every
	// impression is either acked (and therefore journaled and fsynced)
	// or never happened.
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].cmd.Wait()

	// While the node is down, ops needing it fail with typed errors: first
	// as transport errors, then — once the circuit opens — as the
	// cluster's ErrShardUnavailable without burning a timeout.
	var victimUID = users[0]
	for _, uid := range users {
		if c.Owner(uid) == victim {
			victimUID = uid
			break
		}
	}
	sawUnavailable := false
	for i := 0; i < 20 && !sawUnavailable; i++ {
		_, err := c.BrowseFeed(victimUID, 3)
		if err == nil {
			t.Fatal("BrowseFeed against a SIGKILLed shard succeeded")
		}
		sawUnavailable = errors.Is(err, cluster.ErrShardUnavailable)
	}
	if !sawUnavailable {
		t.Fatal("circuit never opened: BrowseFeed kept timing out instead of failing fast with ErrShardUnavailable")
	}
	if _, err := c.PotentialReach(context.Background(), "acme", audience.Spec{Expr: attr.MustParse("age(0, 200)")}); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("PotentialReach with a dead shard: err = %v, want ErrShardUnavailable", err)
	}

	// Restart the victim on the SAME journal: recovery replays its acked
	// history. The explicit health probe also closes the router's breaker.
	procs[victim] = startShard(t, bin, shardArgs(victim))
	waitHealthy(victim, 30*time.Second)
	if !remotes[victim].Healthy() {
		t.Fatal("breaker still open after a successful health probe")
	}

	// Phase 2: full cluster again, different op sequence.
	cfg2 := driveCfg
	cfg2.Seed = 22
	st2 := workload.Drive(c, cfg2)
	if st2.Errors != 0 {
		t.Fatalf("phase 2: %d errors after recovery", st2.Errors)
	}

	// The ledger across all shards must account for exactly the acked
	// impressions — journal recovery lost nothing and replayed nothing
	// twice.
	rep, err := c.Report(context.Background(), "acme", camp)
	if err != nil {
		t.Fatal(err)
	}
	want := int(st1.Impressions + st2.Impressions)
	if rep.Impressions != want {
		t.Fatalf("merged report has %d impressions, driver was acked %d (+%d then +%d): lost or double-counted work",
			rep.Impressions, want, st1.Impressions, st2.Impressions)
	}

	// The shard nodes export the transport's server-side metrics.
	resp, err := http.Get("http://" + addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{"rpc_server_requests_total", "rpc_server_request_seconds"} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("shard /metrics missing %s", fam)
		}
	}
}
