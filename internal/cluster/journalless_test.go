package cluster_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
)

// TestJournallessPlatformRefuses pins what a platform without a journal
// answers to the control surface, in process and behind a shard node: it
// serves traffic and reports itself healthy, and refuses every migration,
// shipping and rearm op with platform.ErrNoJournal. Over the wire a
// refusal is a 422 carrying the refusal's text.
func TestJournallessPlatformRefuses(t *testing.T) {
	const secret = "journalless-secret"
	node, err := shardnode.New(platform.New(platform.Config{Seed: 3}), shardnode.Config{RPC: rpc.Options{Secret: secret}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	cl := rpc.NewClient(srv.URL, rpc.Options{Secret: secret})
	ctx := context.Background()

	// refused requires err to be the shard's 422 naming the refusal.
	refused := func(t *testing.T, op string, err error) {
		t.Helper()
		var re *rpc.RemoteError
		if !errors.As(err, &re) || re.Msg != platform.ErrNoJournal.Error() {
			t.Errorf("%s on a journal-less shard: %v, want a 422 %q", op, err, platform.ErrNoJournal)
		}
	}
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"member ops answer 422 and errors.Is the refusal", func(t *testing.T) {
			_, err := rpc.Do(ctx, cl, rpc.OpExportUsers, rpc.ExportUsersReq{Users: []string{"u"}})
			refused(t, "exportusers", err)
			_, err = rpc.Do(ctx, cl, rpc.OpImportUsers, rpc.ImportUsersReq{})
			refused(t, "importusers", err)
			_, err = rpc.Do(ctx, cl, rpc.OpRemoveUsers, rpc.RemoveUsersReq{Users: []string{"u"}})
			refused(t, "removeusers", err)
			_, err = rpc.Do(ctx, cl, rpc.OpInstallState, rpc.InstallStateReq{})
			refused(t, "installstate", err)
			_, err = rpc.Do(ctx, cl, rpc.OpSyncState, rpc.SyncStateReq{Skeleton: true})
			refused(t, "syncstate", err)
			_, err = rpc.Do(ctx, cl, rpc.OpShipOp, rpc.ShipOpReq{LSN: 1, Payload: []byte(`{"op":"register_advertiser","name":"a"}`)})
			refused(t, "shipop", err)
			_, err = rpc.Do(ctx, cl, rpc.OpBeginFollow, rpc.FollowReq{LSN: 0})
			refused(t, "beginfollow", err)
			_, err = rpc.Do(ctx, cl, rpc.OpEndFollow, struct{}{})
			refused(t, "endfollow", err)
			rs := cluster.NewReplicaSet(memShards(t, platform.New(platform.Config{Seed: 4}))[0])
			if err := rs.InstallState(platform.New(platform.Config{Seed: 5}).State()); !noJournal(err) {
				t.Errorf("InstallState on a journal-less slot: %v, want platform.ErrNoJournal", err)
			}
		}},
		{"health answers 200 with zero LSNs", func(t *testing.T) {
			h, err := cl.Health(ctx)
			if err != nil {
				t.Fatalf("health of a journal-less shard: %v", err)
			}
			if !h.OK || h.LastLSN != 0 || h.ShipLSN != 0 || h.Following || h.Synced {
				t.Errorf("health of a journal-less shard: %+v, want ok with zero LSNs, not following", h)
			}
		}},
		{"a journal-less chain refuses to arm", func(t *testing.T) {
			nodes := memNodes(t, platform.New(platform.Config{Seed: 1}), platform.New(platform.Config{Seed: 1}))
			rs := cluster.NewReplicaSet(nodes[0], nodes[1])
			if err := rs.Chain(); !noJournal(err) {
				t.Errorf("Chain over journal-less members: %v, want platform.ErrNoJournal", err)
			}
		}},
		{"an in-memory cluster refuses to reshard", func(t *testing.T) {
			c, err := cluster.NewInMemory(2, platform.Config{Seed: 2}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			populateElastic(t, c, 8)
			if _, err := c.RemoveShard(); !noJournal(err) || c.Shards() != 2 {
				t.Errorf("RemoveShard of an in-memory cluster: %v, %d shards left, want platform.ErrNoJournal and 2", err, c.Shards())
			}
		}},
		{"a journal-less shard node refuses a rearm", func(t *testing.T) {
			for _, followers := range [][]string{nil, {"127.0.0.1:1"}} {
				_, err := rpc.Do(ctx, cl, rpc.OpRearm, rpc.RearmReq{Followers: followers})
				var re *rpc.RemoteError
				if !errors.As(err, &re) {
					t.Errorf("rearm %v on a journal-less shard: %v, want a 422 refusal", followers, err)
				}
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}
