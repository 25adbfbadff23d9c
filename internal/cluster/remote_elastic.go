package cluster

import (
	"context"

	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// Control surface of RemoteShard: platform.Member forwarded over RPC, plus
// what only a networked member offers (networkedMember). Like the rest of
// the Shard surface, context-free signatures run under
// context.Background() with the client's per-call timeout as the bound.

// Addr returns the peer's dialable base URL — the identity shards carry in
// ring pushes and admin listings.
func (r *RemoteShard) Addr() string { return r.c.BaseURL() }

// ListUsers lists the peer's users; unlike Users, a failed call is an
// error, not an empty shard.
func (r *RemoteShard) ListUsers() ([]profile.UserID, error) {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpUsers, struct{}{})
	if len(resp.Users) == 0 {
		return nil, err
	}
	return rpc.ToUserIDs(resp.Users), nil
}

// ExportUsers extracts the given users' state from the peer.
func (r *RemoteShard) ExportUsers(users []profile.UserID) (platform.MigrationChunk, error) {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpExportUsers, rpc.ExportUsersReq{Users: rpc.FromUserIDs(users)})
	return resp.Chunk, err
}

// ImportUsers folds an exported chunk into the peer.
func (r *RemoteShard) ImportUsers(chunk platform.MigrationChunk) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpImportUsers, rpc.ImportUsersReq{Chunk: chunk})
	return err
}

// RemoveUsers drops the given users from the peer.
func (r *RemoteShard) RemoveUsers(users []profile.UserID) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpRemoveUsers, rpc.RemoveUsersReq{Users: rpc.FromUserIDs(users)})
	return err
}

// InstallState replaces the peer's entire state.
func (r *RemoteShard) InstallState(st platform.State) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpInstallState, rpc.InstallStateReq{State: st})
	return err
}

// StateAndLSN snapshots the peer's state (or its user-free skeleton)
// together with the journal LSN it reflects.
func (r *RemoteShard) StateAndLSN(skeleton bool) (platform.State, uint64, error) {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpSyncState, rpc.SyncStateReq{Skeleton: skeleton})
	return resp.State, resp.LSN, err
}

// ApplyShipped forwards one shipped journal record to the peer (follower
// side of a replica chain).
func (r *RemoteShard) ApplyShipped(lsn uint64, payload []byte) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpShipOp, rpc.ShipOpReq{LSN: lsn, Payload: payload})
	return err
}

// BeginFollow puts the peer into follower mode from the given owner LSN.
func (r *RemoteShard) BeginFollow(lsn uint64) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpBeginFollow, rpc.FollowReq{LSN: lsn})
	return err
}

// EndFollow promotes the peer out of follower mode.
func (r *RemoteShard) EndFollow() error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpEndFollow, struct{}{})
	return err
}

// PushRing installs a new membership view on the peer's gate; the peer
// refuses versions that move backwards.
func (r *RemoteShard) PushRing(ctx context.Context, ri rpc.RingInfo) error {
	_, err := rpc.Do(ctx, r.c, rpc.OpSetRing, ri)
	return err
}

// FollowStatus reads the peer's follower status and journal LSN off its
// health report — for promotion decisions and resync planning.
func (r *RemoteShard) FollowStatus() (platform.FollowStatus, error) {
	h, err := r.c.Health(context.Background())
	return platform.FollowStatus{Following: h.Following, Synced: h.Synced, ShipLSN: h.ShipLSN, LastLSN: h.LastLSN}, err
}

// Probe sends one health probe under the caller's context — the failure
// detector's primitive. Unlike Healthy (which consults the breaker) it
// always touches the wire, and its outcome feeds the breaker.
func (r *RemoteShard) Probe(ctx context.Context) error {
	_, err := r.c.Health(ctx)
	return err
}

// Rearm tells the peer — a freshly promoted owner — to rebuild its
// journal-shipping chain onto the given follower addresses.
func (r *RemoteShard) Rearm(ctx context.Context, followers []string) error {
	_, err := rpc.Do(ctx, r.c, rpc.OpRearm, rpc.RearmReq{Followers: followers})
	return err
}
