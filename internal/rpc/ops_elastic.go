package rpc

import (
	"context"
	"encoding/json"

	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Typed client methods for the elastic-cluster protocol. Idempotency
// follows the semantics, not the verb: import/remove/install are replace
// operations at the platform layer (re-executing them converges on the
// same state), so they get transport retries; shipop is strictly ordered
// (a duplicate would trip the follower's gap check and desync it), so it
// gets exactly one shot.

// BaseURL returns the peer's base URL — the dialable address the router
// publishes in ring pushes.
func (c *Client) BaseURL() string { return c.baseURL }

// ExportUsers extracts the movable state of the named users from the peer.
func (c *Client) ExportUsers(ctx context.Context, users []profile.UserID) (platform.MigrationChunk, error) {
	var resp ChunkResp
	if err := c.Call(ctx, "exportusers", true, ExportUsersReq{Users: fromUserIDs(users)}, &resp); err != nil {
		return platform.MigrationChunk{}, err
	}
	return resp.Chunk, nil
}

// ImportUsers folds a migration chunk into the peer (replace semantics).
func (c *Client) ImportUsers(ctx context.Context, chunk platform.MigrationChunk) error {
	return c.Call(ctx, "importusers", true, ImportUsersReq{Chunk: chunk}, nil)
}

// RemoveUsers drops the named users' state from the peer after a cutover.
func (c *Client) RemoveUsers(ctx context.Context, users []profile.UserID) error {
	return c.Call(ctx, "removeusers", true, RemoveUsersReq{Users: fromUserIDs(users)}, nil)
}

// InstallState replaces the peer's entire platform state.
func (c *Client) InstallState(ctx context.Context, st platform.State) error {
	return c.Call(ctx, "installstate", true, InstallStateReq{State: st}, nil)
}

// SyncState fetches the peer's state — full, or the user-free skeleton —
// and the journal LSN it corresponds to.
func (c *Client) SyncState(ctx context.Context, skeleton bool) (platform.State, uint64, error) {
	var resp SyncStateResp
	if err := c.Call(ctx, "syncstate", true, SyncStateReq{Skeleton: skeleton}, &resp); err != nil {
		return platform.State{}, 0, err
	}
	return resp.State, resp.LSN, nil
}

// ShipOp forwards one journaled record to a follower. Never retried: the
// follower's gap check treats a duplicate LSN as divergence.
func (c *Client) ShipOp(ctx context.Context, lsn uint64, payload []byte) error {
	return c.Call(ctx, "shipop", false, ShipOpReq{LSN: lsn, Payload: json.RawMessage(payload)}, nil)
}

// BeginFollow puts the peer into follower mode from the given owner LSN.
func (c *Client) BeginFollow(ctx context.Context, lsn uint64) error {
	return c.Call(ctx, "beginfollow", true, FollowReq{LSN: lsn}, nil)
}

// EndFollow promotes the peer out of follower mode.
func (c *Client) EndFollow(ctx context.Context) error {
	return c.Call(ctx, "endfollow", true, nil, nil)
}

// Rearm asks a freshly promoted owner to rebuild its journal-shipping
// chain onto the given follower addresses (no process restart).
// Re-arming is idempotent — the handler replaces the whole chain — so it
// gets transport retries.
func (c *Client) Rearm(ctx context.Context, followers []string) error {
	return c.Call(ctx, "rearm", true, RearmReq{Followers: followers}, nil)
}

// FetchRing returns the membership the peer is currently serving.
func (c *Client) FetchRing(ctx context.Context) (RingInfo, error) {
	var resp RingInfo
	if err := c.Call(ctx, "ring", true, nil, &resp); err != nil {
		return RingInfo{}, err
	}
	return resp, nil
}

// PushRing installs new membership on the peer; the peer refuses versions
// that move backwards.
func (c *Client) PushRing(ctx context.Context, ri RingInfo) error {
	return c.Call(ctx, "setring", true, ri, nil)
}

func fromUserIDs(users []profile.UserID) []string {
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = string(u)
	}
	return out
}
