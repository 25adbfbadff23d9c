package rpc

import (
	"context"
	"encoding/json"

	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Typed client methods for the elastic-cluster protocol; their retry
// policy is their row's in the op table (ops.go).

// BaseURL returns the peer's base URL — the dialable address the router
// publishes in ring pushes.
func (c *Client) BaseURL() string { return c.baseURL }

// ExportUsers extracts the movable state of the named users from the peer.
func (c *Client) ExportUsers(ctx context.Context, users []profile.UserID) (platform.MigrationChunk, error) {
	var resp ChunkResp
	err := callOp(ctx, c, opExportUsers, ExportUsersReq{Users: fromUserIDs(users)}, &resp)
	return resp.Chunk, err
}

// ImportUsers folds a migration chunk into the peer (replace semantics).
func (c *Client) ImportUsers(ctx context.Context, chunk platform.MigrationChunk) error {
	return callOp(ctx, c, opImportUsers, ImportUsersReq{Chunk: chunk}, nil)
}

// RemoveUsers drops the named users' state from the peer after a cutover.
func (c *Client) RemoveUsers(ctx context.Context, users []profile.UserID) error {
	return callOp(ctx, c, opRemoveUsers, RemoveUsersReq{Users: fromUserIDs(users)}, nil)
}

// InstallState replaces the peer's entire platform state.
func (c *Client) InstallState(ctx context.Context, st platform.State) error {
	return callOp(ctx, c, opInstallState, InstallStateReq{State: st}, nil)
}

// SyncState fetches the peer's state — full, or the user-free skeleton —
// and the journal LSN it corresponds to.
func (c *Client) SyncState(ctx context.Context, skeleton bool) (platform.State, uint64, error) {
	var resp SyncStateResp
	err := callOp(ctx, c, opSyncState, SyncStateReq{Skeleton: skeleton}, &resp)
	return resp.State, resp.LSN, err
}

// ShipOp forwards one journaled record to a follower.
func (c *Client) ShipOp(ctx context.Context, lsn uint64, payload []byte) error {
	return callOp(ctx, c, opShipOp, ShipOpReq{LSN: lsn, Payload: json.RawMessage(payload)}, nil)
}

// BeginFollow puts the peer into follower mode from the given owner LSN.
func (c *Client) BeginFollow(ctx context.Context, lsn uint64) error {
	return callOp(ctx, c, opBeginFollow, FollowReq{LSN: lsn}, nil)
}

// EndFollow promotes the peer out of follower mode.
func (c *Client) EndFollow(ctx context.Context) error {
	return callOp(ctx, c, opEndFollow, empty{}, nil)
}

// Rearm asks a freshly promoted owner to rebuild its journal-shipping
// chain onto the given follower addresses (no process restart).
func (c *Client) Rearm(ctx context.Context, followers []string) error {
	return callOp(ctx, c, opRearm, RearmReq{Followers: followers}, nil)
}

// FetchRing returns the membership the peer is currently serving.
func (c *Client) FetchRing(ctx context.Context) (RingInfo, error) {
	var resp RingInfo
	err := callOp(ctx, c, opRing, empty{}, &resp)
	return resp, err
}

// PushRing installs new membership on the peer; the peer refuses versions
// that move backwards.
func (c *Client) PushRing(ctx context.Context, ri RingInfo) error {
	return callOp(ctx, c, opSetRing, ri, nil)
}

func fromUserIDs(users []profile.UserID) []string {
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = string(u)
	}
	return out
}
