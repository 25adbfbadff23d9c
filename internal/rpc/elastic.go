package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Elastic-cluster extensions to the shard protocol: state transfer for
// live resharding, journal shipping for replica chains, and ring-version
// exchange so a router holding a stale ring learns to refresh instead of
// writing to the wrong shard.

// ErrStaleRing is a 409 from the peer: the shard consulted its membership
// gate and it no longer (or does not yet) own the addressed user under the
// ring version it is serving. The call was NOT applied. Clients do not
// retry it at the transport layer — the cure is refreshing membership and
// re-routing, which the cluster layer does exactly once per op. One the
// router could not resolve that way is an httpapi.Unavailable: a front end
// answers it 503, not "unknown user".
var ErrStaleRing error = httpapi.Unavailable("rpc: stale ring")

// MembershipGate is the ownership check a shard server consults before
// serving a user-scoped operation, plus the ring-version exchange surface.
// The implementation lives in the cluster layer (it owns the consistent
// hash); rpc only plumbs it. A nil gate (the default) serves everything —
// single-shard deployments and tests.
type MembershipGate interface {
	// OwnsUser returns nil when this shard serves the user under the
	// current ring, or a descriptive error (surfaced to the client as a
	// 409/ErrStaleRing) when it does not.
	OwnsUser(user string) error
	// OwnsUserWrite tightens OwnsUser for mutations: only the owning
	// slot's address may apply a user write, never a replica's. This is
	// the fence that stops a deposed owner — demoted to replica by an
	// automatic promotion — from applying retried writes once it holds the
	// bumped ring.
	OwnsUserWrite(user string) error
	// Ring returns the membership the shard is currently serving.
	Ring() RingInfo
	// SetRing installs pushed membership; versions never move backwards
	// (an older push is refused).
	SetRing(RingInfo) error
}

// staleErr wraps a gate refusal so handleOp can map it to 409.
type staleErr struct{ err error }

func (e staleErr) Error() string { return e.err.Error() }

// RingInfo is the wire form of cluster membership: which shard addresses
// exist (with their replica addresses), how many virtual nodes the ring
// uses, and a monotonically increasing version so peers can order pushes.
type RingInfo struct {
	Version      uint64      `json:"version"`
	VirtualNodes int         `json:"virtual_nodes"`
	Shards       []ShardInfo `json:"shards"`
}

// ShardInfo is one slot's addresses: the owner first, then any replicas.
type ShardInfo struct {
	Addr     string   `json:"addr"`
	Replicas []string `json:"replicas,omitempty"`
}

// ErrMigrationUnsupported is the refusal a non-journaled backend gives the
// migration and replication ops: a plain in-memory platform has no
// atomic-across-components snapshot, so it cannot take part in live
// resharding or journal shipping.
var ErrMigrationUnsupported = errors.New("shard backend does not support state migration (journaled platforms only)")

// --- wire types ---

// ExportUsersReq selects the users whose movable state to extract.
type ExportUsersReq struct {
	Users []string `json:"users"`
}

// ChunkResp carries an extracted migration chunk.
type ChunkResp struct {
	Chunk platform.MigrationChunk `json:"chunk"`
}

// ImportUsersReq carries a chunk to fold into the shard.
type ImportUsersReq struct {
	Chunk platform.MigrationChunk `json:"chunk"`
}

// RemoveUsersReq names the users whose state to drop after a cutover.
type RemoveUsersReq struct {
	Users []string `json:"users"`
}

// InstallStateReq carries a full platform state. It must fit MaxBody; the
// reshard driver bootstraps new shards from a *stripped* (user-free) state
// precisely so this stays small, then streams users as bounded chunks.
type InstallStateReq struct {
	State platform.State `json:"state"`
}

// SyncStateReq asks for the shard's state: all of it (the zero request,
// and an absent body), or with Skeleton set the user-free advertiser
// skeleton, cut on the shard so the response never carries a user.
type SyncStateReq struct {
	Skeleton bool `json:"skeleton,omitempty"`
}

// SyncStateResp returns the requested state and the journal LSN it
// corresponds to.
type SyncStateResp struct {
	State platform.State `json:"state"`
	LSN   uint64         `json:"lsn"`
}

// ShipOpReq forwards one journaled record from owner to follower. The
// payload is the owner's exact record bytes (JSON), embedded verbatim.
type ShipOpReq struct {
	LSN     uint64          `json:"lsn"`
	Payload json.RawMessage `json:"payload"`
}

// FollowReq starts following from the given owner LSN.
type FollowReq struct {
	LSN uint64 `json:"lsn"`
}

// RearmReq asks a freshly promoted owner to rebuild its journal-shipping
// chain onto the given follower addresses, with no process restart.
type RearmReq struct {
	Followers []string `json:"followers"`
}

// memberOp registers an op served by the backend's platform.Member
// surface. The ops are always registered — capability is a property of the
// backend, not the protocol — and refuse with ErrMigrationUnsupported when
// the backend is not a journaled member, so a misconfigured router gets a
// readable 422 instead of a protocol error.
func memberOp[Req, Resp any](s *Server, op Op[Req, Resp], fn func(m platform.Member, req Req) (Resp, error)) {
	serve(s, op, func(_ context.Context, req Req) (Resp, error) {
		m, ok := s.b.(platform.Member)
		if !ok {
			var zero Resp
			return zero, ErrMigrationUnsupported
		}
		return fn(m, req)
	})
}

// registerElastic wires the migration, replication, and ring ops.
func (s *Server) registerElastic() {
	memberOp(s, OpExportUsers, func(m platform.Member, req ExportUsersReq) (ChunkResp, error) {
		chunk, err := m.ExportUsers(ToUserIDs(req.Users))
		return ChunkResp{Chunk: chunk}, err
	})
	memberOp(s, OpImportUsers, func(m platform.Member, req ImportUsersReq) (empty, error) {
		return empty{}, m.ImportUsers(req.Chunk)
	})
	memberOp(s, OpRemoveUsers, func(m platform.Member, req RemoveUsersReq) (empty, error) {
		return empty{}, m.RemoveUsers(ToUserIDs(req.Users))
	})
	memberOp(s, OpInstallState, func(m platform.Member, req InstallStateReq) (empty, error) {
		return empty{}, m.InstallState(req.State)
	})
	memberOp(s, OpSyncState, func(m platform.Member, req SyncStateReq) (SyncStateResp, error) {
		st, lsn, err := m.StateAndLSN(req.Skeleton)
		return SyncStateResp{State: st, LSN: lsn}, err
	})
	memberOp(s, OpShipOp, func(m platform.Member, req ShipOpReq) (empty, error) {
		return empty{}, m.ApplyShipped(req.LSN, []byte(req.Payload))
	})
	memberOp(s, OpBeginFollow, func(m platform.Member, req FollowReq) (empty, error) {
		return empty{}, m.BeginFollow(req.LSN)
	})
	memberOp(s, OpEndFollow, func(m platform.Member, _ empty) (empty, error) {
		return empty{}, m.EndFollow()
	})
	serve(s, OpRearm, func(_ context.Context, req RearmReq) (empty, error) {
		fn := s.rearm.Load()
		if fn == nil {
			return empty{}, fmt.Errorf("shard has no rearm handler configured (node was not started with replication support)")
		}
		return empty{}, (*fn)(req.Followers)
	})
	serve(s, OpRing, func(_ context.Context, _ empty) (RingInfo, error) {
		g := s.gate.Load()
		if g == nil {
			return RingInfo{}, fmt.Errorf("shard has no membership gate configured")
		}
		return (*g).Ring(), nil
	})
	serve(s, OpSetRing, func(_ context.Context, req RingInfo) (empty, error) {
		g := s.gate.Load()
		if g == nil {
			return empty{}, fmt.Errorf("shard has no membership gate configured")
		}
		return empty{}, (*g).SetRing(req)
	})
}

// ToUserIDs converts wire user IDs to profile IDs.
func ToUserIDs(ss []string) []profile.UserID {
	out := make([]profile.UserID, len(ss))
	for i, u := range ss {
		out[i] = profile.UserID(u)
	}
	return out
}

// FromUserIDs converts profile IDs to their wire form.
func FromUserIDs(users []profile.UserID) []string {
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = string(u)
	}
	return out
}
