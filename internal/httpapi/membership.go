package httpapi

import (
	"fmt"
	"net/http"
)

// ClusterAdmin is the dynamic-membership surface behind the admin cluster
// endpoints. The daemon implements it over the router's cluster
// coordinator (dialing new shard nodes, promoting replica-set members);
// the HTTP layer only translates requests and never touches the ring
// itself. All methods may be called concurrently.
type ClusterAdmin interface {
	// Status describes the ring being served: version, per-slot addresses
	// and health, and any migration still in flight.
	Status() ClusterStatusResponse
	// AddShard grows the ring by one slot served at addr (with optional
	// replica addresses), migrating the users the new ring assigns it.
	AddShard(addr string, replicas []string) (ReshardReportWire, error)
	// RemoveShard drains the highest slot back onto the rest of the ring
	// and removes it.
	RemoveShard() (ReshardReportWire, error)
	// Promote makes the named slot's best-synced replica its owner,
	// fencing the deposed owner behind a bumped ring version. Without
	// force it refuses while the owner is still answering health checks —
	// promoting under a healthy owner would fork the chain; force is the
	// planned-handover escape hatch. As for every mutation here, a refusal
	// is answered 409 and an unreachable fleet (statusFor) 503.
	Promote(slot int, force bool) (PromoteResponse, error)
	// ResumeReshard retries the source-side removals of an interrupted
	// cutover; it is idempotent and safe to hammer.
	ResumeReshard() error
}

// SetClusterAdmin enables the admin membership endpoints. A nil admin
// (the default) leaves them answering 404, so a single-process server
// exposes no membership surface.
func (s *Server) SetClusterAdmin(a ClusterAdmin) { s.clusterAdmin = a }

// ClusterStatusResponse is GET /admin/v1/cluster: the ring as the router
// serves it right now.
type ClusterStatusResponse struct {
	// Version is the monotonically increasing ring version; every
	// membership change bumps it.
	Version uint64 `json:"version"`
	// Slots lists every ring slot in order.
	Slots []ClusterSlotStatus `json:"slots"`
	// MigrationActive is true while a reshard's bulk copy or cutover is
	// running.
	MigrationActive bool `json:"migration_active"`
	// PendingRemovals counts moved user batches whose source-side removal
	// has not landed yet; nonzero means POST /admin/v1/cluster/resume is
	// needed before aggregate reads unblock.
	PendingRemovals int `json:"pending_removals"`
	// LastReshard reports the most recent completed membership change,
	// absent if the ring has never changed.
	LastReshard *ReshardReportWire `json:"last_reshard,omitempty"`
}

// ClusterSlotStatus is one ring slot's membership and health.
type ClusterSlotStatus struct {
	Slot int `json:"slot"`
	// Addr is the slot owner's address; empty for in-process shards.
	Addr string `json:"addr,omitempty"`
	// Replicas are the journal-shipping follower addresses, if any.
	Replicas []string `json:"replicas,omitempty"`
	// Healthy reports whether the slot currently serves (owner up, or a
	// replica covering reads).
	Healthy bool `json:"healthy"`
}

// ReshardReportWire reports one completed membership change.
type ReshardReportWire struct {
	// UsersMoved is how many users migrated to or from the changed slot.
	UsersMoved int `json:"users_moved"`
	// CutoverMS is the write-fence duration in milliseconds — the only
	// window during which user writes block.
	CutoverMS float64 `json:"cutover_ms"`
	// Version is the ring version the change produced.
	Version uint64 `json:"version"`
}

// AddShardRequest is POST /admin/v1/cluster/shards.
type AddShardRequest struct {
	// Addr is the new shard node's address (host:port or URL).
	Addr string `json:"addr"`
	// Replicas are follower node addresses for the new slot, optional.
	Replicas []string `json:"replicas,omitempty"`
}

// PromoteRequest is POST /admin/v1/cluster/promote.
type PromoteRequest struct {
	// Slot names the ring slot whose replica to promote.
	Slot int `json:"slot"`
	// Force promotes even while the slot's owner is healthy (a planned
	// handover). Without it, promotion under a healthy owner is refused
	// with 409 — it would fork the replica chain.
	Force bool `json:"force,omitempty"`
}

// PromoteResponse reports a completed promotion.
type PromoteResponse struct {
	Slot int `json:"slot"`
	// Member is the replica-set member index that became owner.
	Member int `json:"member"`
	// Addr is the new owner's address.
	Addr string `json:"addr,omitempty"`
	// Version is the ring version the promotion produced; the deposed
	// owner is fenced behind it.
	Version uint64 `json:"version,omitempty"`
}

// requireClusterAdmin 404s membership endpoints until an admin is wired
// (i.e. the daemon runs as a router over remote shard nodes).
func (s *Server) requireClusterAdmin(w http.ResponseWriter) bool {
	if s.clusterAdmin == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("httpapi: no dynamic membership on this server (run as a router with -peers)"))
		return false
	}
	return true
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterAdmin(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.clusterAdmin.Status())
}

func (s *Server) handleClusterAddShard(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterAdmin(w) {
		return
	}
	var req AddShardRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Addr == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: add shard without addr"))
		return
	}
	rep, err := s.clusterAdmin.AddShard(req.Addr, req.Replicas)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleClusterRemoveShard(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterAdmin(w) {
		return
	}
	rep, err := s.clusterAdmin.RemoveShard()
	if err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleClusterPromote(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterAdmin(w) {
		return
	}
	var req PromoteRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.clusterAdmin.Promote(req.Slot, req.Force)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterResume(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterAdmin(w) {
		return
	}
	if err := s.clusterAdmin.ResumeReshard(); err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"resumed": true})
}
