package httpapi

import (
	"fmt"
	"net/http"
)

// adminAccount is the authenticator account that guards operator
// endpoints. Deployments issue its token out-of-band (adplatformd logs it
// at startup); it is never minted through the public registration route.
const adminAccount = "admin"

// Compactor is the durability hook behind POST /admin/v1/compact:
// *platform.Journaled satisfies it. Compact writes a durable snapshot of
// the current state and prunes the journal segments it covers, returning
// the LSN the snapshot includes.
type Compactor interface {
	Compact() (uint64, error)
	LastLSN() uint64
}

// SetCompactor enables the admin compaction endpoint. Call before serving
// requests; a nil compactor (the default) leaves the endpoint answering
// 404 so an unjournaled server exposes nothing operator-shaped.
func (s *Server) SetCompactor(c Compactor) { s.compactor = c }

// CompactResponse reports a completed journal compaction.
type CompactResponse struct {
	// SnapshotLSN is the last operation the new snapshot covers.
	SnapshotLSN uint64 `json:"snapshot_lsn"`
}

// requireAdminAuth gates operator endpoints on the admin account's token
// when authentication is enabled. Without auth (test/demo mode) the
// endpoint is open, matching the rest of the server.
func (s *Server) requireAdminAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.auth != nil && !s.auth.Verify(adminAccount, BearerToken(r)) {
			writeErr(w, http.StatusUnauthorized,
				fmt.Errorf("httpapi: missing or invalid admin token"))
			return
		}
		next(w, r)
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.compactor == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("httpapi: no journal configured (run with -journal)"))
		return
	}
	lsn, err := s.compactor.Compact()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{SnapshotLSN: lsn})
}
