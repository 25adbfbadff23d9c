package httpapi

// AdminAccount is the authenticator account that guards operator
// endpoints. Deployments issue its token out-of-band (adplatformd logs it
// at startup); the public registration route refuses the name, so it is
// never minted or replaced there.
const AdminAccount = "admin"

// Compactor is the durability hook behind POST /admin/v1/compact:
// *platform.Platform satisfies it. Compact writes a durable snapshot of
// the current state and prunes the journal segments it covers, returning
// the LSN the snapshot includes.
type Compactor interface {
	Compact() (uint64, error)
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
