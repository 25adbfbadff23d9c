package platform

import (
	"context"
	"fmt"
	"io"

	"github.com/treads-project/treads/internal/profile"
)

// Member is the control surface of one journaled member of a cluster —
// what a reshard driver and a replica chain drive besides ordinary
// traffic. It is declared once and implemented with these exact signatures
// by *Journaled (in-process) and by the cluster's RemoteShard (which
// forwards each call over RPC, hence every method can fail); the rpc
// server serves it from whatever backend implements it. A plain in-memory
// Platform does not: it has no atomic-across-components snapshot and no
// journal to ship.
type Member interface {
	// Migration: Export is a read; Import and Remove are journaled
	// mutations with validate-before-journal semantics; InstallState rides
	// the snapshot channel so a bootstrap never has to fit in one journal
	// record. ListUsers is the member's own user list, with an error where
	// a remote member's call can fail: a reshard plans its moves from it.
	ListUsers() ([]profile.UserID, error)
	ExportUsers([]profile.UserID) (MigrationChunk, error)
	ImportUsers(MigrationChunk) error
	RemoveUsers([]profile.UserID) error
	InstallState(State) error
	// StateAndLSN atomically captures the full state together with the
	// journal LSN it corresponds to; a follower installed from the pair
	// follows from exactly that LSN with no gap and no overlap. With
	// skeleton set the users are stripped where the state lives
	// (StripUsersState, seed kept): what a joining shard boots from is
	// advertiser state only, whatever the member's population.
	StateAndLSN(skeleton bool) (State, uint64, error)

	// Replication (see journaled_replica.go).
	ApplyShipped(ownerLSN uint64, payload []byte) error
	BeginFollow(ownerLSN uint64) error
	EndFollow() error
	FollowStatus() (FollowStatus, error)
}

var _ Member = (*Journaled)(nil)

// ListUsers lists every user on the shard; locally it cannot fail.
func (jp *Journaled) ListUsers() ([]profile.UserID, error) { return jp.Users(), nil }

// ExportUsers extracts the movable state for the given users from the
// live platform. It is a pure read — the source keeps serving (and
// mutating) the users until the cutover removes them; the reshard driver
// re-exports anything dirtied after this snapshot during its write fence.
func (jp *Journaled) ExportUsers(users []profile.UserID) (MigrationChunk, error) {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return ExtractUsersChunk(jp.stateLocked(), UserSet(users)), nil
}

// ImportUsers journals and applies a migration chunk with replace
// semantics per user. The chunk is validated against the current state
// before anything is journaled: a bad chunk (unknown campaign, pixel, or
// audience) returns an error with nothing written, so the journal never
// holds a record that recovery would refuse to replay.
func (jp *Journaled) ImportUsers(chunk MigrationChunk) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opImportUsers, Chunk: &chunk})
	return err
}

// RemoveUsers journals and applies the removal of the given users' state —
// the source-side half of a completed migration. Removing users that do
// not exist is a no-op, which makes retries idempotent.
func (jp *Journaled) RemoveUsers(users []profile.UserID) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opRemoveUsers, Users: users})
	return err
}

// StateAndLSN implements Member.
func (jp *Journaled) StateAndLSN(skeleton bool) (State, uint64, error) {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	st := jp.stateLocked()
	if skeleton {
		st = StripUsersState(st, st.Seed)
	}
	return st, jp.j.LastLSN(), nil
}

// InstallState replaces the platform's entire state. The new state is
// validated (Restore), then written through the journal's snapshot channel
// rather than as a record — a full state does not have to fit the record
// size limit, and recovery simply restores the installed snapshot. The
// in-memory platform is swapped only after the snapshot is durably on
// disk, so a crash at any point recovers either the old state or the new
// one, never a half-install. On error nothing is swapped; the caller
// retries or routes the node to crash-recovery if the journal went sticky.
//
// InstallState is legal on a follower — it IS the resync path — but does
// not by itself change follow mode; the caller pairs it with
// BeginFollow(ownerLSN) from the owner's StateAndLSN.
func (jp *Journaled) InstallState(s State) error {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	p2, err := Restore(s)
	if err != nil {
		return fmt.Errorf("platform: installing state: %w", err)
	}
	if _, err := jp.writeSnapshot(func(w io.Writer) error { return WriteSnapshot(w, s) }); err != nil {
		return fmt.Errorf("platform: installing state: %w", err)
	}
	jp.p.Store(p2)
	return nil
}
