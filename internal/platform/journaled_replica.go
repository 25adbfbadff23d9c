package platform

import (
	"context"
	"errors"
)

// ErrFollowing is returned by mutating operations on a platform that is a
// replication follower: its only write path is ApplyShipped, so a direct
// mutation would fork it from the owner's journal.
var ErrFollowing = errors.New("platform: replica is following an owner; direct mutations refused")

// ErrNotSynced is returned by ApplyShipped when the follower has fallen
// out of sync (a shipping gap or a failed apply) and must be resynced by
// the replica driver before it can accept more records.
var ErrNotSynced = errors.New("platform: follower out of sync; resync required")

// SetShipper installs (or, with nil, removes) the owner-side replication
// hook: fn is invoked under the op lock for every journaled record, after
// the local append and apply, with the record's LSN and exact payload
// bytes. Because the call happens in journal order under the lock,
// followers receive the identical sequence the owner's own recovery would
// replay. A shipping error propagates to the mutating caller as an
// indeterminate outcome — the op is durable locally either way. A platform
// without a journal has nothing to ship and refuses with ErrNoJournal.
func (p *Platform) SetShipper(fn func(lsn uint64, payload []byte) error) error {
	return p.withJournal(func() error {
		p.shipper = fn
		return nil
	})
}

// BeginFollow marks this platform as a follower whose state matches the
// owner's journal through ownerLSN. Subsequent ApplyShipped calls must
// present ownerLSN+1, ownerLSN+2, … in order. Direct mutations are refused
// until EndFollow. The owner-LSN cursor lives only in memory: a follower
// that crashes forgets where it was and must be resynced, which is the
// safe default — its own journal recovers its state, but only the owner
// can certify how far that state matches the owner's log.
func (p *Platform) BeginFollow(ownerLSN uint64) error {
	return p.withJournal(func() error {
		p.follow = true
		p.inSync = true
		p.shipSeq = ownerLSN
		return nil
	})
}

// EndFollow lifts follower mode — the promotion step. The platform keeps
// its state and journal and starts accepting direct mutations; any
// shipping cursor is discarded.
func (p *Platform) EndFollow() error {
	return p.withJournal(func() error {
		p.follow = false
		p.inSync = false
		p.shipSeq = 0
		return nil
	})
}

// FollowStatus is a member's replication view of itself.
type FollowStatus struct {
	// Following reports follower mode (between BeginFollow and EndFollow).
	Following bool
	// Synced reports that the follower is accepting shipped records: true
	// from BeginFollow until the first gap or failed apply.
	Synced bool
	// ShipLSN is the owner LSN the follower's state matches; 0 unless
	// following.
	ShipLSN uint64
	// LastLSN is the member's own last journaled LSN. The two logs agree
	// on contents and order, not numbering.
	LastLSN uint64
}

// FollowStatus implements Member. A platform without a journal never
// follows and has journaled nothing: it answers the zero status.
func (p *Platform) FollowStatus() (FollowStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return FollowStatus{
		Following: p.follow,
		Synced:    p.follow && p.inSync,
		ShipLSN:   p.shipSeq,
		LastLSN:   p.LastLSN(),
	}, nil
}

// ApplyShipped applies one record shipped from the owner's journal through
// the same commit path a live call takes: validated and applied exactly as
// the owner applied it, and journaled locally (at the follower's own LSN,
// since the follower's log also holds its bootstrap snapshot). ownerLSN
// must be exactly one past the last applied record; a gap means shipped
// records were lost and the follower marks itself out of sync rather than
// applying a divergent suffix. A bad record leaves the follower consistent,
// just unsynced.
func (p *Platform) ApplyShipped(ownerLSN uint64, payload []byte) error {
	if p.j == nil {
		return ErrNoJournal
	}
	_, err := p.commit(context.Background(), &opRecord{ship: &shipment{lsn: ownerLSN, payload: payload}})
	return err
}
