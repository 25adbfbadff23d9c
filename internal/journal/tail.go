package journal

import "fmt"

// TailSince streams every record with LSN > from to fn, in LSN order, from
// an open journal that may still be accepting appends. It is the follower
// catch-up primitive: a replica that applied the owner's log through LSN
// `from` calls TailSince(from, apply) to receive exactly the suffix it is
// missing, byte-identical to what the owner journaled.
//
// Replay syncs the journal first, so the on-disk segments contain everything
// appended so far; fn therefore never sees a torn or buffered-only record.
// Records appended concurrently with the scan may or may not be included —
// callers that need a precise cut take their own lock around appends, read
// LastLSN, and tail up to it.
//
// TailSince fails with *ErrCompacted when the suffix is no longer
// available: a snapshot that compacted past `from` has deleted the
// segments holding it, and the only remaining path is a full state
// transfer (snapshot install).
func (j *Journal) TailSince(from uint64, fn func(lsn uint64, payload []byte) error) error {
	// Compaction may have deleted the segments below the newest snapshot;
	// a caller asking for records at or below that boundary cannot be
	// served from the log.
	j.mu.Lock()
	snapLSN := j.snapLSN
	j.mu.Unlock()
	if from < snapLSN {
		return &ErrCompacted{From: from, SnapshotLSN: snapLSN}
	}
	return j.Replay(from, fn)
}

// ErrCompacted reports that a requested log suffix starts below the newest
// snapshot's LSN: compaction has deleted those segments, so the caller
// must fall back to a full state transfer.
type ErrCompacted struct {
	From        uint64
	SnapshotLSN uint64
}

func (e *ErrCompacted) Error() string {
	return fmt.Sprintf("journal: records after %d compacted away (newest snapshot at %d); full resync required", e.From, e.SnapshotLSN)
}
