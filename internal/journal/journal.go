// Package journal implements a durable, segmented write-ahead log with
// group commit, torn-tail repair, and snapshot-based compaction.
//
// The journal stores opaque payloads as length-prefixed, CRC-32C-checksummed
// records in append-only segment files. Every record is assigned a
// monotonically increasing log sequence number (LSN, starting at 1).
//
// Group commit: an append frames its record into an in-memory buffer and
// never waits for the disk. Whoever first waits for durability while no
// flush is running becomes the flush leader: it swaps the pending buffer
// for the spare one, then writes and fsyncs the batch with no lock held,
// so records appended meanwhile collect in the other buffer and are covered
// by the next fsync. The fsync is the only batching interval: a leader
// flushes the moment it is elected, so an idle journal costs one fsync per
// append and a busy one amortizes each fsync over whatever arrived during
// the previous one.
//
// Crash behaviour: a crash can lose at most the records whose Append (or
// whose AppendBuffered wait) had not yet returned. A partially written
// final record — the torn tail a kill mid-write leaves — is detected by
// checksum on the next Open and truncated away; everything before it is
// intact. A record in any position other than the tail that fails its
// checksum is reported as corruption, never silently skipped.
//
// Write failures are sticky: after any failed write, fsync, or rotation
// the segment's on-disk state is indeterminate, so the journal marks itself
// failed and every subsequent append or snapshot returns an error wrapping
// ErrFailed. The only way forward is to close, recover from disk (Open
// repairs the tail), and re-apply what recovery reports lost.
//
// Compaction: callers periodically write a snapshot of their full state
// via WriteSnapshot(lsn, write), which frames whatever write emits as it is
// emitted; segments whose records are all covered by the snapshot are
// deleted. Recovery is Snapshot() — a reader — + Replay(snapLSN, fn).
//
// All file I/O goes through a faults.FS seam (Options.FS, default the real
// OS), so the fault-injection harness can exercise every failure path
// above deterministically.
package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/faults"
)

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// maxSpareBytes bounds the capacity of a swap buffer kept for reuse after
// its flush, so one huge record (a 16 MiB user import) does not pin its
// buffer for the life of the journal.
const maxSpareBytes = 1 << 20

// ErrFailed marks the journal's sticky terminal state: a write, fsync, or
// rotation failed, the durable prefix of the active segment is unknown, and
// the journal refuses all further appends and snapshots. Test with
// errors.Is; the wrapped cause is preserved.
var ErrFailed = errors.New("journal: failed")

// Options parameterizes a Journal.
type Options struct {
	// SegmentBytes rotates the active segment once its size reaches this
	// threshold, at the next batch boundary. Zero selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Deprecated: ignored. A flush leader never waits before its fsync;
	// batches form underneath the running one.
	BatchWindow time.Duration
	// NoSync skips fsync entirely. Appends are still written through to
	// the OS, but nothing is durable across a machine crash. For tests and
	// benchmarks.
	NoSync bool
	// FS is the filesystem the journal writes through. Nil selects the
	// real operating system (faults.OS); the chaos harness passes a
	// faults.FaultFS to inject scheduled failures.
	FS faults.FS
	// Metrics receives this journal's instrumentation (see NewMetrics).
	// Nil leaves the journal instrumented against unregistered metrics,
	// which cost the same but export nowhere.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = faults.OS{}
	}
	return o
}

// Journal is an open write-ahead log directory. It is safe for concurrent
// use; Append never reorders relative to the LSNs it hands out.
type Journal struct {
	dir  string
	opts Options
	fs   faults.FS
	m    *Metrics

	// mu guards the in-memory state below and is never held across file
	// I/O. cond is signalled whenever a flush ends.
	mu       sync.Mutex
	cond     *sync.Cond
	pending  []byte // framed records not yet handed to a flush, in LSN order
	nextLSN  uint64
	firstLSN uint64 // first LSN of the active segment
	durable  uint64 // highest LSN known written and fsynced
	snapLSN  uint64 // the newest snapshot's LSN (0 with none): compaction may have deleted through it
	flushing bool   // the flush lock: set while a leader owns the fields below
	closed   bool
	failed   error // sticky error wrapping ErrFailed; the journal is dead after one

	// Owned by whoever holds the flush lock (Close takes them over once
	// closed is set and no leader is left): everything that touches the
	// active segment file — batch write, fsync, rotation, close.
	f     faults.File
	size  int64  // bytes written to the active segment
	spare []byte // the swap buffer not currently collecting appends
}

// Open opens (creating if needed) the journal in dir. A torn tail on the
// final segment is truncated, and snapshot debris from a crash mid-publish
// (stale temp files, torn snapshots that would shadow older good ones) is
// quarantined; the returned journal continues appending at the next LSN.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	snapLSN, err := cleanSnapshots(fs, dir, opts.NoSync)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts, fs: fs, m: opts.Metrics, snapLSN: snapLSN}
	if j.m == nil {
		j.m = NewMetrics(nil, "")
	}
	j.cond = sync.NewCond(&j.mu)

	switch {
	case len(segs) == 0:
		if err := j.openNewSegment(snapLSN + 1); err != nil {
			return nil, err
		}
		j.nextLSN = snapLSN + 1
	default:
		last := segs[len(segs)-1]
		count, _, err := repairTail(fs, last.path)
		if err != nil {
			return nil, err
		}
		next := last.first + count
		if next < snapLSN+1 {
			// The snapshot is ahead of every surviving log record (e.g.
			// a crash between snapshot write and compaction finishing):
			// start a fresh segment at the snapshot boundary.
			if err := j.openNewSegment(snapLSN + 1); err != nil {
				return nil, err
			}
			j.nextLSN = snapLSN + 1
		} else {
			f, err := fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return nil, fmt.Errorf("journal: reopening segment: %w", err)
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("journal: stat segment: %w", err)
			}
			j.f = f
			j.size = st.Size()
			j.firstLSN = last.first
			j.nextLSN = next
		}
	}
	// Everything that survived on disk at open is the durable baseline.
	j.durable = j.nextLSN - 1
	return j, nil
}

// openNewSegment creates and activates the segment whose first record will
// be LSN first. The caller holds the flush lock (or has exclusive access
// during Open).
func (j *Journal) openNewSegment(first uint64) error {
	path := segmentPath(j.dir, first)
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.fs.SyncDir(j.dir); err != nil {
			f.Close()
			return fmt.Errorf("journal: syncing dir after segment create: %w", err)
		}
	}
	j.f = f
	j.size = 0
	j.mu.Lock()
	j.firstLSN = first // compaction reads it
	j.mu.Unlock()
	return nil
}

// Failed returns the journal's sticky error (wrapping ErrFailed), or nil
// while the journal is healthy. A failed journal accepts no more appends
// or snapshots; the owner must close it and recover from disk.
func (j *Journal) Failed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Append durably appends payload and returns its LSN. It blocks until the
// record (and, incidentally, every earlier record) is fsynced — or merely
// written, under Options.NoSync.
func (j *Journal) Append(payload []byte) (uint64, error) {
	lsn, wait, err := j.AppendBuffered(payload)
	if err != nil {
		return 0, err
	}
	return lsn, wait()
}

// AppendBuffered appends payload to the log buffer and returns its LSN
// immediately — it copies memory and never waits for the disk, even while
// an fsync is running — plus a wait function that blocks until the record
// is durable. Callers that must order appends against other work can do so
// under their own lock and pay the durability wait outside it; LSN order
// always equals buffer order, which is the order records reach the file.
func (j *Journal) AppendBuffered(payload []byte) (uint64, func() error, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("journal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, nil, fmt.Errorf("journal: appending to closed journal")
	}
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return 0, nil, err
	}
	start := time.Now()
	lsn := j.nextLSN
	j.pending = appendRecord(j.pending, payload)
	j.nextLSN++
	j.mu.Unlock()
	appended := time.Now()
	j.m.appendSeconds.Observe(appended.Sub(start))
	j.m.appends.Inc()
	return lsn, func() error {
		err := j.waitDurable(lsn)
		j.m.commitWaitSeconds.ObserveSince(appended)
		return err
	}, nil
}

// waitDurable blocks until LSN lsn is durable, electing this goroutine as
// the flush leader when no flush is running. Everyone else sleeps on the
// condition variable until a leader's fsync covers them or, if they
// appended after its buffer swap, until one of them leads the next flush.
func (j *Journal) waitDurable(lsn uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.failed != nil {
			return j.failed
		}
		if j.durable >= lsn {
			return nil
		}
		if j.flushing {
			j.cond.Wait()
			continue
		}
		j.flushing = true
		j.mu.Unlock()
		covered, err := j.flush()
		j.mu.Lock()
		j.flushing = false
		if err != nil {
			// Every waiter wakes to the same error, so nothing blocks on
			// an fsync that will never come.
			j.failed = fmt.Errorf("%w: %w", ErrFailed, err)
		} else {
			j.durable = covered
		}
		j.cond.Broadcast()
	}
}

// flush runs one group commit and returns the highest LSN it made durable.
// The caller holds the flush lock, and is only elected while some record is
// not yet durable, so the batch is never empty. It writes at once: whatever
// arrives during its fsync is the next batch. Any error leaves the segment's
// durable prefix unknown — appending past it would risk acknowledging
// records behind an unwritten hole — so the caller marks the journal failed.
//
// Rotation happens here, after the batch's fsync has sealed the segment
// and before the caller publishes durability: the order of filesystem calls
// is then a function of the record stream alone, which seeded fault
// schedules replay against.
func (j *Journal) flush() (uint64, error) {
	start := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, errors.New("journal: flush on closed journal")
	}
	buf, covered, records := j.pending, j.nextLSN-1, j.nextLSN-1-j.durable
	j.pending, j.spare = j.spare, nil
	j.mu.Unlock()

	if _, err := j.f.Write(buf); err != nil {
		return 0, fmt.Errorf("journal: writing records through %d: %w", covered, err)
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.size += int64(len(buf))
	if cap(buf) <= maxSpareBytes {
		j.spare = buf[:0]
	}
	if j.size >= j.opts.SegmentBytes {
		if err := j.f.Close(); err != nil {
			return 0, fmt.Errorf("journal: closing sealed segment: %w", err)
		}
		if err := j.openNewSegment(covered + 1); err != nil {
			return 0, err
		}
		j.m.rotations.Inc()
	}
	j.m.fsyncSeconds.ObserveSince(start)
	j.m.fsyncs.Inc()
	j.m.batchRecords.Observe(time.Duration(records) * time.Second)
	return covered, nil
}

// Sync blocks until every record appended so far is durable.
func (j *Journal) Sync() error {
	j.mu.Lock()
	last := j.nextLSN - 1
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return fmt.Errorf("journal: sync on closed journal")
	}
	return j.waitDurable(last)
}

// LastLSN returns the LSN of the most recently appended record, or one
// less than the first assignable LSN when the log is empty.
func (j *Journal) LastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN - 1
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Close syncs outstanding records and closes the active segment. The
// journal is unusable afterwards.
func (j *Journal) Close() error {
	syncErr := j.Sync()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	// A leader elected since the Sync above may still be writing; one
	// elected from here on sees closed and touches nothing.
	for j.flushing {
		j.cond.Wait()
	}
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
