package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/faults"
)

// TestTailSince pins the follower catch-up primitive: tailing from an
// arbitrary offset yields exactly the missing suffix, byte-identical and
// in order, including records still sitting in the append buffer.
func TestTailSince(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const n = 20
	for i := 1; i <= n; i++ {
		// AppendBuffered without waiting: TailSince must sync first and
		// still see everything.
		if _, _, err := j.AppendBuffered([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	for _, from := range []uint64{0, 7, n} {
		var got []string
		next := from + 1
		err := j.TailSince(from, func(lsn uint64, payload []byte) error {
			if lsn != next {
				return fmt.Errorf("lsn %d out of order, want %d", lsn, next)
			}
			next++
			got = append(got, string(payload))
			return nil
		})
		if err != nil {
			t.Fatalf("TailSince(%d): %v", from, err)
		}
		if len(got) != n-int(from) {
			t.Fatalf("TailSince(%d) yielded %d records, want %d", from, len(got), n-int(from))
		}
		if from < n && got[0] != fmt.Sprintf("rec-%02d", from+1) {
			t.Fatalf("TailSince(%d) first record %q", from, got[0])
		}
	}
}

// TestTailSinceCompacted pins the failure mode: once a snapshot compacts
// the log past the requested offset, TailSince refuses with *ErrCompacted
// instead of silently skipping records — the caller must full-resync.
func TestTailSinceCompacted(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 10; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(j.LastLSN(), fromBytes([]byte("state@10"))); err != nil {
		t.Fatal(err)
	}
	var ce *ErrCompacted
	err = j.TailSince(4, func(uint64, []byte) error { return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("TailSince below snapshot = %v, want *ErrCompacted", err)
	}
	if ce.From != 4 || ce.SnapshotLSN != 10 {
		t.Fatalf("ErrCompacted = %+v", ce)
	}
	// At or above the snapshot boundary the (empty) suffix is available.
	if err := j.TailSince(10, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("TailSince(snapLSN): %v", err)
	}
}

// TestSnapshotBootstrapAtZero pins the state-install path replica
// bootstrap depends on: a snapshot written at LSN 0 into a journal with no
// records is legal, survives reopen as the recovery baseline, and appends
// continue from LSN 1.
func TestSnapshotBootstrapAtZero(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(0, fromBytes([]byte("installed-state"))); err != nil {
		t.Fatalf("bootstrap snapshot at LSN 0: %v", err)
	}
	if _, err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	data, lsn, err := readSnap(j2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "installed-state" || lsn != 0 {
		t.Fatalf("Snapshot() = %q @ %d, want installed-state @ 0", data, lsn)
	}
	var replayed []string
	if err := j2.Replay(lsn, func(l uint64, p []byte) error {
		replayed = append(replayed, fmt.Sprintf("%d:%s", l, p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0] != "1:first" {
		t.Fatalf("replay after bootstrap = %v", replayed)
	}
	if got := j2.LastLSN(); got != 1 {
		t.Fatalf("LastLSN after reopen = %d, want 1", got)
	}
	// The snapshot file really is the zero-LSN name.
	if _, err := j2.fs.OpenFile(filepath.Join(dir, "snap-0000000000000000.db"), 0, 0); err != nil {
		t.Fatalf("expected zero-LSN snapshot file: %v", err)
	}
}

// openCounter is a faults.FS that counts the snapshot files opened through it.
type openCounter struct {
	faults.FS
	snapshots int
}

func (c *openCounter) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	if strings.HasPrefix(filepath.Base(name), snapshotPrefix) {
		c.snapshots++
	}
	return c.FS.OpenFile(name, flag, perm)
}

// TestTailSinceDoesNotReadTheSnapshot: the journal knows its newest
// snapshot's LSN — from Open, then from each WriteSnapshot — so a follower
// catching up costs the owner no read of the state, before or after a
// restart.
func TestTailSinceDoesNotReadTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs := &openCounter{FS: faults.OS{}}
	j, err := Open(dir, Options{NoSync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := j.Append([]byte("record")); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail := func(from uint64, want int) {
		t.Helper()
		got, before := 0, fs.snapshots
		if err := j.TailSince(from, func(uint64, []byte) error { got++; return nil }); err != nil {
			t.Fatalf("TailSince(%d): %v", from, err)
		}
		if got != want || fs.snapshots != before {
			t.Fatalf("TailSince(%d) yielded %d records and opened %d snapshot files, want %d and 0", from, got, fs.snapshots-before, want)
		}
	}
	appendN(5)
	if err := j.WriteSnapshot(5, fromBytes(make([]byte, 2*snapshotFrameBytes+4096))); err != nil {
		t.Fatal(err)
	}
	appendN(3)
	tail(5, 3)
	tail(7, 1)
	var ce *ErrCompacted
	if err := j.TailSince(4, func(uint64, []byte) error { return nil }); !errors.As(err, &ce) || ce.SnapshotLSN != 5 {
		t.Fatalf("TailSince below the snapshot = %v, want *ErrCompacted at 5", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if j, err = Open(dir, Options{NoSync: true, FS: fs}); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tail(6, 2)
	if err := j.TailSince(4, func(uint64, []byte) error { return nil }); !errors.As(err, &ce) || ce.SnapshotLSN != 5 {
		t.Fatalf("after reopen, TailSince below the snapshot = %v, want *ErrCompacted at 5", err)
	}
}
