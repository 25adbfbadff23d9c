package journal

// Regression tests for the journal's failure handling, driven through the
// fault-injecting filesystem: sticky fsync failure (a journal that cannot
// prove durability must stop acknowledging) and torn-snapshot quarantine
// (a snapshot that cannot be read must never shadow the older snapshot
// plus the segments that extend it).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/faults"
)

// After a failed fsync the segment's durable prefix is unknown: the
// journal must go sticky-failed, refusing appends and snapshots with
// ErrFailed until it is closed and recovered from disk.
func TestFsyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(21, nil)
	ffs := faults.NewFaultFS(faults.OS{}, inj, faults.DiskConfig{SyncError: 1}, "t/")
	gfs := newGateFS(ffs)
	j, err := Open(dir, Options{FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("healthy")); err != nil {
		t.Fatalf("append before faults: %v", err)
	}

	// The doomed record's fsync is held open while more records queue in
	// the other buffer; when it fails, the leader and every queued waiter
	// must get ErrFailed, and none may hang waiting for a later fsync.
	inj.Arm(true)
	release := gfs.block()
	defer release()
	errs := make(chan error, 5)
	go func() {
		_, err := j.Append([]byte("doomed"))
		errs <- err
	}()
	<-gfs.entered
	for i := 0; i < cap(errs)-1; i++ {
		_, wait, err := j.AppendBuffered([]byte("queued behind the doomed fsync"))
		if err != nil {
			t.Fatalf("append during the fsync: %v", err)
		}
		go func() { errs <- wait() }()
	}
	release()
	within(t, "waiters after the failed fsync", func() {
		for i := 0; i < cap(errs); i++ {
			if err := <-errs; !errors.Is(err, ErrFailed) {
				t.Errorf("append under failing fsync = %v, want ErrFailed", err)
			}
		}
	})
	if err := j.Failed(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Failed() = %v, want ErrFailed", err)
	}
	last := j.LastLSN()

	// Sticky: later appends are refused outright — even after the disk
	// "recovers" (disarm) — and assign no LSNs.
	inj.Arm(false)
	if _, err := j.Append([]byte("after")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure = %v, want sticky ErrFailed", err)
	}
	if got := j.LastLSN(); got != last {
		t.Fatalf("failed journal still assigned LSNs: %d -> %d", last, got)
	}
	if err := j.WriteSnapshot(1, fromBytes([]byte("snap"))); !errors.Is(err, ErrFailed) {
		t.Fatalf("snapshot on failed journal = %v, want ErrFailed", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("sync on failed journal = %v, want ErrFailed", err)
	}
	if err := j.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("close on failed journal = %v, want ErrFailed", err)
	}

	// The recovery path: crash (discarding unsynced bytes), reopen, and
	// the journal serves again from its durable prefix.
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer j2.Close()
	var got []string
	if err := j2.Replay(0, func(lsn uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	if len(got) < 1 || got[0] != "healthy" {
		t.Fatalf("durable record lost in recovery: %v", got)
	}
	if _, err := j2.Append([]byte("recovered")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// A short write mid-batch leaves a torn frame; the journal goes sticky
// and the next Open repairs the tail back to whole records.
func TestShortWriteTearsTailAndRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(4, nil)
	ffs := faults.NewFaultFS(faults.OS{}, inj, faults.DiskConfig{ShortWrite: 1}, "t/")
	j, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A five-record batch goes to the file in one write; the short write
	// cuts it at a byte of the injector's choosing.
	inj.Arm(true)
	var waits []func() error
	for i := 3; i < 8; i++ {
		_, wait, err := j.AppendBuffered([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	for _, wait := range waits {
		if err := wait(); !errors.Is(err, ErrFailed) {
			t.Fatalf("wait under short writes = %v, want ErrFailed", err)
		}
	}
	inj.Arm(false)
	j.Close()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer j2.Close()
	var got []string
	if err := j2.Replay(0, func(lsn uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The three acknowledged records, then whatever whole-record prefix of
	// the torn batch reached the disk — never all of it, never out of order.
	if len(got) < 3 || len(got) >= 8 {
		t.Fatalf("recovered %d records, want the 3 durable ones plus a proper prefix of the torn batch: %v", len(got), got)
	}
	for i, p := range got {
		if want := fmt.Sprintf("rec-%d", i); p != want {
			t.Fatalf("record %d recovered as %q, want %q", i+1, p, want)
		}
	}
	if got, want := j2.LastLSN(), uint64(len(got)); got != want {
		t.Fatalf("LastLSN after repair = %d, want %d", got, want)
	}
}

// A crash mid-snapshot-publish can leave a named snapshot whose contents
// are torn. Open must quarantine it (and stale .tmp debris) so recovery
// anchors on the older readable snapshot plus the segments that extend it
// — the torn file must not shadow them.
func TestTornSnapshotDoesNotShadowSegments(t *testing.T) {
	t.Run("inside the only frame", func(t *testing.T) {
		whole := appendRecord(nil, []byte("state-through-8-that-never-finished"))
		tornSnapshotDoesNotShadowSegments(t, whole[:len(whole)/2])
	})
	// A multi-frame snapshot cut inside its second frame starts with a
	// whole, valid first frame; that must not pass for a shorter state.
	t.Run("inside the second frame", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap")
		if err := writeSnapshotFile(faults.OS{}, path, fromBytes(make([]byte, snapshotFrameBytes+4096)), true); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tornSnapshotDoesNotShadowSegments(t, whole[:len(whole)-2048])
	})
}

// tornSnapshotDoesNotShadowSegments plants torn as the snapshot at LSN 8 of
// a journal whose readable snapshot is at LSN 4.
func tornSnapshotDoesNotShadowSegments(t *testing.T, torn []byte) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 32}) // rotate nearly every record
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(4, fromBytes([]byte("state-through-4"))); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash debris: the torn snapshot at LSN 8 and a stale
	// temp file from an unfinished publish.
	tornPath := snapshotPath(dir, 8)
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := snapshotPath(dir, 9) + ".tmp"
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn snapshot: %v", err)
	}
	defer j2.Close()

	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Fatalf("torn snapshot not quarantined: stat = %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp not removed: stat = %v", err)
	}

	data, lsn, err := readSnap(j2)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 || string(data) != "state-through-4" {
		t.Fatalf("Snapshot() = (%q, %d), want the readable LSN-4 snapshot", data, lsn)
	}
	// The full suffix past the good snapshot must replay: nothing between
	// LSN 4 and the torn LSN-8 snapshot may be lost.
	var got []string
	if err := j2.Replay(lsn, func(lsn uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatalf("replay past good snapshot: %v", err)
	}
	want := []string{"record-05", "record-06", "record-07", "record-08", "record-09", "record-10"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
	// And the journal keeps appending where the log really ended.
	lsn11, err := j2.Append([]byte("record-11"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn11 != 11 {
		t.Fatalf("next LSN after recovery = %d, want 11", lsn11)
	}
}

// An injected rename failure during snapshot publish must not poison the
// journal: the snapshot fails, the temp file is cleaned up, and both
// appends and a later snapshot retry succeed.
func TestSnapshotRenameFailureIsNotSticky(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(8, nil)
	ffs := faults.NewFaultFS(faults.OS{}, inj, faults.DiskConfig{RenameError: 1}, "t/")
	j, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 4; i++ {
		if _, err := j.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	inj.Arm(true)
	if err := j.WriteSnapshot(4, fromBytes([]byte("state"))); err == nil || !strings.Contains(err.Error(), "faults: injected") {
		t.Fatalf("snapshot under rename faults = %v, want injected error", err)
	}
	inj.Arm(false)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("failed publish left temp file %s", e.Name())
		}
	}
	if _, err := j.Append([]byte("still-works")); err != nil {
		t.Fatalf("append after failed snapshot = %v, want success", err)
	}
	if err := j.WriteSnapshot(5, fromBytes([]byte("state-5"))); err != nil {
		t.Fatalf("snapshot retry = %v, want success", err)
	}
	if _, lsn, err := readSnap(j); err != nil || lsn != 5 {
		t.Fatalf("Snapshot() after retry = lsn %d, %v; want 5", lsn, err)
	}
}
