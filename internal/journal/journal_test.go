package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/faults"
)

func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

// fromBytes is the WriteSnapshot callback of a test that holds its state as
// bytes; readSnap reads the newest snapshot back into bytes.
func fromBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

func readSnap(j *Journal) ([]byte, uint64, error) {
	r, lsn, err := j.Snapshot()
	if err != nil || r == nil {
		return nil, lsn, err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	return data, lsn, err
}

func collect(t *testing.T, j *Journal, from uint64) (lsns []uint64, payloads [][]byte) {
	t.Helper()
	err := j.Replay(from, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return lsns, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, p)
		lsn, err := j.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if got := uint64(i + 1); lsn != got {
			t.Fatalf("Append %d returned LSN %d, want %d", i, lsn, got)
		}
	}
	lsns, payloads := collect(t, j, 0)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) {
			t.Fatalf("record %d replayed with LSN %d", i, lsns[i])
		}
		if !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir, Options{})
	if got := j2.LastLSN(); got != 10 {
		t.Fatalf("LastLSN after reopen = %d, want 10", got)
	}
	lsn, err := j2.Append([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-reopen append LSN = %d, want 11", lsn)
	}
	lsns, _ := collect(t, j2, 0)
	if len(lsns) != 11 {
		t.Fatalf("replayed %d records, want 11", len(lsns))
	}
	j2.Close()
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rolls a new file.
	j := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(faults.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected many segments with 128-byte threshold, got %d", len(segs))
	}
	lsns, payloads := collect(t, j, 0)
	if len(lsns) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(lsns), n)
	}
	if got := string(payloads[n-1]); got != fmt.Sprintf("payload-%04d", n-1) {
		t.Fatalf("last record = %q", got)
	}
	j.Close()

	// Reopen mid-chain and keep appending.
	j2 := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	if j2.LastLSN() != n {
		t.Fatalf("LastLSN = %d, want %d", j2.LastLSN(), n)
	}
	if _, err := j2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	lsns, _ = collect(t, j2, 0)
	if len(lsns) != n+1 {
		t.Fatalf("replayed %d, want %d", len(lsns), n+1)
	}
	j2.Close()
}

func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	segs, err := listSegments(faults.OS{}, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (err %v)", len(segs), err)
	}
	// Simulate a torn append: garbage half-record at the tail.
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x10, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, dir, Options{})
	if got := j2.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after torn-tail repair = %d, want 5", got)
	}
	lsns, _ := collect(t, j2, 0)
	if len(lsns) != 5 {
		t.Fatalf("replayed %d records, want 5", len(lsns))
	}
	if lsn, err := j2.Append([]byte("post-repair")); err != nil || lsn != 6 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
	j2.Close()
}

// TestCrashPointSweep is the journal-level kill-point sweep: the log is
// truncated at EVERY byte offset of its single segment, and each
// truncation must open cleanly and replay an exact prefix of the original
// records.
func TestCrashPointSweep(t *testing.T) {
	master := t.TempDir()
	j := openT(t, master, Options{})
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("op-%02d-%s", i, bytes.Repeat([]byte("x"), i*3)))
		want = append(want, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := listSegments(faults.OS{}, master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment (err %v)", err)
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(segs[0].path)

	for cut := 0; cut <= len(whole); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%05d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		k := jc.LastLSN()
		if k > uint64(len(want)) {
			t.Fatalf("cut %d: recovered %d records, more than ever written", cut, k)
		}
		lsns, payloads := collect(t, jc, 0)
		if uint64(len(lsns)) != k {
			t.Fatalf("cut %d: LastLSN %d but %d records replayed", cut, k, len(lsns))
		}
		for i, p := range payloads {
			if !bytes.Equal(p, want[i]) {
				t.Fatalf("cut %d: record %d not a prefix match", cut, i)
			}
		}
		// Recovery must leave an appendable journal.
		if lsn, err := jc.Append([]byte("resume")); err != nil || lsn != k+1 {
			t.Fatalf("cut %d: append after recovery: lsn=%d err=%v", cut, lsn, err)
		}
		jc.Close()
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{SegmentBytes: 96, NoSync: true})
	for i := 0; i < 30; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("entry-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	state := []byte("state-through-20")
	if err := j.WriteSnapshot(20, fromBytes(state)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	segsBefore, _ := listSegments(faults.OS{}, dir)
	for _, s := range segsBefore {
		if s.first <= 10 {
			t.Fatalf("segment %s should have been compacted away", s.path)
		}
	}
	data, lsn, err := readSnap(j)
	if err != nil || lsn != 20 || !bytes.Equal(data, state) {
		t.Fatalf("Snapshot = (%q, %d, %v)", data, lsn, err)
	}
	// Replay from the snapshot covers exactly 21..30.
	lsns, _ := collect(t, j, lsn)
	if len(lsns) != 10 || lsns[0] != 21 || lsns[9] != 30 {
		t.Fatalf("replay-from-snapshot lsns = %v", lsns)
	}
	// A newer snapshot supersedes and removes the old one.
	if err := j.WriteSnapshot(30, fromBytes([]byte("state-through-30"))); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(faults.OS{}, dir)
	if len(snaps) != 1 || snaps[0].lsn != 30 {
		t.Fatalf("snapshots after second compaction = %+v", snaps)
	}
	j.Close()

	// Reopen after full compaction: appends continue past the snapshot.
	j2 := openT(t, dir, Options{SegmentBytes: 96, NoSync: true})
	lsn2, err := j2.Append([]byte("after"))
	if err != nil || lsn2 != 31 {
		t.Fatalf("append after compacted reopen: lsn=%d err=%v", lsn2, err)
	}
	j2.Close()
}

// TestSnapshotFrames pins the snapshot file format at the frame-size
// boundary: a stream that fits one frame is that one record and nothing else,
// a larger one is cut into consecutive full frames whatever the sizes of the
// writes it arrived in, and both read back whole.
func TestSnapshotFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		frames int
	}{
		{"empty", 0, 1},
		{"small", 1000, 1},
		{"exactly one record", snapshotFrameBytes, 1},
		{"one byte over", snapshotFrameBytes + 1, 2},
		{"two and a bit", 2*snapshotFrameBytes + 4096, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openT(t, dir, Options{NoSync: true})
			defer j.Close()
			if _, err := j.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
			state := make([]byte, tc.size)
			for i := range state {
				state[i] = byte(i * 31)
			}
			err := j.WriteSnapshot(1, func(w io.Writer) error {
				for rest := state; len(rest) > 0; {
					n := min(len(rest), 4093)
					if _, err := w.Write(rest[:n]); err != nil {
						return err
					}
					rest = rest[n:]
				}
				return nil
			})
			if err != nil {
				t.Fatalf("WriteSnapshot of %d bytes: %v", tc.size, err)
			}
			file, err := os.ReadFile(snapshotPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.size + tc.frames*recordHeaderSize; len(file) != want {
				t.Fatalf("snapshot file is %d bytes, want %d (%d frames)", len(file), want, tc.frames)
			}
			if tc.frames == 1 && !bytes.Equal(file, appendRecord(nil, state)) {
				t.Fatal("a snapshot that fits one frame is not that one record")
			}
			data, lsn, err := readSnap(j)
			if err != nil || lsn != 1 || !bytes.Equal(data, state) {
				t.Fatalf("Snapshot = (%d bytes, %d, %v), want the %d bytes written", len(data), lsn, err, tc.size)
			}
		})
	}
}

// TestSnapshotFramesOfEarlierBuilds reads what builds before the 1 MiB cut
// wrote: frames of up to MaxRecordBytes.
func TestSnapshotFramesOfEarlierBuilds(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	if _, err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	state := make([]byte, MaxRecordBytes+4096)
	for i := range state {
		state[i] = byte(i * 31)
	}
	file := appendRecord(appendRecord(nil, state[:MaxRecordBytes]), state[MaxRecordBytes:])
	if err := os.WriteFile(snapshotPath(dir, 1), file, 0o644); err != nil {
		t.Fatal(err)
	}
	j = openT(t, dir, Options{NoSync: true})
	defer j.Close()
	data, lsn, err := readSnap(j)
	if err != nil || lsn != 1 || !bytes.Equal(data, state) {
		t.Fatalf("Snapshot = (%d bytes, %d, %v), want the %d bytes of the two 16 MiB-cut frames", len(data), lsn, err, len(state))
	}
}

// TestSnapshotStreamIsBounded pins what streaming is for: writing a 64 MiB
// snapshot in 64 KiB pieces, validating it at Open and reading it back
// through a 64 KiB buffer each allocate a frame or two, not the snapshot.
func TestSnapshotStreamIsBounded(t *testing.T) {
	const size, piece, limit = 64 << 20, 64 << 10, 8 << 20
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	if _, err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, piece)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	allocated := func(what string, f func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s a %d MiB snapshot allocated %d KiB, want under %d", what, size>>20, got>>10, limit>>10)
		}
	}
	allocated("writing", func() {
		err := j.WriteSnapshot(1, func(w io.Writer) error {
			for n := 0; n < size; n += piece {
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	j.Close()
	if st, err := os.Stat(snapshotPath(dir, 1)); err != nil || st.Size() != size+size/snapshotFrameBytes*recordHeaderSize {
		t.Fatalf("snapshot file: %v, %v; want %d full frames", st, err, size/snapshotFrameBytes)
	}
	allocated("validating", func() { j = openT(t, dir, Options{NoSync: true}) })
	defer j.Close()
	allocated("reading", func() {
		r, lsn, err := j.Snapshot()
		if err != nil || lsn != 1 {
			t.Fatalf("Snapshot = (%d, %v)", lsn, err)
		}
		defer r.Close()
		total := 0
		for {
			n, err := r.Read(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != size {
			t.Fatalf("read %d bytes back, want %d", total, size)
		}
	})
}

// A write callback that fails half-way costs that snapshot and nothing else:
// no temp file stays behind, the journal is not failed, and the next
// snapshot succeeds.
func TestSnapshotWriteErrorIsNotSticky(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	defer j.Close()
	if _, err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder gave up")
	err := j.WriteSnapshot(1, func(w io.Writer) error {
		// Past the first frame, so part of the file is already written.
		if _, err := w.Write(make([]byte, snapshotFrameBytes+4096)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot = %v, want the callback's error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapshotPrefix) {
			t.Fatalf("failed snapshot left %s behind", e.Name())
		}
	}
	if err := j.Failed(); err != nil {
		t.Fatalf("journal failed after a snapshot error: %v", err)
	}
	if _, err := j.Append([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(2, fromBytes([]byte("state-through-2"))); err != nil {
		t.Fatalf("snapshot after a failed one: %v", err)
	}
	if data, lsn, err := readSnap(j); err != nil || lsn != 2 || string(data) != "state-through-2" {
		t.Fatalf("Snapshot = (%q, %d, %v)", data, lsn, err)
	}
}

func TestSnapshotBeyondLastRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(2, fromBytes([]byte("x"))); err == nil {
		t.Fatal("snapshot beyond last record should be rejected")
	}
	if err := j.WriteSnapshot(1, fromBytes([]byte("x"))); err != nil {
		t.Fatalf("snapshot at last record: %v", err)
	}
	j.Close()
}

func TestOpenAfterSnapshotWithoutSegments(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	for i := 0; i < 3; i++ {
		if _, err := j.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteSnapshot(3, fromBytes([]byte("s"))); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash that finished compaction but lost the active
	// segment (or an operator deleting *.log): the snapshot alone must
	// still open, with appends resuming after its LSN.
	segs, _ := listSegments(faults.OS{}, dir)
	for _, s := range segs {
		os.Remove(s.path)
	}
	j2 := openT(t, dir, Options{NoSync: true})
	if got := j2.LastLSN(); got != 3 {
		t.Fatalf("LastLSN = %d, want 3", got)
	}
	if lsn, err := j2.Append([]byte("resume")); err != nil || lsn != 4 {
		t.Fatalf("append = (%d, %v), want (4, nil)", lsn, err)
	}
	j2.Close()
}

func TestRecordSizeLimits(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	defer j.Close()
	if _, err := j.Append(nil); err == nil {
		t.Fatal("empty record should be rejected")
	}
	if _, err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record should be rejected")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{NoSync: true})
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	lsnCh := make(chan uint64, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := j.Append([]byte(fmt.Sprintf("g%02d-i%03d", g, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				lsnCh <- lsn
			}
		}(g)
	}
	wg.Wait()
	close(lsnCh)
	seen := make(map[uint64]bool)
	for lsn := range lsnCh {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("%d unique LSNs, want %d", len(seen), goroutines*perG)
	}
	lsns, _ := collect(t, j, 0)
	if len(lsns) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(lsns), goroutines*perG)
	}
	j.Close()
}

func TestGroupCommitDurability(t *testing.T) {
	// With real fsync, concurrent appends must all be durable when Append
	// returns — verified by reopening the directory.
	dir := t.TempDir()
	j := openT(t, dir, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("d%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	// No Close: reopen sees only what Append durably acknowledged.
	j2 := openT(t, dir, Options{})
	if got := j2.LastLSN(); got != 40 {
		t.Fatalf("durable records = %d, want 40", got)
	}
	j2.Close()
	j.Close()
}
