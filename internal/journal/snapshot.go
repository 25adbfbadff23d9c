package journal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/treads-project/treads/internal/faults"
)

// Snapshot files hold a caller-provided serialization of the full state
// through some LSN, named snap-<LSN, 16 hex>.db and written atomically
// (temp file, fsync, rename, dir fsync). The contents reuse the record
// framing, so a snapshot is self-checksumming: the state is cut into
// consecutive frames of at most MaxRecordBytes — one frame for any state
// that fits — and is the concatenation of every frame up to a clean end of
// file. Once a snapshot lands, every segment wholly covered by it — and
// every older snapshot — is garbage and is deleted.
//
// Because publish is by rename, a finished snapshot is never torn; what a
// crash mid-snapshot can leave is a stale .tmp file, or — on filesystems
// that reorder the rename ahead of the data fsync, and under injected
// faults — a named snapshot whose contents fail their checksum. Open
// quarantines both via cleanSnapshots, so a torn newest snapshot can
// never shadow the older good snapshot plus the segments that extend it.

const (
	snapshotPrefix = "snap-"
	snapshotSuffix = ".db"
	tmpSuffix      = ".tmp"
)

type snapshotFile struct {
	path string
	lsn  uint64
}

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapshotPrefix, lsn, snapshotSuffix))
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns the directory's snapshots sorted by LSN.
func listSnapshots(fs faults.FS, dir string) ([]snapshotFile, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	var snaps []snapshotFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, snapshotFile{path: filepath.Join(dir, e.Name()), lsn: lsn})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return snaps, nil
}

// cleanSnapshots removes the debris a crash mid-snapshot can leave and
// returns the newest *readable* snapshot LSN (0 when none). Stale .tmp
// files from an unfinished publish are deleted, and so is any snapshot
// file that fails its checksum before a readable one is found — keeping a
// torn snapshot would anchor recovery's LSN baseline past state it cannot
// actually restore, silently losing the records between the good snapshot
// and the torn one.
func cleanSnapshots(fs faults.FS, dir string, noSync bool) (uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("journal: removing stale snapshot temp %s: %w", name, err)
		}
		removed = true
	}
	snaps, err := listSnapshots(fs, dir)
	if err != nil {
		return 0, err
	}
	newest := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		if _, rerr := readSnapshotFile(fs, snaps[i].path); rerr == nil {
			newest = snaps[i].lsn
			break
		}
		if err := fs.Remove(snaps[i].path); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("journal: quarantining torn snapshot %s: %w", snaps[i].path, err)
		}
		removed = true
	}
	if removed && !noSync {
		if err := fs.SyncDir(dir); err != nil {
			return 0, fmt.Errorf("journal: syncing dir after snapshot cleanup: %w", err)
		}
	}
	return newest, nil
}

// WriteSnapshot durably stores data as the state through lsn and then
// compacts the journal: older snapshots are removed and so is every
// segment whose records the snapshot fully covers. lsn must not exceed
// the last appended LSN (callers Sync() first, then snapshot at LastLSN).
//
// A snapshot failure is not sticky: the journal's segments are untouched,
// so appends continue and the next snapshot attempt may succeed.
func (j *Journal) WriteSnapshot(lsn uint64, data []byte) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: snapshot on closed journal")
	}
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return err
	}
	if lsn >= j.nextLSN {
		next := j.nextLSN
		j.mu.Unlock()
		return fmt.Errorf("journal: snapshot at LSN %d beyond last record %d", lsn, next-1)
	}
	j.mu.Unlock()

	tmp := snapshotPath(j.dir, lsn) + tmpSuffix
	if err := writeSnapshotFile(j.fs, tmp, data, j.opts.NoSync); err != nil {
		j.fs.Remove(tmp)
		return err
	}
	if err := j.fs.Rename(tmp, snapshotPath(j.dir, lsn)); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("journal: publishing snapshot: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.fs.SyncDir(j.dir); err != nil {
			return fmt.Errorf("journal: syncing dir after snapshot: %w", err)
		}
	}
	j.m.snapshots.Inc()
	return j.compact(lsn)
}

func writeSnapshotFile(fs faults.FS, path string, data []byte, noSync bool) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for {
		frame := data[:min(len(data), MaxRecordBytes)]
		if _, err := writeRecordTo(bw, frame); err != nil {
			f.Close()
			return fmt.Errorf("journal: writing snapshot: %w", err)
		}
		if data = data[len(frame):]; len(data) == 0 {
			break
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("journal: flushing snapshot: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: syncing snapshot: %w", err)
		}
	}
	return f.Close()
}

// Snapshot returns the newest readable snapshot's contents and LSN, or
// (nil, 0, nil) when the journal has no snapshot. A snapshot that fails
// its checksum is skipped in favour of an older one; Open already
// quarantined any such file, so hitting one here means it appeared (or
// was tampered with) while the journal was running.
func (j *Journal) Snapshot() ([]byte, uint64, error) {
	snaps, err := listSnapshots(j.fs, j.dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, rerr := readSnapshotFile(j.fs, snaps[i].path)
		if rerr == nil {
			return data, snaps[i].lsn, nil
		}
		err = rerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: no readable snapshot: %w", err)
	}
	return nil, 0, nil
}

func readSnapshotFile(fs faults.FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := readSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("journal: snapshot %s: %w", path, err)
	}
	return data, nil
}

// readSnapshot concatenates r's frames. Any bad or partial frame, and a
// file with no frame at all, fails the whole snapshot: a torn one must
// never be mistaken for a shorter state.
func readSnapshot(r io.Reader) ([]byte, error) {
	data, err := readRecord(r)
	if err == io.EOF {
		return nil, fmt.Errorf("%w: no frames", ErrCorrupt)
	}
	for err == nil {
		var frame []byte
		frame, err = readRecord(r) // nil on error
		data = append(data, frame...)
	}
	if err != io.EOF {
		return nil, err
	}
	return data, nil
}

// compact removes snapshots older than lsn and every sealed segment whose
// records are all <= lsn. The active segment is never removed.
func (j *Journal) compact(lsn uint64) error {
	snaps, err := listSnapshots(j.fs, j.dir)
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s.lsn < lsn {
			if err := j.fs.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("journal: removing stale snapshot: %w", err)
			}
		}
	}
	segs, err := listSegments(j.fs, j.dir)
	if err != nil {
		return err
	}
	j.mu.Lock()
	active := j.firstLSN
	j.mu.Unlock()
	for i, seg := range segs {
		if seg.first == active {
			break
		}
		// A sealed segment's records all precede the next segment's first
		// LSN; it is garbage once that bound is within the snapshot.
		if i+1 >= len(segs) || segs[i+1].first > lsn+1 {
			break
		}
		if err := j.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: removing compacted segment: %w", err)
		}
	}
	if !j.opts.NoSync {
		if err := j.fs.SyncDir(j.dir); err != nil {
			return fmt.Errorf("journal: syncing dir after compaction: %w", err)
		}
	}
	return nil
}
