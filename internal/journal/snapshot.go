package journal

import (
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
// framing, so a snapshot is self-checksumming: the caller's byte stream is
// cut into consecutive frames of snapshotFrameBytes — the last one shorter,
// an empty stream one empty frame — and is the concatenation of every frame
// up to a clean end of file. It is written and read one frame at a time;
// neither direction holds the state. (Earlier builds cut at MaxRecordBytes,
// and the reader takes any frame up to that size.) Once a snapshot lands,
// every segment wholly covered by it — and every older snapshot — is
// garbage and is deleted.
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

	// snapshotFrameBytes is the payload of every snapshot frame but the
	// last, and so the memory a snapshot costs to write or read.
	snapshotFrameBytes = 1 << 20
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
		if validateSnapshot(fs, snaps[i].path) == nil {
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

// validateSnapshot checksums every frame of the snapshot at path, keeping
// none of them.
func validateSnapshot(fs faults.FS, path string) error {
	r, err := openSnapshot(fs, path)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = io.Copy(io.Discard, r)
	return err
}

// WriteSnapshot durably stores the bytes write emits as the state through
// lsn and then compacts the journal: older snapshots are removed and so is
// every segment whose records the snapshot fully covers. write's output is
// framed and written as it arrives, one frame in memory at a time. lsn must
// not exceed the last appended LSN (callers Sync() first, then snapshot at
// LastLSN).
//
// A snapshot failure — write's own error included — is not sticky: the
// journal's segments are untouched, so appends continue and the next
// snapshot attempt may succeed.
func (j *Journal) WriteSnapshot(lsn uint64, write func(io.Writer) error) error {
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
	if err := writeSnapshotFile(j.fs, tmp, write, j.opts.NoSync); err != nil {
		j.fs.Remove(tmp)
		return err
	}
	if err := j.fs.Rename(tmp, snapshotPath(j.dir, lsn)); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("journal: publishing snapshot: %w", err)
	}
	j.mu.Lock()
	j.snapLSN = max(j.snapLSN, lsn)
	j.mu.Unlock()
	if !j.opts.NoSync {
		if err := j.fs.SyncDir(j.dir); err != nil {
			return fmt.Errorf("journal: syncing dir after snapshot: %w", err)
		}
	}
	j.m.snapshots.Inc()
	return j.compact(lsn)
}

func writeSnapshotFile(fs faults.FS, path string, write func(io.Writer) error, noSync bool) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating snapshot: %w", err)
	}
	fw := &frameWriter{w: f, buf: make([]byte, recordHeaderSize, recordHeaderSize+snapshotFrameBytes)}
	if err := write(fw); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	if err := fw.finish(); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: syncing snapshot: %w", err)
		}
	}
	return f.Close()
}

// frameWriter cuts the bytes written to it into frames of snapshotFrameBytes
// and writes each to w as it fills: header and payload share buf, so a frame
// is one Write.
type frameWriter struct {
	w     io.Writer
	buf   []byte // header space, then the payload collected so far
	wrote bool   // a frame, at least
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if len(fw.buf) == cap(fw.buf) {
			if err := fw.flush(); err != nil {
				return len(p) - len(rest), err
			}
		}
		n := copy(fw.buf[len(fw.buf):cap(fw.buf)], rest)
		fw.buf, rest = fw.buf[:len(fw.buf)+n], rest[n:]
	}
	return len(p), nil
}

func (fw *frameWriter) flush() error {
	hdr := recordHeader(fw.buf[recordHeaderSize:])
	copy(fw.buf, hdr[:])
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:recordHeaderSize]
	fw.wrote = true
	return err
}

// finish writes the last, partial frame. An empty stream is one empty
// frame: a snapshot file always holds at least one.
func (fw *frameWriter) finish() error {
	if len(fw.buf) == recordHeaderSize && fw.wrote {
		return nil
	}
	return fw.flush()
}

// Snapshot opens the newest snapshot for reading and returns it with its
// LSN, or (nil, 0, nil) when the journal has no snapshot. The reader
// verifies and yields one frame at a time; a bad or partial frame — Open
// quarantined any such file, so it appeared or was tampered with while the
// journal was running — is a read error wrapping ErrCorrupt, never a short
// state. The caller closes the reader.
func (j *Journal) Snapshot() (io.ReadCloser, uint64, error) {
	snaps, err := listSnapshots(j.fs, j.dir)
	if err != nil || len(snaps) == 0 {
		return nil, 0, err
	}
	newest := snaps[len(snaps)-1]
	r, err := openSnapshot(j.fs, newest.path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: opening snapshot: %w", err)
	}
	return r, newest.lsn, nil
}

func openSnapshot(fs faults.FS, path string) (*frameReader, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return &frameReader{f: f, path: path}, nil
}

// frameReader reads a snapshot file as the stream that was written into it.
// Any bad or partial frame, and a file with no frame at all, is an error: a
// torn snapshot must never be mistaken for a shorter state.
type frameReader struct {
	f       io.ReadCloser // unbuffered: a header and a payload are one read each
	path    string
	frame   []byte // the current frame; the next one reuses its memory
	unread  []byte // the part of frame Read has yet to hand out
	started bool   // a frame has been read
	err     error  // sticky
}

func (fr *frameReader) Close() error { return fr.f.Close() }

func (fr *frameReader) Read(p []byte) (int, error) {
	for len(fr.unread) == 0 && fr.err == nil {
		fr.frame, fr.err = readRecord(fr.f, fr.frame)
		switch {
		case fr.err == nil:
			fr.unread, fr.started = fr.frame, true
		case fr.err == io.EOF && !fr.started:
			fr.err = fmt.Errorf("journal: snapshot %s: %w: no frames", fr.path, ErrCorrupt)
		case fr.err != io.EOF:
			fr.err = fmt.Errorf("journal: snapshot %s: %w", fr.path, fr.err)
		}
	}
	if len(fr.unread) == 0 {
		return 0, fr.err
	}
	n := copy(p, fr.unread)
	fr.unread = fr.unread[n:]
	return n, nil
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
