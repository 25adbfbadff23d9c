package faults

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DiskConfig sets the per-decision probabilities of each filesystem fault.
// The zero value injects nothing (crash tearing via FaultFS.Crash still
// works: it is harness-driven, not probability-driven).
type DiskConfig struct {
	// ShortWrite is the chance a write call persists only a prefix of its
	// buffer and returns an error.
	ShortWrite float64
	// WriteError is the chance a write call fails with nothing written.
	WriteError float64
	// SyncError is the chance an fsync (file or directory) fails. The
	// journal treats a failed segment fsync as fatal and goes sticky.
	SyncError float64
	// RenameError is the chance a rename fails (snapshot publish).
	RenameError float64
}

// errInjected marks every fault this package manufactures, so tests can
// tell injected failures from real ones.
type errInjected struct{ msg string }

func (e errInjected) Error() string { return "faults: injected " + e.msg }

// FaultFS wraps an FS with scheduled write, fsync, and rename faults, and
// simulates whole-process crashes: it tracks, per file, the bytes that an
// acknowledged fsync has made durable versus the bytes merely written, and
// Crash truncates every file back to its durable watermark plus a
// deterministic fraction of the unsynced tail — tearing records exactly
// the way a power cut tears a page-cached segment.
//
// The watermark bookkeeping runs even while the injector is disarmed, so
// a crash after a fault-free round still discards unsynced bytes.
type FaultFS struct {
	base FS
	inj  *Injector
	cfg  DiskConfig
	// prefix namespaces this FS's injection sites (one FaultFS per shard,
	// e.g. "shard0/"), keeping per-shard schedules independent.
	prefix string
	// SkipSync, when true, elides the real fsync syscall on injected
	// filesystems: durability is simulated by the watermark (Crash is the
	// only crash these files face), which keeps chaos runs fast. Leave
	// false to exercise real fsyncs.
	SkipSync bool

	mu    sync.Mutex
	files map[string]*fileTrack // keyed by cleaned path
}

type fileTrack struct {
	size    int64 // bytes physically written to the file
	durable int64 // bytes guaranteed to survive Crash
}

// NewFaultFS wraps base. All decisions draw from inj's schedule under the
// given site prefix.
func NewFaultFS(base FS, inj *Injector, cfg DiskConfig, prefix string) *FaultFS {
	return &FaultFS{
		base:   base,
		inj:    inj,
		cfg:    cfg,
		prefix: prefix,
		files:  make(map[string]*fileTrack),
	}
}

// site maps a path to its stable injection-site name: the prefix plus the
// base filename, so "…/wal-0001.log" draws the same schedule wherever the
// temp dir lands.
func (fs *FaultFS) site(path string) string { return fs.prefix + filepath.Base(path) }

func (fs *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	return fs.base.MkdirAll(dir, perm)
}

func (fs *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) { return fs.base.ReadDir(dir) }

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil // read-only handles need no fault or watermark logic
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	key := filepath.Clean(name)
	fs.mu.Lock()
	tr, ok := fs.files[key]
	if !ok {
		// First sight of this path since boot or the last Crash: whatever
		// is on disk now is the recovered image, durable by definition.
		tr = &fileTrack{size: st.Size(), durable: st.Size()}
		fs.files[key] = tr
	} else {
		tr.size = st.Size()
		if tr.durable > tr.size {
			tr.durable = tr.size
		}
	}
	fs.mu.Unlock()
	return &faultFile{File: f, fs: fs, key: key, site: fs.site(name)}, nil
}

func (fs *FaultFS) Rename(oldpath, newpath string) error {
	if fs.inj.Hit(fs.site(oldpath), FSRenameError, fs.cfg.RenameError) {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath,
			Err: errInjected{"rename error"}}
	}
	if err := fs.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	if tr, ok := fs.files[filepath.Clean(oldpath)]; ok {
		delete(fs.files, filepath.Clean(oldpath))
		fs.files[filepath.Clean(newpath)] = tr
	}
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) Remove(name string) error {
	if err := fs.base.Remove(name); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.files, filepath.Clean(name))
	fs.mu.Unlock()
	return nil
}

func (fs *FaultFS) SyncDir(dir string) error {
	if fs.inj.Hit(fs.prefix+"dir", FSSyncError, fs.cfg.SyncError) {
		return &os.PathError{Op: "fsync", Path: dir, Err: errInjected{"dir sync error"}}
	}
	if fs.SkipSync {
		return nil
	}
	return fs.base.SyncDir(dir)
}

// Crash simulates the process and machine dying: for every write-tracked
// file it truncates the on-disk bytes back to the durable watermark plus a
// deterministic fraction of the unsynced tail (the page cache's partial
// flush), then forgets all tracking — the next OpenFile sees the torn
// image as the recovered disk. The caller must have quiesced all writers;
// handles still open across Crash are abandoned, never reused.
func (fs *FaultFS) Crash() error {
	fs.mu.Lock()
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths) // deterministic tear order
	tracks := make([]*fileTrack, len(paths))
	for i, p := range paths {
		tracks[i] = fs.files[p]
	}
	fs.files = make(map[string]*fileTrack)
	fs.mu.Unlock()

	for i, p := range paths {
		tr := tracks[i]
		if tr.size <= tr.durable {
			continue
		}
		unsynced := tr.size - tr.durable
		keep := tr.durable + int64(fs.inj.Magnitude(fs.site(p)+"#crash", int(unsynced)+1))
		if keep >= tr.size {
			continue // the whole tail happened to hit disk
		}
		f, err := fs.base.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			if os.IsNotExist(err) {
				continue // created but never made durable; treat as lost
			}
			return fmt.Errorf("faults: crash truncate %s: %w", p, err)
		}
		terr := f.Truncate(keep)
		cerr := f.Close()
		if terr != nil {
			return fmt.Errorf("faults: crash truncate %s: %w", p, terr)
		}
		if cerr != nil {
			return fmt.Errorf("faults: crash truncate %s: %w", p, cerr)
		}
		fs.inj.Record(FSCrashTear)
	}
	return nil
}

// faultFile interposes on the write-side calls of one open handle.
type faultFile struct {
	File
	fs   *FaultFS
	key  string
	site string
}

func (f *faultFile) track() *fileTrack {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	tr, ok := f.fs.files[f.key]
	if !ok {
		// Reinstated after a Crash raced an abandoned handle; keep
		// bookkeeping sane rather than panic.
		tr = &fileTrack{}
		f.fs.files[f.key] = tr
	}
	return tr
}

func (f *faultFile) Write(p []byte) (int, error) {
	cfg := f.fs.cfg
	if f.fs.inj.Hit(f.site, FSWriteError, cfg.WriteError) {
		return 0, &os.PathError{Op: "write", Path: f.key, Err: errInjected{"write error"}}
	}
	if f.fs.inj.Hit(f.site, FSShortWrite, cfg.ShortWrite) && len(p) > 0 {
		n := f.fs.inj.Magnitude(f.site+"#short", len(p))
		n, err := f.File.Write(p[:n])
		f.advance(int64(n))
		if err == nil {
			err = &os.PathError{Op: "write", Path: f.key, Err: errInjected{"short write"}}
		}
		return n, err
	}
	n, err := f.File.Write(p)
	f.advance(int64(n))
	return n, err
}

func (f *faultFile) advance(n int64) {
	if n <= 0 {
		return
	}
	tr := f.track()
	f.fs.mu.Lock()
	tr.size += n
	f.fs.mu.Unlock()
}

func (f *faultFile) Sync() error {
	if f.fs.inj.Hit(f.site, FSSyncError, f.fs.cfg.SyncError) {
		return &os.PathError{Op: "fsync", Path: f.key, Err: errInjected{"sync error"}}
	}
	if !f.fs.SkipSync {
		if err := f.File.Sync(); err != nil {
			return err
		}
	}
	tr := f.track()
	f.fs.mu.Lock()
	tr.durable = tr.size
	f.fs.mu.Unlock()
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	tr := f.track()
	f.fs.mu.Lock()
	if tr.size > size {
		tr.size = size
	}
	if tr.durable > size {
		tr.durable = size
	}
	f.fs.mu.Unlock()
	return nil
}
