package journal

// Tests for the group-commit flush path: a flush leader fsyncs the moment it
// is elected (one fsync per serial write, the next batch as soon as the
// previous one publishes), appends proceed while the disk syncs, and
// recovery holds after a crash at any filesystem call with concurrent
// appenders and constant rotation.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/faults"
)

// gateFS is a faults.FS whose files record when each Sync was entered and,
// while a gate is installed, block inside Sync until the gate is closed.
type gateFS struct {
	faults.FS
	entered chan struct{} // one token per Sync entry

	mu     sync.Mutex
	starts []time.Time
	gate   chan struct{}
}

func newGateFS(base faults.FS) *gateFS {
	// Buffered past any test's fsync count, so Sync never blocks on it.
	return &gateFS{FS: base, entered: make(chan struct{}, 4096)}
}

// block installs a gate and returns the function that opens it; calling it
// again is harmless, so a test can also defer it against its failure paths.
func (g *gateFS) block() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.gate = nil
			g.mu.Unlock()
			close(gate)
		})
	}
}

func (g *gateFS) syncStarts() []time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]time.Time(nil), g.starts...)
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	faults.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	g := f.fs
	g.mu.Lock()
	g.starts = append(g.starts, time.Now())
	gate := g.gate
	g.mu.Unlock()
	g.entered <- struct{}{}
	if gate != nil {
		<-gate
	}
	return f.File.Sync()
}

// within fails the test if fn has not returned after a generous bound: the
// tests below assert that calls do not block, and a blocked call would
// otherwise hang until the package timeout.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// A lone append on an idle journal costs one fsync, not the window. The
// deprecated window is set to show it is ignored.
func TestLoneAppendDoesNotWaitOutWindow(t *testing.T) {
	const window = 250 * time.Millisecond
	gfs := newGateFS(faults.OS{})
	j := openT(t, t.TempDir(), Options{BatchWindow: window, FS: gfs})
	defer j.Close()
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := j.Append([]byte("lone")); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > window/2 {
			t.Fatalf("lone append %d took %v with a %v window: it slept on an idle journal", i, d, window)
		}
		time.Sleep(window) // idle again
	}
	if n := len(gfs.syncStarts()); n != 2 {
		t.Fatalf("%d fsyncs for two lone appends, want 2", n)
	}
}

// While an fsync is running, AppendBuffered returns at once, and everything
// appended meanwhile is covered by exactly one further fsync.
func TestAppendsProceedDuringFsync(t *testing.T) {
	const queued = 32
	gfs := newGateFS(faults.OS{})
	j := openT(t, t.TempDir(), Options{FS: gfs})
	defer j.Close()

	release := gfs.block()
	defer release()
	first := make(chan error, 1)
	go func() {
		_, err := j.Append([]byte("first"))
		first <- err
	}()
	<-gfs.entered // the leader is inside Sync, holding no journal lock

	waits := make([]func() error, queued)
	within(t, "AppendBuffered during a blocked fsync", func() {
		for i := range waits {
			lsn, wait, err := j.AppendBuffered([]byte(fmt.Sprintf("queued-%02d", i)))
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if want := uint64(i + 2); lsn != want {
				t.Errorf("append %d got LSN %d, want %d", i, lsn, want)
			}
			waits[i] = wait
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if got := j.LastLSN(); got != queued+1 {
		t.Fatalf("LastLSN during the fsync = %d, want %d", got, queued+1)
	}

	var wg sync.WaitGroup
	for _, wait := range waits {
		wg.Add(1)
		go func(wait func() error) {
			defer wg.Done()
			if err := wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		}(wait)
	}
	release()
	within(t, "waiters after the fsync was released", wg.Wait)
	if err := <-first; err != nil {
		t.Fatalf("first append: %v", err)
	}
	if n := len(gfs.syncStarts()); n != 2 {
		t.Fatalf("%d fsyncs, want 2: one in flight plus one for the %d records queued behind it", n, queued)
	}
	batches := j.m.batchRecords.Snapshot()
	if batches.Count != 2 || batches.SumNanos != uint64((queued+1)*time.Second) {
		t.Fatalf("batch_records = %d batches, %d records; want 2 and %d",
			batches.Count, batches.SumNanos/uint64(time.Second), queued+1)
	}
	if lsns, _ := collect(t, j, 0); len(lsns) != queued+1 {
		t.Fatalf("replayed %d records, want %d", len(lsns), queued+1)
	}
}

// A writer appending back to back pays one fsync per write and nothing
// more, from its first append onwards. The deprecated window is set to show
// it is ignored.
func TestSerialWriterPaysOneFsyncPerWrite(t *testing.T) {
	const (
		window = 100 * time.Millisecond
		writes = 40
	)
	gfs := newGateFS(faults.OS{})
	j := openT(t, t.TempDir(), Options{BatchWindow: window, FS: gfs})
	defer j.Close()
	start := time.Now()
	for i := 0; i < writes; i++ {
		if _, err := j.Append([]byte("serial")); err != nil {
			t.Fatal(err)
		}
		if n := len(gfs.syncStarts()); n != i+1 {
			t.Fatalf("%d fsyncs after %d serial appends, want one each", n, i+1)
		}
	}
	if d := time.Since(start); d > writes*window/2 {
		t.Fatalf("%d back-to-back appends took %v with a %v window: a flush waited before its fsync", writes, d, window)
	}
}

// Two writers taking turns — each appends while the other's fsync runs: the
// record appended during a's fsync is flushed the moment a's publishes. The
// deprecated 100 ms window is set to show it is ignored: the gap is
// scheduling only.
func TestNextFlushStartsWhenThePreviousPublishes(t *testing.T) {
	const window = 100 * time.Millisecond
	gfs := newGateFS(faults.OS{})
	j := openT(t, t.TempDir(), Options{BatchWindow: window, FS: gfs})
	defer j.Close()
	for r := 0; r < 3; r++ {
		release := gfs.block()
		defer release()
		a := make(chan error, 1)
		go func() {
			_, err := j.Append([]byte("writer a"))
			a <- err
		}()
		<-gfs.entered // a's fsync is running
		_, waitB, err := j.AppendBuffered([]byte("writer b"))
		if err != nil {
			t.Fatal(err)
		}
		released := time.Now()
		release()
		if err := waitB(); err != nil {
			t.Fatal(err)
		}
		if err := <-a; err != nil {
			t.Fatal(err)
		}
		<-gfs.entered // b's
		starts := gfs.syncStarts()
		if n := len(starts); n != 2*(r+1) {
			t.Fatalf("%d fsyncs after round %d, want one per record", n, r)
		}
		if gap := starts[2*r+1].Sub(released); gap > window/2 {
			t.Fatalf("round %d: b's fsync started %v after a's was released, want at once (the %v window is ignored)", r, gap, window)
		}
	}
}

// Sync, TailSince and Close lead a flush like any waiter: with nothing
// pending they do not touch the disk, and with records pending each leads
// exactly one fsync for all of them.
func TestIdleJournalOpsDoNotWaitOutWindow(t *testing.T) {
	gfs := newGateFS(faults.OS{})
	j := openT(t, t.TempDir(), Options{FS: gfs})
	if _, err := j.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync with nothing pending: %v", err)
	}
	if n := len(gfs.syncStarts()); n != 1 {
		t.Fatalf("Sync with nothing pending ran an fsync (%d total)", n)
	}
	for _, op := range []struct {
		what string
		fn   func() error
	}{
		{"Sync", j.Sync},
		{"TailSince", func() error { return j.TailSince(0, func(uint64, []byte) error { return nil }) }},
		{"Close", j.Close},
	} {
		for i := 0; i < 2; i++ {
			if _, _, err := j.AppendBuffered([]byte("buffered")); err != nil {
				t.Fatal(err)
			}
		}
		if err := op.fn(); err != nil {
			t.Fatalf("%s: %v", op.what, err)
		}
	}
	if n := len(gfs.syncStarts()); n != 4 {
		t.Fatalf("%d fsyncs, want 4: the append, then one each for Sync, TailSince and Close", n)
	}
}

var errKilled = errors.New("killfs: process is dead")

// killFS lets a budget of mutating filesystem calls through and fails every
// one after it: to the journal, the process died at that call. Wrapped
// around a FaultFS, whose Crash then tears whatever was not fsynced.
type killFS struct {
	faults.FS
	left atomic.Int64
}

func (k *killFS) step() error {
	if k.left.Add(-1) < 0 {
		return errKilled
	}
	return nil
}

func (k *killFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return k.FS.OpenFile(name, flag, perm)
	}
	if err := k.step(); err != nil {
		return nil, err
	}
	f, err := k.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &killFile{File: f, fs: k}, nil
}

func (k *killFS) SyncDir(dir string) error {
	if err := k.step(); err != nil {
		return err
	}
	return k.FS.SyncDir(dir)
}

type killFile struct {
	faults.File
	fs *killFS
}

func (f *killFile) Write(p []byte) (int, error) {
	if err := f.fs.step(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *killFile) Sync() error {
	if err := f.fs.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

// Concurrent appenders, a segment that rotates every few records, and a
// crash at a seeded filesystem call (mid-write, before or after the fsync,
// or anywhere inside a rotation), three times over per seed. After each
// reopen: every acknowledged record is present, LSNs are contiguous from
// 1, every segment is named after its first record, and nothing that was
// not acknowledged is required.
func TestCrashRecoveryUnderConcurrentAppends(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			crashRecoveryRound(t, seed)
		})
	}
}

func crashRecoveryRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ffs := faults.NewFaultFS(faults.OS{}, faults.NewInjector(uint64(seed), nil), faults.DiskConfig{}, "t/")
	ffs.SkipSync = true // the durable watermark is what Crash consults
	kfs := &killFS{FS: ffs}
	opts := Options{FS: kfs, SegmentBytes: 256}

	acked := make(map[uint64]string)
	for round := 0; round < 3; round++ {
		kfs.left.Store(1 << 40) // recovery itself is not under test
		j := openT(t, dir, opts)
		kfs.left.Store(int64(5 + rng.Intn(120)))

		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					p := fmt.Sprintf("round%d-g%d-i%04d", round, g, i)
					lsn, err := j.Append([]byte(p))
					if err != nil {
						if !errors.Is(err, ErrFailed) {
							t.Errorf("append after the kill = %v, want ErrFailed", err)
						}
						return
					}
					mu.Lock()
					acked[lsn] = p
					mu.Unlock()
				}
			}(g)
		}
		within(t, "appenders after the journal failed", wg.Wait)
		j.Close() // the journal is failed; this only releases the handle
		if err := ffs.Crash(); err != nil {
			t.Fatal(err)
		}
		kfs.left.Store(1 << 40)
		checkRecovered(t, dir, opts, acked)
	}
}

// checkRecovered reopens dir and verifies the recovery invariants against
// the acknowledged records.
func checkRecovered(t *testing.T, dir string, opts Options, acked map[uint64]string) {
	t.Helper()
	j := openT(t, dir, opts)
	defer j.Close()
	lsns, payloads := collect(t, j, 0)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("replayed LSN %d at position %d: not contiguous from 1", lsn, i)
		}
	}
	for lsn, want := range acked {
		if lsn > uint64(len(lsns)) {
			t.Fatalf("acknowledged LSN %d (%s) lost: log ends at %d", lsn, want, len(lsns))
		}
		if got := string(payloads[lsn-1]); got != want {
			t.Fatalf("LSN %d recovered as %q, acknowledged as %q", lsn, got, want)
		}
	}
	if got := j.LastLSN(); got != uint64(len(lsns)) {
		t.Fatalf("LastLSN = %d, replay saw %d records", got, len(lsns))
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	for _, seg := range segs {
		if seg.first != next {
			t.Fatalf("segment %s is named for LSN %d but its first record is LSN %d", seg.path, seg.first, next)
		}
		last, err := replaySegment(opts.FS, seg, 0, false, func(uint64, []byte) error { return nil })
		if err != nil {
			t.Fatalf("scanning %s: %v", seg.path, err)
		}
		next = last + 1
	}
	if next != uint64(len(lsns))+1 {
		t.Fatalf("segments hold LSNs through %d, replay saw %d", next-1, len(lsns))
	}
}
