package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// Two injectors with the same seed must make the identical decision
// sequence at every site; the schedule is a pure function of the seed.
func TestInjectorScheduleDeterministic(t *testing.T) {
	a := NewInjector(42, nil)
	b := NewInjector(42, nil)
	a.Arm(true)
	b.Arm(true)
	sites := []string{"shard0/wal-0000000000000001.log", "node1/browse", "shard2/dir"}
	for i := 0; i < 500; i++ {
		site := sites[i%len(sites)]
		if got, want := a.Hit(site, FSSyncError, 0.3), b.Hit(site, FSSyncError, 0.3); got != want {
			t.Fatalf("draw %d at %s diverged: %v vs %v", i, site, got, want)
		}
		if got, want := a.Magnitude(site, 1000), b.Magnitude(site, 1000); got != want {
			t.Fatalf("magnitude %d at %s diverged: %d vs %d", i, site, got, want)
		}
	}
	if a.Counts()[FSSyncError] != b.Counts()[FSSyncError] {
		t.Fatalf("fire counts diverged")
	}
}

// Per-site schedules must be independent: draws at one site do not shift
// another site's sequence.
func TestInjectorSitesIndependent(t *testing.T) {
	a := NewInjector(7, nil)
	b := NewInjector(7, nil)
	a.Arm(true)
	b.Arm(true)
	// a interleaves a noisy neighbour; b doesn't.
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		a.Hit("noise", FSWriteError, 0.5)
		seqA = append(seqA, a.Hit("target", FSSyncError, 0.5))
		seqB = append(seqB, b.Hit("target", FSSyncError, 0.5))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d at site target shifted by traffic at another site", i)
		}
	}
}

func TestInjectorDisarmedInjectsNothing(t *testing.T) {
	in := NewInjector(1, nil)
	for i := 0; i < 100; i++ {
		if in.Hit("s", FSSyncError, 1.0) {
			t.Fatal("disarmed injector fired")
		}
	}
	if got := in.Opportunities()[FSSyncError]; got != 0 {
		t.Fatalf("disarmed draws counted as opportunities: %d", got)
	}
}

// Crash must truncate every file back to its synced watermark plus a
// deterministic slice of the unsynced tail.
func TestFaultFSCrashDiscardsUnsyncedTail(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		run := func() []byte {
			dir := t.TempDir()
			in := NewInjector(seed, nil)
			ffs := NewFaultFS(OS{}, in, DiskConfig{}, "s/")
			path := filepath.Join(dir, "wal-0000000000000001.log")
			f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("durable-part")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("unsynced-tail-unsynced-tail")); err != nil {
				t.Fatal(err)
			}
			if err := ffs.Crash(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		first, again := run(), run()
		if len(first) < len("durable-part") || string(first[:12]) != "durable-part" {
			t.Fatalf("seed %d: crash ate synced bytes: %q", seed, first)
		}
		if len(first) > len("durable-part")+len("unsynced-tail-unsynced-tail") {
			t.Fatalf("seed %d: crash kept too much: %q", seed, first)
		}
		if string(first) != string(again) {
			t.Fatalf("seed %d: crash tear not deterministic: %q vs %q", seed, first, again)
		}
	}
}

func TestFaultFSSyncErrorInjected(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(9, nil)
	ffs := NewFaultFS(OS{}, in, DiskConfig{SyncError: 1}, "s/")
	in.Arm(true)
	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil || !errors.As(err, new(errInjected)) {
		t.Fatalf("want injected sync error, got %v", err)
	}
	if got := in.Counts()[FSSyncError]; got != 1 {
		t.Fatalf("fire count = %d, want 1", got)
	}
	// The failed sync must not advance the watermark: a crash now drops
	// (a deterministic part of) the unsynced bytes.
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(b) >= 3 {
		t.Fatalf("unsynced bytes survived crash after failed sync: %q", b)
	}
}

func TestFaultFSRenameErrorInjected(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(3, nil)
	ffs := NewFaultFS(OS{}, in, DiskConfig{RenameError: 1}, "s/")
	in.Arm(true)
	src := filepath.Join(dir, "a.tmp")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(src, filepath.Join(dir, "a")); err == nil || !errors.As(err, new(errInjected)) {
		t.Fatalf("want injected rename error, got %v", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("failed rename must leave the source in place: %v", err)
	}
}

// A partitioned transport must fail every request with a dial-shaped
// error (the rpc client's provably-unsent classification) even while the
// injector is disarmed — partitions are topology, not probability.
func TestTransportPartitionLooksLikeDialFailure(t *testing.T) {
	in := NewInjector(5, nil)
	tr := NewTransport(in, NetConfig{}, "node0", nil)
	tr.SetPartitioned(true)
	req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1:1/rpc/v1/browse", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := tr.RoundTrip(req)
	var op *net.OpError
	if rerr == nil || !errors.As(rerr, &op) || op.Op != "dial" {
		t.Fatalf("partitioned round trip = %v, want dial *net.OpError", rerr)
	}
	if got := in.Counts()[NetPartition]; got != 1 {
		t.Fatalf("partition fire count = %d, want 1", got)
	}
	tr.SetPartitioned(false)
	if tr.Partitioned() {
		t.Fatal("heal did not stick")
	}
}

// An injected mid-body reset must surface as a read error after at most
// the scheduled number of bytes, never as a clean EOF.
func TestTransportResetCutsResponseBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	defer srv.Close()
	in := NewInjector(11, nil)
	in.Arm(true)
	tr := NewTransport(in, NetConfig{ResetBody: 1}, "node0", nil)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/rpc/v1/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	if rerr == nil {
		t.Fatalf("read %d bytes with no error; want mid-body reset", len(b))
	}
	if !errors.As(rerr, new(errInjected)) {
		t.Fatalf("want injected reset, got %v", rerr)
	}
	if len(b) >= 4096 {
		t.Fatalf("cut landed after the whole body: %d bytes", len(b))
	}
	if got := in.Counts()[NetResetBody]; got != 1 {
		t.Fatalf("reset fire count = %d, want 1", got)
	}
}

// A duplicated request must reach the server twice while the caller sees
// one normal response.
func TestTransportDuplicateDeliversTwice(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	in := NewInjector(13, nil)
	in.Arm(true)
	tr := NewTransport(in, NetConfig{Duplicate: 1, DuplicableOps: map[string]bool{"users": true}}, "node0", nil)
	cl := &http.Client{Transport: tr}
	resp, err := cl.Post(srv.URL+"/rpc/v1/users", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2", got)
	}
	// Mutations are never duplicated, even at probability 1.
	hits.Store(0)
	resp, err = cl.Post(srv.URL+"/rpc/v1/browse", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := hits.Load(); got != 1 {
		t.Fatalf("mutation delivered %d times, want exactly 1", got)
	}
}
