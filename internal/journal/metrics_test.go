package journal

import (
	"testing"
	"time"

	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/obs"
)

// TestMetrics drives a journal through append, rotation, snapshot, and
// replay, asserting every counter in the family moved.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	gfs := newGateFS(faults.OS{}) // counts the fsyncs the disk actually sees
	j, err := Open(dir, Options{
		SegmentBytes: 64, // rotate after roughly two records
		Metrics:      NewMetrics(reg, "0"),
		FS:           gfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte("payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	fsyncs := uint64(len(gfs.syncStarts())) // before the snapshot file's own
	if err := j.WriteSnapshot(5, fromBytes([]byte("state"))); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	if err := j.Replay(5, func(lsn uint64, payload []byte) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 {
		return reg.CounterVec(name, "", "shard").With("0").Value()
	}
	if got := counter("journal_appends_total"); got != 10 {
		t.Errorf("appends = %d, want 10", got)
	}
	// Every fsync of a segment is a counted, timed group commit — also the
	// one that seals a segment before rotation.
	if got := counter("journal_fsyncs_total"); got != fsyncs || got == 0 {
		t.Errorf("fsyncs = %d, the filesystem saw %d", got, fsyncs)
	}
	if got := counter("journal_segment_rotations_total"); got == 0 {
		t.Error("rotations = 0, want > 0")
	}
	if got := counter("journal_snapshots_total"); got != 1 {
		t.Errorf("snapshots = %d, want 1", got)
	}
	if got := counter("journal_recovered_records_total"); got != uint64(replayed) {
		t.Errorf("recovered = %d, want %d", got, replayed)
	}

	hist := func(name string) obs.HistogramSnapshot {
		return reg.HistogramVec(name, "", "shard").With("0").Snapshot()
	}
	if snap := hist("journal_append_seconds"); snap.Count != 10 {
		t.Errorf("append_seconds count = %d, want 10", snap.Count)
	}
	if snap := hist("journal_fsync_seconds"); snap.Count != fsyncs {
		t.Errorf("fsync_seconds count = %d, want %d", snap.Count, fsyncs)
	}
	if snap := hist("journal_commit_wait_seconds"); snap.Count != 10 {
		t.Errorf("commit_wait_seconds count = %d, want 10", snap.Count)
	}
	if snap := hist("journal_batch_records"); snap.Count != fsyncs || snap.SumNanos != 10*uint64(time.Second) {
		t.Errorf("batch_records = %d batches, %d records; want %d and 10", snap.Count, snap.SumNanos/uint64(time.Second), fsyncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoMetricsOption pins that a journal opened without Options.Metrics
// works (the no-op fallback).
func TestNoMetricsOption(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if j.m.appends.Value() != 1 {
		t.Errorf("noop appends = %d, want 1", j.m.appends.Value())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
