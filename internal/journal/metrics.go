package journal

import (
	"github.com/treads-project/treads/internal/obs"
)

// Metrics is a journal's instrumentation, one set per journal (per shard,
// in a cluster). Construct with NewMetrics and pass via Options.Metrics;
// journals opened without one count into a nil registry's unexported
// instruments, so the append and fsync paths never branch on nil.
type Metrics struct {
	appendSeconds     *obs.Histogram // framing + buffer copy under the journal lock
	fsyncSeconds      *obs.Histogram // write+fsync (+rotation) time per group commit
	commitWaitSeconds *obs.Histogram // per record: appended → durable
	// batchRecords counts records per group commit. The histogram type is
	// integer buckets exported at 1e-9 scale, so n records are observed as
	// n seconds and read back as plain n.
	batchRecords     *obs.Histogram
	appends          *obs.Counter
	fsyncs           *obs.Counter
	rotations        *obs.Counter
	snapshots        *obs.Counter
	recoveredRecords *obs.Counter
}

// NewMetrics registers (or finds) the journal metric families in reg and
// resolves their children for the given shard label.
func NewMetrics(reg *obs.Registry, shard string) *Metrics {
	return &Metrics{
		appendSeconds: reg.HistogramVec("journal_append_seconds",
			"Write-ahead journal append time: record framing and the copy into the pending buffer, under the journal lock; never includes disk I/O.",
			"shard").With(shard),
		fsyncSeconds: reg.HistogramVec("journal_fsync_seconds",
			"Write-ahead journal group-commit time: batch write plus fsync of the active segment, plus its rotation when the batch fills it.",
			"shard").With(shard),
		commitWaitSeconds: reg.HistogramVec("journal_commit_wait_seconds",
			"Per record, time from its append returning to its durability wait returning: caller work after the append, queueing behind a running fsync, and the fsync that covers it.",
			"shard").With(shard),
		batchRecords: reg.HistogramVec("journal_batch_records",
			"Records made durable per group commit (a count, not seconds): sum is records, count is fsyncs.",
			"shard").With(shard),
		appends: reg.CounterVec("journal_appends_total",
			"Records appended to the write-ahead journal.",
			"shard").With(shard),
		fsyncs: reg.CounterVec("journal_fsyncs_total",
			"Group commits (flush+fsync batches) the journal has performed.",
			"shard").With(shard),
		rotations: reg.CounterVec("journal_segment_rotations_total",
			"Segment rotations: active segment sealed and a fresh one opened.",
			"shard").With(shard),
		snapshots: reg.CounterVec("journal_snapshots_total",
			"Snapshots written (each followed by compaction of covered segments).",
			"shard").With(shard),
		recoveredRecords: reg.CounterVec("journal_recovered_records_total",
			"Records replayed from the journal during recovery and reads.",
			"shard").With(shard),
	}
}
