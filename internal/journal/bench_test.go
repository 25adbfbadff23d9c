package journal

import (
	"fmt"
	"testing"
	"time"
)

// Journal benchmarks follow the repo convention: exercise the same code
// path production uses and report the headline metric via b.ReportMetric.
// Append benchmarks write 128-byte payloads (roughly one serialized
// platform mutation).

const benchPayloadSize = 128

func benchPayload() []byte {
	p := make([]byte, benchPayloadSize)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// BenchmarkAppendSyncEach is the no-coalescing baseline: a single
// appender, every Append paying its own fsync.
func BenchmarkAppendSyncEach(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p := benchPayload()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendLone is the idle-shard case: one appender whose every
// Append finds the journal idle for a couple of milliseconds (the untimed
// sleep). It must read about one fsync (BenchmarkAppendSyncEach), not the
// idle gap plus one.
func BenchmarkAppendLone(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p := benchPayload()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		time.Sleep(2 * time.Millisecond)
		b.StartTimer()
		if _, err := j.Append(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSerial is one appender coming straight back: it must read
// about one fsync too, and every append has its own.
func BenchmarkAppendSerial(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p := benchPayload()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(j.m.fsyncs.Value())/float64(b.N), "fsyncs/op")
}

// BenchmarkAppendGroupCommit runs 8 appenders per CPU: appends that arrive
// while an fsync runs share the next one.
func BenchmarkAppendGroupCommit(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p := benchPayload()
	b.SetBytes(benchPayloadSize)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := j.Append(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(j.m.appends.Value())/float64(j.m.fsyncs.Value()), "records/fsync")
}

// BenchmarkAppendNoSync isolates framing + buffered-write cost with
// durability off.
func BenchmarkAppendNoSync(b *testing.B) {
	j, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p := benchPayload()
	b.SetBytes(benchPayloadSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures recovery speed in records/sec over a 10k-record
// journal spanning several segments.
func BenchmarkReplay(b *testing.B) {
	const records = 10_000
	j, err := Open(b.TempDir(), Options{SegmentBytes: 1 << 20, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < records; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("replay-record-%06d-%032d", i, i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		err := j.Replay(0, func(lsn uint64, payload []byte) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/sec")
	}
}
