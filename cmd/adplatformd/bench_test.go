package main

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// BenchmarkBootShard times one fresh journaled boot of slot 0 of a 2-slot
// ring at the benchmark harness's 12 000 users, as a shard node boots it:
// generating the population, adding the users the slot keeps, and writing
// the boot snapshot.
func BenchmarkBootShard(b *testing.B) {
	logger := log.New(io.Discard, "", 0)
	opts := parseForTest(b, "-users", "12000", "-shard-serve", "-shard-count", "2")
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		mb, err := openMember(opts, 0, 2, dir, logger)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := mb.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
