package platform

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// The two benchmarks below are tripwires on what the snapshot channel costs
// a shard of the benchmark's size — 6 000 generated users, no fsync — in
// time and, with -benchmem, in bytes allocated per compaction and per
// recovery. MB/s is over the snapshot file.

// benchShard boots a journaled shard in dir and returns it with the size of
// the boot snapshot it wrote.
func benchShard(b testing.TB, dir string) (*Journaled, int64) {
	b.Helper()
	jp, err := OpenJournaled(dir, journal.Options{NoSync: true}, func() (*Platform, error) {
		p := New(Config{Seed: 1})
		cfg := workload.DefaultConfig()
		cfg.Users = 6000
		cfg.Catalog = p.Catalog()
		var err error
		workload.Each(cfg, func(u *profile.Profile) {
			if err == nil {
				err = p.AddUser(u)
			}
		})
		return p, err
	})
	if err != nil {
		b.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if len(snaps) != 1 {
		b.Fatalf("boot left snapshots %v, want one", snaps)
	}
	st, err := os.Stat(snaps[0])
	if err != nil {
		b.Fatal(err)
	}
	return jp, st.Size()
}

func BenchmarkCompact(b *testing.B) {
	jp, size := benchShard(b, b.TempDir())
	defer jp.Close()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jp.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	jp, size := benchShard(b, dir)
	if err := jp.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jp, err := OpenJournaled(dir, journal.Options{NoSync: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		jp.Close()
		b.StartTimer()
	}
}
