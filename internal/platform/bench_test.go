package platform

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
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
	return jp, snapshotSize(b, dir)
}

// snapshotSize returns the size of the one snapshot in dir: a compaction
// deletes the snapshots the new one covers.
func snapshotSize(b testing.TB, dir string) int64 {
	b.Helper()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if len(snaps) != 1 {
		b.Fatalf("snapshots %v, want one", snaps)
	}
	st, err := os.Stat(snaps[0])
	if err != nil {
		b.Fatal(err)
	}
	return st.Size()
}

func BenchmarkCompact(b *testing.B) {
	dir := b.TempDir()
	jp, _ := benchShard(b, dir)
	defer jp.Close()
	compact := func(b *testing.B) {
		if _, err := jp.Compact(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(snapshotSize(b, dir))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := jp.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("boot", compact)
	if err := jp.RegisterAdvertiser("adv"); err != nil {
		b.Fatal(err)
	}
	for i, a := range attr.DefaultCatalog().BySource(attr.SourcePlatform)[:16] {
		_, err := jp.CreateCampaign("adv", CampaignParams{
			Spec:         audience.Spec{Expr: attr.Has{ID: a.ID}},
			BidCapCPM:    money.FromDollars(10),
			Creative:     ad.Creative{Headline: fmt.Sprintf("headline %d", i), Body: strings.Repeat("body ", 20), LandingURL: "https://example.com/landing"},
			FrequencyCap: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	delivered := 0
	for _, uid := range jp.Users() {
		imps, err := jp.BrowseFeed(uid, 40)
		if err != nil {
			b.Fatal(err)
		}
		delivered += len(imps)
	}
	b.Run("browsed", func(b *testing.B) {
		compact(b)
		b.ReportMetric(float64(delivered), "impressions")
	})
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
