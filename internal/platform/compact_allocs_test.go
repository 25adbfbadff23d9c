//go:build !race

package platform

import (
	"runtime"
	"testing"
)

// TestCompactAllocs is the tripwire on what one compaction of the
// benchmark's shard — 6 000 generated users, no fsync — allocates. Encoding
// the profiles from the live store costs about a frame and the state less
// its profiles; copying the platform into a State first, and handing each
// profile to encoding/json, cost about 11 MB. Excluded under -race, whose
// instrumentation allocates.
func TestCompactAllocs(t *testing.T) {
	jp, _ := benchShard(t, t.TempDir())
	defer jp.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := jp.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Compact allocated %d bytes", allocated)
	if allocated >= 2<<20 {
		t.Fatalf("one Compact of a 6 000-user shard allocated %d bytes, want under 2 MiB", allocated)
	}
}
