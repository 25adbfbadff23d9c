//go:build !race

package main

import (
	"io"
	"log"
	"runtime"
	"testing"
)

// TestBootAllocs is the tripwire on what one un-journaled boot of
// BenchmarkBootSingle's 12 000 users allocates, generating the population
// and adding every user. The store and the index are sized for the users
// the boot announces, and the index grows no posting list: about 14.5 MB
// (14.9 on a process's first boot, which interns the catalog). Growing the
// store, the index and every list user by user cost about 20.1 MB.
// Excluded under -race, whose instrumentation allocates.
func TestBootAllocs(t *testing.T) {
	opts := parseForTest(t, "-users", "12000")
	logger := log.New(io.Discard, "", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := openMember(opts, 0, 1, "", logger)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Users()); n != 12000 {
		t.Fatalf("booted %d users, want 12000", n)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("one boot of 12 000 users allocated %d bytes", allocated)
	if allocated >= 16<<20 {
		t.Fatalf("one boot of 12 000 users allocated %d bytes, want under 16 MiB", allocated)
	}
}
