package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/profile"
)

// goroutineID parses the running goroutine's ID from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// settledGoroutines waits briefly for the goroutine count to fall to want,
// then reports it: a goroutine that closed its channel a moment ago may
// still be counted until it is scheduled out. A count below want is a
// goroutine of an earlier test exiting.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestEachKeptPipelineContract pins what EachKept's two stages promise its
// caller: fn runs on the caller's goroutine, once per kept user and in
// generation order, over several hand-overs; and the helper is gone when
// EachKept returns, when fn panics (the panic reaches the caller), and when
// the helper itself panics (its panic is raised on the caller's goroutine).
func TestEachKeptPipelineContract(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 5*batchSize + 17
	caller := goroutineID()
	before := runtime.NumGoroutine()
	for _, every := range []int{1, 3} {
		keep := func(u profile.UserID) bool {
			var i int
			fmt.Sscanf(string(u), "user-%d", &i)
			return i%every == 0
		}
		next := 0
		EachKept(cfg, keep, func(p *profile.Profile) {
			if g := goroutineID(); g != caller {
				t.Fatalf("fn ran on goroutine %s, want the caller's %s", g, caller)
			}
			if want := profile.UserID(fmt.Sprintf("user-%06d", next)); p.ID != want {
				t.Fatalf("keeping every %d: got %s, want %s", every, p.ID, want)
			}
			next += every
		})
		if next < cfg.Users {
			t.Fatalf("keeping every %d: fn stopped before user %d of %d", every, next, cfg.Users)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("keeping every %d: %d goroutines after EachKept, %d before", every, n, before)
		}
	}

	panics := func(name string, keep func(profile.UserID) bool, fn func(*profile.Profile), want any) {
		t.Helper()
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Fatalf("%s: recovered %v, want %v", name, got, want)
				}
			}()
			EachKept(cfg, keep, fn)
		}()
		if n := settledGoroutines(before); n > before {
			t.Fatalf("%s: %d goroutines after EachKept, %d before", name, n, before)
		}
	}
	panics("fn panics", nil, func(*profile.Profile) { panic("fn") }, "fn")
	panics("keep panics", func(u profile.UserID) bool {
		if u == "user-000600" {
			panic("keep")
		}
		return true
	}, func(*profile.Profile) {}, "keep")
}
