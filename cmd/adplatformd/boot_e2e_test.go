package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSingleProcessBootE2E execs the built binary in the two modes that
// serve the public API over shards of their own — single mode with the
// flag list the benchmark's user_single topology passes, and -shards 3 over
// a journal — and requires each to answer /metrics and a browse, then to
// exit cleanly on SIGTERM.
func TestSingleProcessBootE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary boot e2e: skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "adplatformd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building adplatformd: %v", err)
	}
	journalDir := filepath.Join(dir, "journal")

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"single", []string{"-shards", "1", "-trace-sample", "0", "-compact-every", "0", "-batch-window", "2ms", "-users", "200", "-seed", "3"}},
		{"shards journaled", []string{"-shards", "3", "-journal", journalDir, "-users", "200", "-seed", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddrs(t, 1)[0]
			p := startShard(t, bin, append([]string{"-addr", addr}, tc.args...))
			exited := make(chan error, 1)
			go func() { exited <- p.cmd.Wait() }()
			t.Cleanup(func() { p.cmd.Process.Kill() })

			base := "http://" + addr
			deadline := time.Now().Add(30 * time.Second)
			for {
				resp, err := http.Get(base + "/metrics")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
				select {
				case err := <-exited:
					t.Fatalf("exited during boot: %v", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("no /metrics within 30s: %v", err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			resp, err := http.Post(base+"/api/v1/users/user-000000/browse?slots=3", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("browse: %s", resp.Status)
			}

			if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-exited:
				if err != nil {
					t.Fatalf("exit after SIGTERM: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("still running 15s after SIGTERM")
			}
		})
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(journalDir, fmt.Sprintf("shard-%03d", i))); err != nil {
			t.Errorf("journal of shard %d: %v", i, err)
		}
	}
}
