package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/trace"
)

// TestMultiProcessTraceAssembly is the acceptance test for distributed
// tracing: a router (with the edge gateway in front) and two shard-node
// subprocesses, every request sampled. One browse must surface on
// GET /admin/v1/trace as ONE trace whose spans cross the process
// boundary — gateway admission and the HTTP route on the router, the
// RPC server, delivery, and the journal append on the owning shard —
// with parent links intact across the traceparent hop.
func TestMultiProcessTraceAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process trace e2e: skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "adplatformd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building adplatformd: %v", err)
	}

	const (
		nShards = 2
		secret  = "trace-e2e-secret"
	)
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath, []byte(`{"tenants": [{"name": "alpha", "key": "agency-alpha-key-0001"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}

	addrs := freeAddrs(t, nShards+1)
	routerAddr := addrs[nShards]
	var procs []*shardProc
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	})
	for i := 0; i < nShards; i++ {
		procs = append(procs, startShard(t, bin, []string{
			"-shard-serve",
			"-shard-index", fmt.Sprint(i),
			"-shard-count", fmt.Sprint(nShards),
			"-addr", addrs[i],
			"-journal", filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			"-rpc-secret", secret,
			"-users", "40",
			"-seed", "7",
			"-trace-sample", "1",
		}))
	}
	procs = append(procs, startShard(t, bin, []string{
		"-peers", strings.Join(addrs[:nShards], ","),
		"-addr", routerAddr,
		"-rpc-secret", secret,
		"-gateway",
		"-keys", keysPath,
		"-seed", "7",
		"-trace-sample", "1",
	}))

	// The router gates startup on shard health; poll until its public
	// surface answers.
	base := "http://" + routerAddr
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("router not serving within 30s (last: %v)", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// One browse through the full stack. With -trace-sample 1 the edge
	// samples it and echoes the trace ID.
	resp, err := http.Post(base+"/api/v1/users/user-000007/browse?slots=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("browse: status %d", resp.StatusCode)
	}
	tid := resp.Header.Get("X-Trace-Id")
	if len(tid) != 32 {
		t.Fatalf("browse response X-Trace-Id = %q, want a 32-hex trace ID", tid)
	}

	// The dump stitches router-local spans with spans fetched live from
	// every shard ring. The gateway span finishes a hair after the
	// response reaches us, so poll briefly for the fully assembled trace.
	wantNames := []string{
		"gateway",
		"http POST /api/v1/users/{id}/browse",
		"cluster.route",
		"rpc.call browse",
		"rpc.server browse",
		"journal.append",
		"delivery.browse",
	}
	var tr trace.TraceWire
	deadline = time.Now().Add(10 * time.Second)
	for {
		tr = fetchTrace(t, base, tid)
		if missing := missingSpans(tr, wantNames); len(missing) == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("trace %s never assembled: missing spans %v (have %v)", tid, missing, spanNames(tr))
		}
		time.Sleep(200 * time.Millisecond)
	}

	byName := make(map[string]trace.SpanWire, len(tr.Spans))
	ids := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.TraceID != tid {
			t.Fatalf("span %q carries trace ID %s inside trace %s", s.Name, s.TraceID, tid)
		}
		byName[s.Name] = s
		ids[s.SpanID] = true
	}

	// The parent chain: gateway is the root; each hop links to the one
	// above it, including the cross-process rpc.call -> rpc.server edge
	// carried by the traceparent header.
	if p := byName["gateway"].Parent; p != "" {
		t.Fatalf("gateway span has parent %s, want none (edge root)", p)
	}
	for child, parent := range map[string]string{
		"http POST /api/v1/users/{id}/browse": "gateway",
		"cluster.route":                       "http POST /api/v1/users/{id}/browse",
		"rpc.call browse":                     "cluster.route",
		"rpc.server browse":                   "rpc.call browse",
	} {
		if got, want := byName[child].Parent, byName[parent].SpanID; got != want {
			t.Fatalf("%s parent = %s, want %s's span ID %s", child, got, parent, want)
		}
	}
	// The shard-side spans below the RPC server parent somewhere inside
	// the trace (their exact nesting is the journal's business).
	for _, name := range []string{"journal.append", "delivery.browse"} {
		if p := byName[name].Parent; !ids[p] {
			t.Fatalf("%s parent %s is not a span of this trace", name, p)
		}
	}

	// The append span's events split a write into op-lock wait, apply
	// under the lock, and the durability wait — in that order.
	var events []string
	last := int64(0)
	for _, ev := range byName["journal.append"].Events {
		if ev.OffsetNS < last {
			t.Fatalf("journal.append event %s at %dns precedes the one before it (%dns)", ev.Name, ev.OffsetNS, last)
		}
		events, last = append(events, ev.Name), ev.OffsetNS
	}
	if got, want := strings.Join(events, " "), "op_lock_acquired group_commit_wait durable"; got != want {
		t.Fatalf("journal.append events = %q, want %q", got, want)
	}

	// Services prove the spans really came from different processes.
	for _, name := range []string{"gateway", "cluster.route", "rpc.call browse"} {
		if svc := byName[name].Service; svc != "router" {
			t.Fatalf("%s service = %q, want router", name, svc)
		}
	}
	for _, name := range []string{"rpc.server browse", "journal.append", "delivery.browse"} {
		if svc := byName[name].Service; !strings.HasPrefix(svc, "shard-") {
			t.Fatalf("%s service = %q, want a shard node", name, svc)
		}
	}
}

// fetchTrace pulls /admin/v1/trace filtered to one trace ID and decodes
// the single NDJSON line (an empty TraceWire if the trace is not there
// yet).
func fetchTrace(t *testing.T, base, tid string) trace.TraceWire {
	t.Helper()
	resp, err := http.Get(base + "/admin/v1/trace?trace_id=" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace dump: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace dump Content-Type = %q, want application/x-ndjson", ct)
	}
	var out trace.TraceWire
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var tw trace.TraceWire
		if err := json.Unmarshal(sc.Bytes(), &tw); err != nil {
			t.Fatalf("trace dump line %q: %v", sc.Text(), err)
		}
		if tw.TraceID == tid {
			out = tw
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func missingSpans(tr trace.TraceWire, names []string) []string {
	have := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		have[s.Name] = true
	}
	var missing []string
	for _, n := range names {
		if !have[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

func spanNames(tr trace.TraceWire) []string {
	names := make([]string, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		names = append(names, s.Name)
	}
	return names
}
