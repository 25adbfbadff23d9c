package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one daemon the harness started. It runs in its own process
// group, with stderr in a file that is kept when the run fails.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr string
	done   chan struct{} // closed once Wait has returned
}

// live is every process not yet reaped, so that any exit path (error,
// signal, panic) can kill what is left.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

func startProc(name, bin, addr, logDir string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: addr, stderr: filepath.Join(logDir, name+".stderr"), done: make(chan struct{})}
	f, err := os.Create(p.stderr)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = f
	p.cmd.Env = daemonEnv()
	// Own process group so one kill(-pgid) takes the whole child tree;
	// Pdeathsig covers the harness itself being SIGKILLed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	go func() {
		_ = p.cmd.Wait() // a killed daemon's exit status carries nothing
		close(p.done)
	}()
	return p, nil
}

// daemonEnv is the harness's environment without the Go runtime knobs, so a
// developer's GOGC or GOMAXPROCS never changes what is measured.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS", "GODEBUG", "GOTRACEBACK", "ADPLATFORM_RPC_SECRET":
		default:
			env = append(env, kv)
		}
	}
	return env
}

// kill SIGKILLs the process group and waits until the process has ended.
// Daemons are never drained: their state is verified over the API first,
// and a graceful stop would spend a second on a final snapshot.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH if already gone
	<-p.done
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stderrTail returns the last lines of the process's stderr.
func (p *proc) stderrTail() string {
	raw, err := os.ReadFile(p.stderr)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls check until it succeeds. A process that exits first (a
// shard refusing its boot snapshot, say) fails the run at once with its
// stderr tail instead of timing out.
func (p *proc) waitReady(ctx context.Context, check func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var last error
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot:\n%s", p.name, p.stderrTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %v (last: %v)\n%s", p.name, ctx.Err(), last, p.stderrTail())
		default:
		}
		if last = check(ctx); last == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// freeAddr probes the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func httpOK(ctx context.Context, hc *http.Client, url, bearer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// topology is one booted deployment: the public base URL plus the server
// processes behind it.
type topology struct {
	base   string
	router *proc // the single process on user_single
	shards []*proc
}

func (t *topology) servers() []*proc { return append([]*proc{t.router}, t.shards...) }

// stderrTails is the end of every server's stderr, for a failed run's error.
func (t *topology) stderrTails() string {
	var b strings.Builder
	for _, p := range t.servers() {
		fmt.Fprintf(&b, "--- %s stderr:\n%s\n", p.name, p.stderrTail())
	}
	return b.String()
}

// peakRSSMB is every server's peak resident set so far.
func (t *topology) peakRSSMB() ([]float64, error) {
	var out []float64
	for _, p := range t.servers() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		out = append(out, mb)
	}
	return out, nil
}

func (t *topology) kill() {
	for _, p := range t.servers() {
		if p != nil {
			p.kill()
		}
	}
}

// daemonFlags are the flags every daemon runs with, recorded as a fact.
var daemonFlags = []string{"-trace-sample", "0", "-compact-every", "0", "-batch-window", "2ms"}

// bootTopology starts the workload's processes under dir and returns once
// all are healthy: shards answer /metrics and rpc health, the public
// process answers /metrics.
func bootTopology(ctx context.Context, w workload, bin string, seed uint64, dir string) (*topology, error) {
	t := &topology{}
	ok := false
	defer func() {
		if !ok {
			t.kill()
		}
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	common := append([]string{"-users", strconv.Itoa(population), "-seed", strconv.FormatUint(seed, 10)}, daemonFlags...)

	if !w.Cluster {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc("single", bin, addr, dir, append([]string{"-addr", addr, "-shards", "1"}, common...)...)
		if err != nil {
			return nil, err
		}
		t.router, t.base = p, "http://"+addr
		if err := p.waitReady(ctx, func(ctx context.Context) error { return httpOK(ctx, hc, t.base+"/metrics", "") }); err != nil {
			return nil, err
		}
		ok = true
		return t, nil
	}

	var peers []string
	for i := 0; i < shardNodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard-%d", i)
		p, err := startProc(name, bin, addr, dir, append([]string{
			"-shard-serve", "-shard-count", strconv.Itoa(shardNodes), "-shard-index", strconv.Itoa(i),
			"-addr", addr, "-advertise", addr, "-journal", filepath.Join(dir, name), "-rpc-secret", rpcSecret,
		}, common...)...)
		if err != nil {
			return nil, err
		}
		t.shards = append(t.shards, p)
		peers = append(peers, addr)
	}
	for _, p := range t.shards {
		url := "http://" + p.addr
		if err := p.waitReady(ctx, func(ctx context.Context) error {
			return errors.Join(httpOK(ctx, hc, url+"/metrics", ""), httpOK(ctx, hc, url+"/rpc/v1/health", rpcSecret))
		}); err != nil {
			return nil, err
		}
	}

	keys := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keys, []byte(keyFile), 0o600); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := startProc("router", bin, addr, dir, append([]string{
		"-addr", addr, "-peers", strings.Join(peers, ","), "-rpc-secret", rpcSecret, "-gateway", "-keys", keys,
	}, common...)...)
	if err != nil {
		return nil, err
	}
	t.router, t.base = p, "http://"+addr
	if err := p.waitReady(ctx, func(ctx context.Context) error { return httpOK(ctx, hc, t.base+"/metrics", "") }); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in milliseconds, from the contents of
// /proc/<pid>/stat. The command name may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// After the command: state is field 3, utime 14, stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// parseStatusHWM extracts VmHWM (peak resident set), in MB, from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func (p *proc) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(raw))
}
