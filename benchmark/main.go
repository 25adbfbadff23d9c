// Command benchmark is the repository's end-to-end, per-layer benchmark:
// the one every later performance or simplicity change is judged by. It
// boots real adplatformd processes, drives them with a seeded fixed-work
// load (a closed phase, then an open phase timed from each op's due time),
// checks the outputs, and in a separate traced run attributes the latency
// to layers. See README.md in this directory.
//
//	go run ./benchmark [-seed N] [-workloads a,b] [-out DIR] [-repeat N]
//	go run ./benchmark -compare old.json,new.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json contract)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	// A signal kills the daemons and exits at once; load phases do not poll
	// for cancellation.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	err := func() error {
		// Daemons die on every other exit path too: error and panic alike.
		defer killAll()
		return run(context.Background(), os.Args[1:])
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	workloads string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	repeat    int
	compare   string
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "contract mode: run this one workload and print one JSON result line")
	fs.IntVar(&o.trace, "trace", 0, "contract mode: 0 = end-to-end run, 1 = traced per-layer run")
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workloads to run (default all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed, shared with the daemons")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "measuring budget per run; scales both fixed-work phases")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for journals, logs, spans and results")
	fs.IntVar(&o.repeat, "repeat", 1, "run N full sets and report median, quartiles and spread per metric")
	fs.StringVar(&o.compare, "compare", "", "old.json,new.json: compare two result files (refused if their facts differ)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	con, err := loadContract()
	if err != nil {
		return err
	}
	if o.compare != "" {
		return compareFiles(os.Stdout, con, o.compare)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	buildStart := time.Now()
	bin, err := buildDaemon(ctx, o.out)
	if err != nil {
		return err
	}
	b := &bench{con: con, bin: bin, out: o.out, clients: clientsPerCPU * runtime.NumCPU(), buildS: time.Since(buildStart).Seconds()}

	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return b.contractRun(ctx, w, o.seed, o.seconds, o.trace == 1)
	}

	var selected []workload
	for _, name := range strings.Split(o.workloads, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	return b.fullRun(ctx, selected, o.seed, o.seconds, o.repeat)
}

// bench is what every run shares.
type bench struct {
	con     contract
	bin     string
	out     string
	clients int
	buildS  float64
}

// buildDaemon compiles cmd/adplatformd from the checkout into dir.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "adplatformd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/adplatformd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/adplatformd: %w\n%s", err, strings.TrimSpace(string(out)))
	}
	return bin, nil
}

// workloadResult is everything measured for one workload: the untraced
// end-to-end run and, if made, the traced run.
type workloadResult struct {
	Workload   string         `json:"workload"`
	EndToEnd   metrics        `json:"end_to_end,omitempty"`
	PerLayer   metrics        `json:"per_layer,omitempty"`
	Samples    map[string]int `json:"samples,omitempty"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Violations []string       `json:"violations,omitempty"`

	attribution map[string]float64
	requests    int
	extra       [][3]string
}

// endToEnd makes the untraced run: client-side timing of real processes.
func (b *bench) endToEnd(ctx context.Context, w workload, seed uint64, seconds float64) (*workloadResult, error) {
	r, err := runProcesses(ctx, w, b.bin, seed, seconds, b.out, b.clients, setupRepeats)
	if err != nil {
		return nil, err
	}
	// The process run's own diagnostics (client.*, proc.*, scraped counters)
	// ride along: they are what explains an end-to-end figure that looks off.
	return &workloadResult{Workload: w.Name, EndToEnd: r.endToEnd, PerLayer: r.perLayer, Samples: r.samples,
		Attempted: r.attempted, Failed: r.failed, Violations: r.violations}, nil
}

// traced makes the per-layer run: a half-length process run for what only
// real processes can tell (client percentiles per op, CPU and RSS per
// process, scraped refusals and retries, the paper-level reveal figures),
// then the in-process shimmed run and the isolated timings.
func (b *bench) traced(ctx context.Context, w workload, seed uint64, seconds float64) (*workloadResult, error) {
	r, err := runProcesses(ctx, w, b.bin, seed, seconds/2, b.out, b.clients, 1)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: w.Name, PerLayer: r.perLayer,
		Attempted: r.attempted, Failed: r.failed, Violations: r.violations}
	tr, err := runTraced(ctx, w, seed, seconds, b.out, b.clients, r.meanMS)
	if err != nil {
		return nil, err
	}
	for k, v := range tr.perLayer {
		res.PerLayer[k] = v
	}
	res.PerLayer["client.build_s"] = b.buildS
	res.attribution, res.requests, res.extra = tr.perName, tr.requests, tr.extra
	if tr.perLayer["trace.sum_error_pct"] > 1 {
		res.Violations = append(res.Violations, fmt.Sprintf("span self times miss the client spans by %.2f%% (limit 1%%)", tr.perLayer["trace.sum_error_pct"]))
	}
	return res, nil
}

// contractRun is the BENCHMARK.json interface: one workload, one mode, one
// JSON object as the last line of stdout.
func (b *bench) contractRun(ctx context.Context, w workload, seed uint64, seconds float64, traced bool) error {
	var (
		res   *workloadResult
		err   error
		names = b.con.EndToEnd
	)
	if traced {
		res, err = b.traced(ctx, w, seed, seconds)
		names = b.con.PerLayer
	} else {
		res, err = b.endToEnd(ctx, w, seed, seconds)
	}
	if err != nil {
		return err
	}
	printResult(os.Stderr, b.con, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Violations) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	have := res.EndToEnd
	if traced {
		have = res.PerLayer
	}
	for _, m := range names {
		v, ok := have[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which the harness did not measure", m.Name)
		}
		line.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// fullRun is the developer interface: every selected workload, untraced
// then traced, every metric printed by name with its unit, results written
// to <out>/results.json. With repeat > 1 it also prints the run-to-run
// summary the acceptance procedure uses.
func (b *bench) fullRun(ctx context.Context, selected []workload, seed uint64, seconds float64, repeat int) error {
	file := resultFile{Facts: collectFacts(b, seconds)}
	incorrect := 0
	for set := 0; set < repeat; set++ {
		for _, w := range selected {
			// Each set takes another seed, as the acceptance procedure does.
			s := seed + uint64(set)
			res, err := b.endToEnd(ctx, w, s, seconds)
			if err != nil {
				return err
			}
			tr, err := b.traced(ctx, w, s, seconds)
			if err != nil {
				return err
			}
			res.PerLayer, res.attribution, res.requests, res.extra = tr.PerLayer, tr.attribution, tr.requests, tr.extra
			res.Attempted += tr.Attempted
			res.Failed += tr.Failed
			res.Violations = append(res.Violations, tr.Violations...)
			fmt.Printf("\n== %s, seed %d (set %d of %d)\n", w.Name, s, set+1, repeat)
			printResult(os.Stdout, b.con, res)
			if len(res.Violations) > 0 {
				incorrect++
			}
			file.Sets = append(file.Sets, *res)
		}
	}
	if repeat > 1 {
		printRepeatSummary(os.Stdout, b.con, file)
	}
	path := filepath.Join(b.out, "results.json")
	if err := file.write(path); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their output checks", incorrect)
	}
	return nil
}
