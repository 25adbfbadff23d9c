package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
)

// facts is the environment and the benchmark's own constants, recorded next
// to the numbers. Numbers taken under different facts are not comparable,
// and -compare refuses them.
type facts struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	OutFS      string   `json:"out_filesystem"`
	Clients    int      `json:"clients"`
	Population int      `json:"population"`
	ShardNodes int      `json:"shard_nodes"`
	Seconds    float64  `json:"seconds"`
	Setups     int      `json:"setup_repeats"`
	Daemon     []string `json:"daemon_flags"`
	Workloads  []string `json:"workloads"` // name: closed ops, open rate × seconds
}

func collectFacts(b *bench, seconds float64) facts {
	f := facts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Kernel: firstLine("/proc/sys/kernel/osrelease"), OutFS: fsType(b.out),
		Clients: b.clients, Population: population, ShardNodes: shardNodes, Seconds: seconds,
		Setups: setupRepeats, Daemon: daemonFlags,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fmt.Sprintf("%s: closed %d ops, open %g/s x %gs, limit %v",
			w.Name, w.closedOps(seconds), w.OpenRate, seconds/2, w.Limit))
	}
	return f
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from the statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("magic %#x", uint32(st.Type))
}

// resultFile is <out>/results.json.
type resultFile struct {
	Facts facts            `json:"facts"`
	Sets  []workloadResult `json:"sets"`
}

func (f resultFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printResult prints every metric of one workload by name, with unit, and
// for end-to-end metrics the sample count and the regression bound.
func printResult(w io.Writer, con contract, res *workloadResult) {
	if res.EndToEnd != nil {
		fmt.Fprintln(w, "end to end (untraced, client side):")
		for _, m := range con.EndToEnd {
			fmt.Fprintf(w, "  %-34s %12.4f %-6s n=%-6d bound %.0f%% (%s is better)\n",
				m.Name, res.EndToEnd[m.Name], m.Unit, res.Samples[m.Name], 100*m.Bound, m.Better)
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "per layer:")
		for _, m := range con.PerLayer {
			if v, ok := res.PerLayer[m.Name]; ok { // an end-to-end run measures only some
				fmt.Fprintf(w, "  %-34s %12.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	if res.attribution != nil {
		printAttribution(w, res.Workload, res.attribution, res.requests, res.extra)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, v := range res.Violations {
		fmt.Fprintln(w, "OUTPUT CHECK FAILED:", v)
	}
	if len(res.Violations) == 0 {
		fmt.Fprintln(w, "output checks passed")
	}
}

// byWorkload gathers one end-to-end metric's values across sets.
func (f resultFile) byWorkload(workload, metric string) []float64 {
	var out []float64
	for _, s := range f.Sets {
		if v, ok := s.EndToEnd[metric]; ok && s.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

func (f resultFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range f.Sets {
		if !seen[s.Workload] {
			seen[s.Workload] = true
			names = append(names, s.Workload)
		}
	}
	return names
}

// printRepeatSummary prints, per workload and end-to-end metric, the median,
// quartiles and spread over the sets, against the bound: the same figures
// the acceptance procedure computes.
func printRepeatSummary(w io.Writer, con contract, f resultFile) {
	fmt.Fprintf(w, "\nrun-to-run summary (spread = interquartile distance / median)\n")
	fmt.Fprintf(w, "  %-20s %-18s %3s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, name := range f.workloadNames() {
		for _, m := range con.EndToEnd {
			v := f.byWorkload(name, m.Name)
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			sp, flag := spread(v), ""
			if sp > m.Bound {
				flag = "  WIDER THAN BOUND"
			}
			fmt.Fprintf(w, "  %-20s %-18s %3d %12.4f %12.4f %12.4f %7.1f%% %6.0f%%%s\n",
				name, m.Name, len(v), median(v), q1, q3, 100*sp, 100*m.Bound, flag)
		}
	}
}

// compareFiles prints old → new medians per workload and end-to-end metric
// and whether the change is within the bound. Files recorded under
// different facts are refused.
func compareFiles(w io.Writer, con contract, arg string) error {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants old.json,new.json")
	}
	load := func(path string) (resultFile, error) {
		var f resultFile
		raw, err := os.ReadFile(path)
		if err != nil {
			return f, err
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			return f, fmt.Errorf("%s: %w", path, err)
		}
		return f, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a.Facts, b.Facts) {
		fa, _ := json.Marshal(a.Facts)
		fb, _ := json.Marshal(b.Facts)
		return fmt.Errorf("refusing to compare: the two files were recorded under different facts\n  %s: %s\n  %s: %s", oldPath, fa, newPath, fb)
	}
	fmt.Fprintf(w, "  %-20s %-18s %12s %12s %8s %7s\n", "workload", "metric", "old median", "new median", "worse by", "bound")
	for _, name := range a.workloadNames() {
		for _, m := range con.EndToEnd {
			va, vb := a.byWorkload(name, m.Name), b.byWorkload(name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  REGRESSION"
			}
			fmt.Fprintf(w, "  %-20s %-18s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return nil
}
