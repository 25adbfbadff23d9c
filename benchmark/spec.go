package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Topology and population constants shared by every workload. They are
// facts of the benchmark, recorded next to every result: two result files
// whose facts differ are refused by -compare.
const (
	// population is the synthetic user count every daemon boots with. A
	// journaled shard fails to boot above ~8 000 users (the boot snapshot is
	// ~2 KB/user and the journal refuses records over 16 MiB), so with two
	// shards the population must stay below ~16 000.
	population = 12000
	// shardNodes is the number of journaled shard processes behind the
	// router on the cluster workloads. No replicas: router + 2 shards + the
	// load generator already oversubscribe a 2-core box.
	shardNodes = 2
	// refSeconds is run_seconds in BENCHMARK.json: the measuring budget the
	// per-workload op counts below are sized for, ten seconds per phase.
	// Other -seconds values scale both measured phases linearly.
	refSeconds = 20
	// clientsPerCPU sizes the load generator: C = clientsPerCPU × nproc
	// sender goroutines, each with its own keep-alive connection. At one
	// client per CPU the closed phase is bound by the commit window, not by
	// the servers: its throughput is then a latency figure and CPU per op
	// is mostly idle-to-wake cost. At four the closed phase keeps the
	// servers busy, which makes its throughput a capacity figure, and the
	// open phase never runs out of senders.
	clientsPerCPU = 4
	// setupRepeats is how many times an end-to-end run boots and seeds the
	// topology; setup_s is the median, the last one is measured.
	setupRepeats = 3

	rpcSecret = "bench-shard-secret"
	apiKey    = "bench-tenant-key-0123456789abcdef"
	optInPage = "treads-provider"
)

// keyFile is the gateway's tenant key file. Rate limits sit far above any
// offered load: the gateway must do its work (resolve, bucket, meter, admit)
// but never refuse.
const keyFile = `{"tenants":[{"name":"bench","key":"` + apiKey + `","limits":{` +
	`"user":{"rps":1e6,"burst":1e6},"mutation":{"rps":1e6,"burst":1e6},"report":{"rps":1e6,"burst":1e6}}}],` +
	`"users":{"rps":1e6,"burst":1e6}}`

// opKind enumerates the operations the load generator issues.
type opKind uint8

const (
	opBrowse opKind = iota
	opLike
	opVisit
	opPrefs
	opReach
	opReport
	opCreate
	opPause
	numOps
)

var opNames = [numOps]string{"browse", "like", "visit", "prefs", "reach", "report", "create_campaign", "pause"}

// workload is one traffic mix over one topology. Every measured phase is
// fixed work: the closed phase issues closedOps back to back from C
// clients, the open phase issues openRate ops/s for half the budget, each
// op timed from the instant it was due.
type workload struct {
	Name string
	Why  string
	// Cluster selects gateway+router over shardNodes journaled shard
	// processes; false is one un-journaled adplatformd.
	Cluster bool
	// Treads seeds one Tread campaign per platform attribute and opts in
	// Cohort users; otherwise 16 broad campaigns are seeded.
	Treads bool
	Cohort int
	Mix    [numOps]int
	Slots  int
	// ClosedRate is about the seed's closed-phase throughput on the box
	// this was built on: the closed phase issues ClosedRate × seconds/2
	// ops, ten seconds' worth at refSeconds. OpenRate is the open phase's
	// fixed arrival rate, 10 to 30 % of ClosedRate: far enough from
	// saturation that latency stays flat when the box slows down.
	ClosedRate float64
	OpenRate   float64
	// Limit is the latency limit behind client.slo_miss_rate.
	Limit time.Duration
}

func mix(browse, like, visit, prefs, reach, report, create, pause int) [numOps]int {
	return [numOps]int{browse, like, visit, prefs, reach, report, create, pause}
}

// workloads is every workload the harness can run; BENCHMARK.json lists
// them all.
var workloads = []workload{
	{
		Name:    "user_cluster",
		Why:     "user mix through gateway, router, rpc and journaled shards: per-request overhead and group commit dominate, delivery does little",
		Cluster: true, Mix: mix(60, 15, 15, 10, 0, 0, 0, 0), Slots: 5,
		ClosedRate: 2200, OpenRate: 250, Limit: 25 * time.Millisecond,
	},
	{
		Name:    "treads_cluster",
		Why:     "the paper's deployment: 614 Tread campaigns, opted-in cohort browsing 10 slots; the O(campaigns) scan in delivery dominates CPU",
		Cluster: true, Treads: true, Cohort: 2000, Mix: mix(1, 0, 0, 0, 0, 0, 0, 0), Slots: 10,
		ClosedRate: 500, OpenRate: 150, Limit: 25 * time.Millisecond,
	},
	{
		Name:    "advertiser_cluster",
		Why:     "advertiser reach/report/create/pause, no user traffic: scatter-gather and a journal write on every shard per mutation",
		Cluster: true, Mix: mix(0, 0, 0, 0, 50, 20, 15, 15),
		ClosedRate: 500, OpenRate: 150, Limit: 25 * time.Millisecond,
	},
	{
		Name:    "user_single",
		Why:     "same user mix on one un-journaled process: bypasses gateway, cluster, rpc and journal, so only httpapi and delivery changes may show",
		Cluster: false, Mix: mix(60, 15, 15, 10, 0, 0, 0, 0), Slots: 5,
		ClosedRate: 15000, OpenRate: 2500, Limit: 5 * time.Millisecond,
	},
}

func (w workload) mixTotal() int {
	t := 0
	for _, m := range w.Mix {
		t += m
	}
	return t
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closedOps and openOps turn the measuring budget into fixed op counts.
func (w workload) closedOps(seconds float64) int { return int(w.ClosedRate * seconds / 2) }
func (w workload) openOps(seconds float64) int   { return int(w.OpenRate * seconds / 2) }

// contract is BENCHMARK.json.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadContract reads BENCHMARK.json from the working directory (the root of
// the checkout) and checks it names only workloads the harness has.
func loadContract() (contract, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return contract{}, fmt.Errorf("reading contract (run from the repository root): %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return contract{}, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	if c.RunSeconds != refSeconds {
		return contract{}, fmt.Errorf("BENCHMARK.json run_seconds %d != refSeconds %d", c.RunSeconds, refSeconds)
	}
	for _, w := range c.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return contract{}, fmt.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
	}
	return c, nil
}
