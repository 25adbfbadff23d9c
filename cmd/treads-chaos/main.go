// Command treads-chaos runs the deterministic chaos harness: a sharded
// cluster on fault-injecting disks (and, with -net, fault-injecting
// loopback links) driven by the concurrent workload while shards crash,
// journals fail, and partitions come and go — then verifies that
// durability, exactly-once billing, replica convergence, and
// byte-identical recovery all held.
//
// The cluster's size is chaos.DefaultConfig's; the flags pick the mode.
// The whole schedule is a pure function of the seed and the mode. A sweep
// prints one line per seed; on a violation it prints the invariants broken
// and a replay line,
//
//	go run ./cmd/treads-chaos -seed <n> <the sweep's mode flags> -v -keep
//
// which reruns the failing seed's schedule under full logging.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/treads-project/treads/internal/chaos"
	"github.com/treads-project/treads/internal/faults"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "first seed of the sweep")
		seeds    = flag.Int("seeds", 1, "number of consecutive seeds to run")
		workers  = flag.Int("workers", 1, "driver goroutines (1 = fully deterministic replay)")
		replicas = flag.Int("replicas", 0, "journal-shipping followers per shard; >0 kills an owner mid-round and promotes a follower")
		noAdmin  = flag.Bool("no-admin", false, "drop the scripted promotion: the health supervisor must detect the kill and promote on its own (implies -replicas 2 unless set)")
		reshard  = flag.Bool("reshard", false, "grow the cluster by one shard in the middle round, concurrently with traffic")
		netMode  = flag.Bool("net", false, "run shards behind real loopback RPC with link faults")
		dir      = flag.String("dir", "", "scratch directory (default: temp dir, removed on success)")
		keep     = flag.Bool("keep", false, "keep the scratch directory even on success")
		verbose  = flag.Bool("v", false, "log per-round progress")
		coverage = flag.Bool("require-coverage", false, "fail unless every configured fault kind fired at least once across the sweep")
	)
	flag.Parse()
	if *noAdmin && *replicas == 0 {
		*replicas = 2
	}
	repro := reproFlags(*netMode, *workers, *replicas, *reshard, *noAdmin)

	aggFired := make(map[faults.Kind]uint64)
	aggOpp := make(map[faults.Kind]uint64)
	start := time.Now()
	for s := *seed; s < *seed+uint64(*seeds); s++ {
		cfg := chaos.DefaultConfig(s)
		cfg.Workers = *workers
		cfg.Replicas = *replicas
		cfg.AutoFailover = *noAdmin
		cfg.Reshard = *reshard
		cfg.Dir = *dir
		cfg.Keep = *keep
		if *netMode {
			nc := chaos.DefaultNetConfig()
			cfg.Net = &nc
		}
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Printf("  seed %d: "+format+"\n", append([]any{s}, args...)...)
			}
		}

		res, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: harness error: %v\n", s, err)
			fail(s, repro)
		}
		for k, v := range res.Faults {
			aggFired[k] += v
		}
		for k, v := range res.Opportunities {
			aggOpp[k] += v
		}
		elastic := ""
		if *replicas > 0 || *reshard {
			elastic = fmt.Sprintf(" kills=%d promotions=%d reshards=%d ring=v%d", res.OwnerKills, res.Promotions, res.Reshards, res.RingVersion)
		}
		if *noAdmin && len(res.FailoverLatencies) > 0 {
			var worst time.Duration
			for _, d := range res.FailoverLatencies {
				if d > worst {
					worst = d
				}
			}
			elastic += fmt.Sprintf(" detect→promote≤%v", worst.Round(time.Microsecond))
		}
		fmt.Printf("seed %-6d ok  ops=%-5d acked=%-5d indeterminate=%-4d crashes=%d partitions=%d%s faults=%s\n",
			s, res.Ops, res.AckedImpressions, res.IndeterminateSlots, res.Crashes, res.Partitions, elastic, firedSummary(res.Faults))
		if res.Failed() {
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "  VIOLATION %s\n", v)
			}
			if res.Dir != "" {
				fmt.Fprintf(os.Stderr, "  disk state kept at %s\n", res.Dir)
			}
			dumpTraces(res)
			fail(s, repro)
		}
	}

	fmt.Printf("\n%d seed(s) passed in %v; aggregate fault coverage:\n", *seeds, time.Since(start).Round(time.Millisecond))
	for _, k := range faults.Kinds {
		if aggOpp[k] == 0 && aggFired[k] == 0 {
			continue
		}
		fmt.Printf("  %-18s fired %6d / %8d opportunities\n", k, aggFired[k], aggOpp[k])
	}
	if *coverage {
		missing := missingCoverage(*netMode, aggFired)
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "coverage check failed: configured fault kinds never fired across the sweep: %v\n", missing)
			os.Exit(1)
		}
		fmt.Println("coverage check passed: every configured fault kind fired")
	}
}

// dumpTraces prints the failing run's per-round traces as NDJSON — the
// same wire shape GET /admin/v1/trace serves. Each round ran under a
// root span whose events are the harness's decision timeline (which
// shard partitioned, when the owner was killed and promoted, what
// crash-recovered), so the offending schedule is readable without a
// replay.
func dumpTraces(res *chaos.Result) {
	if len(res.Traces) == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "  round traces for the offending run (NDJSON):")
	for _, tw := range res.Traces {
		raw, err := json.Marshal(tw)
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %s\n", raw)
	}
}

// reproFlags renders every flag that shapes a seed's schedule, so a replay
// of one seed of this sweep runs the same schedule.
func reproFlags(netMode bool, workers, replicas int, reshard, noAdmin bool) string {
	out := ""
	if netMode {
		out += " -net"
	}
	if workers != 1 {
		out += fmt.Sprintf(" -workers %d", workers)
	}
	if replicas > 0 {
		out += fmt.Sprintf(" -replicas %d", replicas)
	}
	if noAdmin {
		out += " -no-admin"
	}
	if reshard {
		out += " -reshard"
	}
	return out
}

// fail prints the reproduction line for a failing seed and exits.
func fail(seed uint64, modeFlags string) {
	fmt.Fprintf(os.Stderr, "\nFAILING SEED %d — replay with: go run ./cmd/treads-chaos -seed %d%s -v -keep\n", seed, seed, modeFlags)
	os.Exit(1)
}

// missingCoverage lists the fault kinds the sweep's configuration enables
// that never fired. Per-seed coverage (inside chaos.Run) asserts every
// seam was reached; across a sweep we can demand the stronger property
// that every kind actually fired at least once.
func missingCoverage(netMode bool, fired map[faults.Kind]uint64) []faults.Kind {
	kinds := []faults.Kind{
		faults.FSShortWrite, faults.FSWriteError, faults.FSSyncError,
		faults.FSRenameError, faults.FSCrashTear,
	}
	if netMode {
		kinds = append(kinds,
			faults.NetDialError, faults.NetDelay, faults.NetDuplicate,
			faults.NetResetBody, faults.NetPartition)
	}
	var missing []faults.Kind
	for _, k := range kinds {
		if fired[k] == 0 {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	return missing
}

// firedSummary renders only the kinds that fired, in stable order.
func firedSummary(fired map[faults.Kind]uint64) string {
	out := ""
	for _, k := range faults.Kinds {
		if fired[k] == 0 {
			continue
		}
		if out != "" {
			out += ","
		}
		out += fmt.Sprintf("%s:%d", k, fired[k])
	}
	if out == "" {
		return "none"
	}
	return out
}
