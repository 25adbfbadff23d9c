package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is how the harness measures on a small shared box: a
// once-a-second monitor, and medians over its slices and over windows of the
// open phase, so that a transient stall costs one slice and not the run.
// Nothing is filtered: every slice and window counts, and the share of CPU
// time the hypervisor stole is reported beside the numbers as a fact.

// latencyWindow is the width of the open phase's percentile windows.
const latencyWindow = 2 * time.Second

// windows cuts the phase's samples, binned by completion time, into
// latencyWindow-wide windows. A remainder of half a window or more counts as
// a window (an open phase ends when its last op completes, a moment short of
// its nominal length), a shorter one is left out; a phase shorter than that
// is one window.
func windows(p phase) [][]sample {
	n := int((p.wall + latencyWindow/2) / latencyWindow)
	if n == 0 {
		return [][]sample{p.samples}
	}
	out := make([][]sample, n)
	for _, s := range p.samples {
		if i := int(s.at / latencyWindow); i < n {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// windowedPercentile returns the median, over the phase's windows, of each
// window's nearest-rank p-th percentile latency in ms over its successful
// ops, and the number of those in the smallest window.
func windowedPercentile(p phase, pct float64) (float64, int) {
	var values []float64
	smallest := len(p.samples)
	for _, win := range windows(p) {
		var lat []float64
		for _, s := range win {
			if s.err == nil {
				lat = append(lat, ms(s.latency))
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		values = append(values, percentile(lat, pct))
		smallest = min(smallest, len(lat))
	}
	return median(values), smallest
}

// windowedMissRate returns the median, over the phase's windows, of the
// share of each window's ops that failed or took longer than limit.
func windowedMissRate(p phase, limit time.Duration) float64 {
	var rates []float64
	for _, win := range windows(p) {
		missed := 0
		for _, s := range win {
			if s.err != nil || s.latency > limit {
				missed++
			}
		}
		if len(win) > 0 {
			rates = append(rates, float64(missed)/float64(len(win)))
		}
	}
	return median(rates)
}

// closedSlices cuts the closed phase into the monitor's one-second slices
// and returns each slice's throughput (ops/s) and server CPU per op (ms).
func closedSlices(ticks []tick) (tput, cpu []float64) {
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if b.at-a.at < monitorEvery/2 || b.ops == a.ops {
			continue // the stub interval at the end of the phase
		}
		tput = append(tput, float64(b.ops-a.ops)/(b.at-a.at).Seconds())
		cpu = append(cpu, (sum(b.cpu)-sum(a.cpu))/float64(b.ops-a.ops))
	}
	if len(tput) == 0 { // a phase shorter than one slice: the whole of it
		a, b := ticks[0], ticks[len(ticks)-1]
		ops := float64(b.ops - a.ops) // at least one: the caller ran a phase
		return []float64{ops / (b.at - a.at).Seconds()}, []float64{(sum(b.cpu) - sum(a.cpu)) / ops}
	}
	return tput, cpu
}

// parseHostStat extracts total and steal jiffies from the aggregate "cpu"
// line of /proc/stat.
func parseHostStat(stat string) (total, steal uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		if i < 8 { // guest time (fields 9, 10) is already inside user and nice
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

func hostTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0 // no steal accounting on this system: reported as 0
	}
	total, steal, _ = parseHostStat(string(raw))
	return total, steal
}

// stolen is the share of the box's CPU time stolen between two samples.
func stolen(a, b tick) float64 {
	if b.hostTotal <= a.hostTotal {
		return 0
	}
	return float64(b.hostSteal-a.hostSteal) / float64(b.hostTotal-a.hostTotal)
}

// monitorEvery is the sampling interval of the closed-phase monitor.
const monitorEvery = time.Second

// tick is one monitor sample: ops completed and CPU consumed so far.
type tick struct {
	at  time.Duration
	ops int64
	cpu []float64 // per server process, ms
	// The whole box's CPU jiffies so far, and how many of them were stolen.
	hostTotal, hostSteal uint64
}

// monitor samples the servers' CPU and the completed-op count once a second
// through the closed phase, so throughput and CPU per op can be reported as
// medians over one-second slices: a transient slowdown of the machine then
// costs one slice, not the run.
type monitor struct {
	completed atomic.Int64
	topo      *topology
	start     time.Time
	quit      chan struct{}
	done      chan struct{}
	ticks     []tick
	err       error
}

func startMonitor(topo *topology) *monitor {
	m := &monitor{topo: topo, start: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.sample()
			case <-m.quit:
				m.sample()
				return
			}
		}
	}()
	return m
}

func (m *monitor) sample() {
	cpu, err := cpuByProc(m.topo)
	if err != nil && m.err == nil {
		m.err = err
	}
	t := tick{at: time.Since(m.start), ops: m.completed.Load(), cpu: cpu}
	t.hostTotal, t.hostSteal = hostTicks()
	m.ticks = append(m.ticks, t)
}

// stop takes the final sample and returns all of them.
func (m *monitor) stop() ([]tick, error) {
	close(m.quit)
	<-m.done
	return m.ticks, m.err
}

func cpuByProc(t *topology) ([]float64, error) {
	var out []float64
	for _, p := range t.servers() {
		c, err := p.cpuMS()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
