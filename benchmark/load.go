package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is the client-side record of one issued op.
type sample struct {
	kind    opKind
	at      time.Duration // completion, from the start of the phase
	latency time.Duration // closed: send to last byte; open: due time to last byte
	late    time.Duration // open only: how long after its due time the op was sent
	bytes   int
	err     error
}

// phase is the outcome of one measured phase.
type phase struct {
	samples []sample
	wall    time.Duration
	ledger  *ledger
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (p phase) firstErr() error {
	for _, s := range p.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// latencies returns the phase's latencies in milliseconds, sorted, for all
// ops or for one kind. Failed ops are left out: they are counted as misses
// of any limit instead.
func (p phase) latencies(kind opKind, all bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil && (all || s.kind == kind) {
			out = append(out, ms(s.latency))
		}
	}
	return sortedCopy(out)
}

// openLoopPlan is the open loop's timing rule for op i, picked up by a free
// sender at now: latency is measured from the op's due time; an early
// sender waits for it; a late one sends at once and the op is late by the
// difference.
func openLoopPlan(start time.Time, i int, rate float64, now time.Time) (due time.Time, wait, late time.Duration) {
	due = start.Add(dueAt(i, rate))
	if d := due.Sub(now); d > 0 {
		return due, d, 0
	}
	return due, 0, now.Sub(due)
}

// runPhase issues ops from `clients` sender goroutines. With rate 0 the
// phase is closed: each sender takes the next op as soon as its previous
// one completes. With a rate it is open: op i is due at start + i/rate,
// the next free sender picks it up, sleeps until it is due if early, and
// its latency runs from the due time — so a stall is charged to every op
// it delays, not only to the one that hit it.
func runPhase(t *target, ops []op, clients int, rate float64, completed *atomic.Int64) phase {
	res := phase{samples: make([]sample, len(ops)), ledger: newLedger()}
	ledgers := make([]*ledger, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		ledgers[c] = newLedger()
		wg.Add(1)
		go func(led *ledger) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := sample{kind: ops[i].kind}
				from := time.Now()
				if rate > 0 {
					var wait time.Duration
					from, wait, s.late = openLoopPlan(start, i, rate, from)
					if wait > 0 {
						time.Sleep(wait)
						// Oversleeping makes the op late like any other delay.
						s.late = max(0, time.Since(from))
					}
				}
				s.bytes, s.err = t.do(ops[i], led)
				end := time.Now()
				s.latency, s.at = end.Sub(from), end.Sub(start)
				res.samples[i] = s
				if completed != nil {
					completed.Add(1)
				}
			}
		}(ledgers[c])
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, l := range ledgers {
		res.ledger.merge(l)
	}
	return res
}
