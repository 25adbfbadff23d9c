// Package health closes the loop from failure detection to recovery
// with no operator in the path. A Detector turns a stream of probe
// outcomes into a hysteretic up/suspect/down verdict — one lost
// heartbeat never flaps a healthy peer, and a peer declared down must
// prove itself over consecutive probes before it is trusted again. A
// Supervisor runs one probe loop per cluster slot over the existing
// RPC health endpoint and, on sustained owner failure, drives the
// recovery protocol: promote the best synced follower, fence the
// deposed owner behind a new ring version, re-arm the replica chain
// onto the new owner, and later demote the returning stale owner into
// a resyncing follower.
//
// The package is stdlib-only (plus the repo's own obs registry) and
// the detector is a pure state machine, so every threshold and decay
// rule is unit-testable without goroutines or clocks.
package health

// State is the detector's verdict about one peer.
type State int

const (
	// StateUp: the peer is answering probes; suspicion is zero.
	StateUp State = iota
	// StateSuspect: recent probes were missed but not enough to
	// declare failure. Reads and writes continue; no recovery runs.
	StateSuspect
	// StateDown: the miss threshold was crossed. The supervisor may
	// begin recovery. The peer leaves StateDown only after
	// recoverThreshold consecutive successful probes.
	StateDown
)

// The detector's thresholds.
const (
	// failThreshold is the suspicion score at which the peer is declared
	// down. Each missed probe raises the score by one, so a peer must miss
	// three probes (net of decay) before recovery starts.
	failThreshold = 3
	// recoverThreshold is how many consecutive successful probes a down
	// peer must answer before it is trusted again.
	recoverThreshold = 2
	// decay is how many consecutive successful probes it takes to forgive
	// one earlier miss while the peer is not down. This is the anti-flap
	// term: isolated misses drain away instead of accumulating across
	// hours.
	decay = 2
)

// Detector is the per-peer failure-detection state machine. It is a
// pure function of the probe outcome sequence: no clocks, no
// goroutines, not safe for concurrent use (each probe loop owns one).
type Detector struct {
	state State
	// score is the suspicion level while not down: 0 = fully healthy,
	// failThreshold = declared down.
	score int
	// successStreak counts consecutive successes; every decay of them
	// forgives one earlier miss (while up/suspect) or, once down,
	// recoverThreshold of them restore trust.
	successStreak int
}

// NewDetector builds a detector in StateUp.
func NewDetector() *Detector {
	return &Detector{}
}

// State returns the current verdict.
func (d *Detector) State() State { return d.state }

// Reset returns the detector to StateUp with zero suspicion. The
// supervisor calls this after promotion: the probe loop now watches a
// different process, whose history is clean.
func (d *Detector) Reset() {
	d.state = StateUp
	d.score = 0
	d.successStreak = 0
}

// Observe feeds one probe outcome and returns the resulting state and
// whether this observation changed it.
func (d *Detector) Observe(ok bool) (State, bool) {
	prev := d.state
	if d.state == StateDown {
		if ok {
			d.successStreak++
			if d.successStreak >= recoverThreshold {
				d.Reset()
			}
		} else {
			d.successStreak = 0
		}
		return d.state, d.state != prev
	}

	if ok {
		d.successStreak++
		if d.score > 0 && d.successStreak >= decay {
			d.score--
			d.successStreak = 0
		}
	} else {
		d.successStreak = 0
		d.score++
	}

	switch {
	case d.score >= failThreshold:
		d.state = StateDown
		d.successStreak = 0
	case d.score > 0:
		d.state = StateSuspect
	default:
		d.state = StateUp
	}
	return d.state, d.state != prev
}
