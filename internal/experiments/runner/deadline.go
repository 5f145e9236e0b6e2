package runner

import (
	"sort"
	"sync"
	"time"
)

// DeadlineConfig bounds how long the coordinator waits for one cell's
// response before declaring the worker wedged. A worker that crashes is
// detected immediately (the connection errors), but a wedged-but-alive
// worker — stuck in a loop or swapping — produces no such signal; the response deadline converts it
// into the same kill/respawn/requeue path a crash takes.
type DeadlineConfig struct {
	// Fixed, when positive, is used verbatim for every cell.
	Fixed time.Duration
	// Floor is the minimum adaptive deadline; 0 selects 30s.
	Floor time.Duration
}

func (c DeadlineConfig) withDefaults() DeadlineConfig {
	if c.Floor <= 0 {
		c.Floor = 30 * time.Second
	}
	return c
}

// deadlineMult scales the observed p95 cell wall-clock into the adaptive
// deadline.
const deadlineMult = 10

// deadlineMinObs is how many completed cells the adaptive deadline needs
// before it trusts the p95: with fewer observations the tracker returns the
// generous bootstrap instead, so the very first cells of an expensive grid —
// for which no timing history exists yet — are never killed by a deadline
// tuned to nothing.
const deadlineMinObs = 5

// deadlineBootstrap is the deadline used until deadlineMinObs cells have
// completed (unless a Fixed deadline is configured). A wedge during the
// bootstrap window still converts into a requeue, just slowly.
const deadlineBootstrap = 10 * time.Minute

// deadlineWindow bounds the tracker's sample to the most recent completed
// cells. A sliding window keeps the per-cell insert cost constant no matter
// how long the run is, and it makes the p95 track the cells being evaluated
// *now* — cell cost typically grows along a figure's x axis (bigger
// networks, more rounds), and an all-history quantile would hold the
// deadline down at the cheap early cells' level.
const deadlineWindow = 512

// deadlineTracker derives the per-cell response deadline from observed cell
// wall-clock: max(Floor, deadlineMult × p95 of the last deadlineWindow cells).
// Durations are kept sorted so the quantile read is O(1); inserts are
// bounded by the window size.
type deadlineTracker struct {
	cfg DeadlineConfig

	mu   sync.Mutex
	durs []time.Duration // sorted ascending, ≤ deadlineWindow entries
	ring []time.Duration // the same durations in arrival order
	next int             // ring slot the next observation evicts
}

func newDeadlineTracker(cfg DeadlineConfig) *deadlineTracker {
	return &deadlineTracker{cfg: cfg.withDefaults()}
}

// Observe records one successful cell's coordinator-side wall-clock (send
// to response, transport included — that is the quantity the deadline
// bounds).
func (t *deadlineTracker) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < deadlineWindow {
		t.ring = append(t.ring, d)
	} else {
		// Window full: the oldest observation leaves the sorted sample
		// before the new one enters.
		old := t.ring[t.next]
		j := sort.Search(len(t.durs), func(i int) bool { return t.durs[i] >= old })
		t.durs = append(t.durs[:j], t.durs[j+1:]...)
		t.ring[t.next] = d
		t.next = (t.next + 1) % deadlineWindow
	}
	i := sort.Search(len(t.durs), func(i int) bool { return t.durs[i] >= d })
	t.durs = append(t.durs, 0)
	copy(t.durs[i+1:], t.durs[i:])
	t.durs[i] = d
}

// Current returns the deadline to apply to the next cell.
func (t *deadlineTracker) Current() time.Duration {
	if t.cfg.Fixed > 0 {
		return t.cfg.Fixed
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.durs) < deadlineMinObs {
		if t.cfg.Floor > deadlineBootstrap {
			return t.cfg.Floor
		}
		return deadlineBootstrap
	}
	// p95 by the nearest-rank method on the sorted sample.
	rank := (95*len(t.durs) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	d := deadlineMult * t.durs[rank-1]
	if d < t.cfg.Floor {
		return t.cfg.Floor
	}
	return d
}

// Observations reports how many cell durations the tracker has seen.
func (t *deadlineTracker) Observations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs)
}
