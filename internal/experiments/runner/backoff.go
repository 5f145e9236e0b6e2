package runner

import (
	"math/rand"
	"time"
)

// BackoffConfig parameterises the exponential-backoff-with-jitter schedule
// the pool applies between worker respawns. Replacing the old immediate
// respawn, the schedule keeps a crash-looping worker binary from spinning
// the coordinator: consecutive failures double the delay up to Max, and
// the jitter keeps slots that failed together from respawning in
// lockstep.
type BackoffConfig struct {
	// Base is the delay after the first failure; 0 selects 100ms.
	Base time.Duration
	// Max caps the delay; 0 selects 10s.
	Max time.Duration
	// Jitter is the fraction of the delay randomised around its nominal
	// value: a delay d becomes d·(1 − Jitter/2 + Jitter·u) for uniform
	// u ∈ [0,1), so Jitter=0.5 spreads attempts over ±25%. Negative
	// disables jitter; 0 selects 0.5.
	Jitter float64
}

// withDefaults fills zero fields with the production schedule.
func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 100 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = 10 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	} else if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// backoffFactor multiplies the delay per consecutive failure.
const backoffFactor = 2

// backoff tracks one failure streak. Not safe for concurrent use; every
// worker slot owns its own.
type backoff struct {
	cfg     BackoffConfig
	attempt int
	uniform func() float64 // jitter source; injectable for deterministic tests
}

func newBackoff(cfg BackoffConfig, uniform func() float64) *backoff {
	if uniform == nil {
		uniform = rand.Float64 //repcheck:allow-wallclock respawn jitter must differ across slots; results never depend on it
	}
	return &backoff{cfg: cfg.withDefaults(), uniform: uniform}
}

// Next returns the delay before the next attempt and advances the streak.
func (b *backoff) Next() time.Duration {
	d := float64(b.cfg.Base)
	for i := 0; i < b.attempt; i++ {
		d *= backoffFactor
		if d >= float64(b.cfg.Max) {
			d = float64(b.cfg.Max)
			break
		}
	}
	if d > float64(b.cfg.Max) {
		d = float64(b.cfg.Max)
	}
	b.attempt++
	if j := b.cfg.Jitter; j > 0 {
		d *= 1 - j/2 + j*b.uniform()
	}
	return time.Duration(d)
}

// Reset ends the failure streak: the next delay starts from Base again.
// Called once a worker proves healthy (a spawned process completes a cell).
func (b *backoff) Reset() { b.attempt = 0 }
