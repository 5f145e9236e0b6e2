package runner

import (
	"testing"
	"time"
)

func TestBackoffScheduleDeterministic(t *testing.T) {
	bo := newBackoff(BackoffConfig{Base: 100 * time.Millisecond, Max: time.Second, Jitter: -1}, nil)
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second, // stays capped
	}
	for i, w := range want {
		if got := bo.Next(); got != w {
			t.Errorf("attempt %d: got %v, want %v", i, got, w)
		}
	}
	bo.Reset()
	if got := bo.Next(); got != 100*time.Millisecond {
		t.Errorf("after Reset: got %v, want %v", got, 100*time.Millisecond)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// Jitter j maps a delay d to d·(1 − j/2 + j·u): u=0 is the −25% edge,
	// u=0.5 the nominal value, u→1 the +25% edge (for the default j=0.5).
	cases := []struct {
		uniform float64
		want    time.Duration
	}{
		{0, 75 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
		{1, 125 * time.Millisecond},
	}
	for _, c := range cases {
		bo := newBackoff(BackoffConfig{Base: 100 * time.Millisecond, Jitter: 0.5},
			func() float64 { return c.uniform })
		if got := bo.Next(); got != c.want {
			t.Errorf("uniform %v: got %v, want %v", c.uniform, got, c.want)
		}
	}
}

func TestDeadlineTrackerBootstrapThenAdaptive(t *testing.T) {
	tr := newDeadlineTracker(DeadlineConfig{Floor: 50 * time.Millisecond})
	if got := tr.Current(); got != deadlineBootstrap {
		t.Fatalf("no observations: got %v, want bootstrap %v", got, deadlineBootstrap)
	}
	for i := 0; i < deadlineMinObs-1; i++ {
		tr.Observe(10 * time.Millisecond)
	}
	if got := tr.Current(); got != deadlineBootstrap {
		t.Fatalf("%d observations: got %v, still want bootstrap", deadlineMinObs-1, got)
	}
	tr.Observe(20 * time.Millisecond)
	// p95 of [10,10,10,10,20]ms by nearest rank is 20ms; ×10 = 200ms.
	if got := tr.Current(); got != 200*time.Millisecond {
		t.Fatalf("adaptive deadline: got %v, want 200ms", got)
	}
}

func TestDeadlineTrackerFloor(t *testing.T) {
	tr := newDeadlineTracker(DeadlineConfig{Floor: time.Second})
	for i := 0; i < 10; i++ {
		tr.Observe(time.Millisecond)
	}
	if got := tr.Current(); got != time.Second {
		t.Fatalf("fast cells: got %v, want the %v floor", got, time.Second)
	}
}

func TestDeadlineTrackerFixedOverride(t *testing.T) {
	tr := newDeadlineTracker(DeadlineConfig{Fixed: 42 * time.Millisecond})
	if got := tr.Current(); got != 42*time.Millisecond {
		t.Fatalf("fixed, no observations: got %v", got)
	}
	for i := 0; i < 20; i++ {
		tr.Observe(time.Duration(i) * time.Second)
	}
	if got := tr.Current(); got != 42*time.Millisecond {
		t.Fatalf("fixed with observations: got %v", got)
	}
}

// TestDeadlineTrackerSlidingWindow: the sample is bounded at
// deadlineWindow entries and old observations are evicted, so the p95
// follows a cost shift instead of being anchored by early cheap cells.
func TestDeadlineTrackerSlidingWindow(t *testing.T) {
	tr := newDeadlineTracker(DeadlineConfig{Floor: 1})
	for i := 0; i < deadlineWindow; i++ {
		tr.Observe(10 * time.Millisecond)
	}
	if got := tr.Observations(); got != deadlineWindow {
		t.Fatalf("full window: %d observations, want %d", got, deadlineWindow)
	}
	if got := tr.Current(); got != deadlineMult*10*time.Millisecond {
		t.Fatalf("uniform window: deadline %v, want %d×10ms", got, deadlineMult)
	}
	// A full window of slower cells must displace every old observation.
	for i := 0; i < deadlineWindow; i++ {
		tr.Observe(20 * time.Millisecond)
	}
	if got := tr.Observations(); got != deadlineWindow {
		t.Fatalf("after eviction: %d observations, want %d", got, deadlineWindow)
	}
	if got := tr.Current(); got != deadlineMult*20*time.Millisecond {
		t.Fatalf("shifted window: deadline %v, want %d×20ms", got, deadlineMult)
	}
}

// BenchmarkDeadlineTracker measures the coordinator-side cost added to
// every completed cell: one sorted insert plus one p95 read, both bounded
// by the sliding window.
func BenchmarkDeadlineTracker(b *testing.B) {
	tr := newDeadlineTracker(DeadlineConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(time.Duration(i%1000) * time.Microsecond)
		_ = tr.Current()
	}
}
