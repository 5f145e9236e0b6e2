package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// fakeConn is an in-memory Conn scripted by a worker goroutine — the
// harness for protocol-robustness tests, where the "worker" misbehaves in
// precisely controlled ways (garbage lines, truncated output, wrong cell
// ids) without subprocesses or sockets.
type fakeConn struct {
	in      chan string // coordinator → worker assignment lines
	out     chan string // worker → coordinator response lines
	closed  chan struct{}
	once    sync.Once
	outOnce sync.Once
}

func newFakeConn() *fakeConn {
	return &fakeConn{
		in:     make(chan string, 64),
		out:    make(chan string, 64),
		closed: make(chan struct{}),
	}
}

func (c *fakeConn) WriteLine(l string) error {
	select {
	case c.in <- l:
		return nil
	case <-c.closed:
		return io.ErrClosedPipe
	}
}

func (c *fakeConn) ReadLine() (string, error) {
	select {
	case l, ok := <-c.out:
		if !ok {
			return "", io.EOF
		}
		return l, nil
	case <-c.closed:
		return "", io.EOF
	}
}

func (c *fakeConn) Abort()          { c.once.Do(func() { close(c.closed) }) }
func (c *fakeConn) Shutdown() error { c.Abort(); return nil }
func (c *fakeConn) Name() string    { return "fake worker" }

// closeOut simulates the worker's side of the stream ending (EOF at the
// coordinator) without tearing the whole conn down.
func (c *fakeConn) closeOut() { c.outOnce.Do(func() { close(c.out) }) }

// scriptedConn starts a worker goroutine serving spec s on a fresh conn.
// mangle, if non-nil, sees each healthy JSON response with its 0-based
// response count and returns the line to actually send (empty = send
// nothing) and whether to keep serving (false = EOF after this line).
func scriptedConn(s *Spec, mangle func(n int, line string) (string, bool)) *fakeConn {
	c := newFakeConn()
	go func() {
		n := 0
		for {
			var line string
			select {
			case line = <-c.in:
			case <-c.closed:
				return
			}
			if strings.HasPrefix(line, "SPEC ") {
				continue
			}
			msg, err := serveCell(s, line)
			if err != nil {
				return
			}
			b, _ := json.Marshal(msg)
			out, keep := string(b), true
			if mangle != nil {
				out, keep = mangle(n, out)
			}
			n++
			if out != "" {
				select {
				case c.out <- out:
				case <-c.closed:
					return
				}
			}
			if !keep {
				c.closeOut()
				return
			}
		}
	}()
	return c
}

// fakeTransport is a pool-driven transport whose Connect returns scripted
// conns: the queued ones first, then fresh healthy ones.
type fakeTransport struct {
	n    int
	spec *Spec

	mu     sync.Mutex
	queue  []func() *fakeConn
	dialed int
}

func (t *fakeTransport) Slots() int {
	if t.n < 1 {
		return 1
	}
	return t.n
}

func (t *fakeTransport) Connect() (Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dialed++
	if len(t.queue) > 0 {
		f := t.queue[0]
		t.queue = t.queue[1:]
		return f(), nil
	}
	return scriptedConn(t.spec, nil), nil
}

// fastCfg keeps robustness tests quick: no real backoff sleeps, a firm
// fixed deadline instead of the 10-minute bootstrap.
func fastCfg() Config {
	return Config{
		Deadline: DeadlineConfig{Fixed: 5 * time.Second},
		Backoff:  BackoffConfig{Base: time.Millisecond, Max: time.Millisecond, Jitter: -1},
	}
}

// runFaulty evaluates the spec on a single-slot pool whose first connection
// misbehaves per mangle, and requires the final table to match a Local run
// — the faulty worker must cost retries, never correctness.
func runFaulty(t *testing.T, s *Spec, mangle func(n int, line string) (string, bool)) {
	t.Helper()
	tr := &fakeTransport{n: 1, spec: s,
		queue: []func() *fakeConn{func() *fakeConn { return scriptedConn(s, mangle) }}}
	pool := NewPoolTransport(tr, fastCfg())
	defer pool.Close()
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatalf("pooled run with faulty worker: %v", err)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulty-worker run diverged from Local:\ngot  %+v\nwant %+v", got, want)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.dialed < 2 {
		t.Fatalf("expected the faulty worker to be replaced, dialed %d conns", tr.dialed)
	}
}

// TestPoolRunCellsEmptySubset: an empty cell subset — ShardCells for a
// shard past the grid's last cell, or a timing plan's empty shard — must
// evaluate nothing on the pool, exactly as CellSet does, rather than being
// mistaken for the whole grid.
func TestPoolRunCellsEmptySubset(t *testing.T) {
	s := namedSpec(t, "grid-3x2x2") // 12 cells
	idxs, err := ShardCells(s.Cells(), 13, 14)
	if err != nil {
		t.Fatal(err)
	}
	tr := &fakeTransport{n: 1, spec: s}
	pool := NewPoolTransport(tr, fastCfg())
	defer pool.Close()
	for _, subset := range [][]int{idxs, {}, nil} {
		pooled, err := pool.RunCells(s, subset)
		if err != nil {
			t.Fatal(err)
		}
		local, err := CellSet{Idxs: subset}.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		got := len(pooled.Partial(1, false, 0, 0).Results)
		want := len(local.Partial(1, false, 0, 0).Results)
		if got != 0 || want != 0 {
			t.Fatalf("empty subset %v: pool evaluated %d cells, CellSet %d; want 0", subset, got, want)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.dialed != 0 {
		t.Fatalf("empty subsets connected %d workers", tr.dialed)
	}
}

// TestPoolSurvivesGarbageResponse: a worker answering with a line no JSON
// decoder accepts is retired and its cell requeued on a fresh worker;
// later cells are not poisoned.
func TestPoolSurvivesGarbageResponse(t *testing.T) {
	s := namedSpec(t, "grid-2x2x1")
	runFaulty(t, s, func(n int, line string) (string, bool) {
		if n == 1 {
			return "!!not json!!", true
		}
		return line, true
	})
}

// TestPoolSurvivesTruncatedResponse: a connection dying mid-line (the
// truncated JSON a crash or network drop leaves behind) routes the
// in-flight cell to requeue.
func TestPoolSurvivesTruncatedResponse(t *testing.T) {
	s := namedSpec(t, "grid-2x2x1")
	runFaulty(t, s, func(n int, line string) (string, bool) {
		if n == 1 {
			return line[:len(line)/2], false // half a response, then EOF
		}
		return line, true
	})
}

// TestPoolSurvivesWrongCellID: a worker answering some other cell's id is
// off-protocol; trusting the id would poison two cells at once, so the
// conn is retired and the in-flight cell requeued.
func TestPoolSurvivesWrongCellID(t *testing.T) {
	s := namedSpec(t, "grid-2x2x1")
	runFaulty(t, s, func(n int, line string) (string, bool) {
		if n == 1 {
			var msg cellMsg
			if err := json.Unmarshal([]byte(line), &msg); err != nil {
				t.Errorf("scripted worker built unparseable line %q", line)
			}
			msg.Idx = (msg.Idx + 1) % s.Cells() // in range, but not the asked cell
			b, _ := json.Marshal(msg)
			return string(b), true
		}
		return line, true
	})
}

// TestPoolSurvivesSilentEOF: a worker that reads an assignment and drops
// the connection without a byte of response (the disconnect fault).
func TestPoolSurvivesSilentEOF(t *testing.T) {
	s := namedSpec(t, "grid-2x2x1")
	runFaulty(t, s, func(n int, line string) (string, bool) {
		if n == 1 {
			return "", false
		}
		return line, true
	})
}

// TestPoolDeadlineConvertsWedgedConn: a worker that stays connected but
// never answers is converted into retire+requeue by the response deadline
// rather than hanging the run.
func TestPoolDeadlineConvertsWedgedConn(t *testing.T) {
	s := namedSpec(t, "grid-2x2x1")
	wedged := func() *fakeConn {
		c := newFakeConn()
		go func() {
			for {
				select {
				case <-c.in: // swallow assignments, answer nothing
				case <-c.closed:
					return
				}
			}
		}()
		return c
	}
	cfg := fastCfg()
	cfg.Deadline = DeadlineConfig{Fixed: 50 * time.Millisecond}
	tr := &fakeTransport{n: 1, spec: s, queue: []func() *fakeConn{wedged}}
	pool := NewPoolTransport(tr, cfg)
	defer pool.Close()
	start := time.Now()
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatalf("run with wedged worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	got, err := Reduce(s, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wedged-worker run diverged from Local")
	}
}

// TestPoolRespawnBackoffSchedule pins the respawn pacing: a connection
// that dies instantly on every attempt is retried on the exponential
// schedule, and the run fails only after the cell's retry budget.
func TestPoolRespawnBackoffSchedule(t *testing.T) {
	s := namedSpec(t, "grid-1x1x1")
	var mu sync.Mutex
	var slept []time.Duration
	cfg := Config{
		Retries:  3,
		Deadline: DeadlineConfig{Fixed: 5 * time.Second},
		Backoff:  BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1},
		sleep: func(d time.Duration, cancel <-chan struct{}) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}
	dead := func() *fakeConn {
		c := newFakeConn()
		c.closeOut() // EOF on first read; never serves a cell
		return c
	}
	tr := &fakeTransport{n: 1, spec: s, queue: []func() *fakeConn{dead, dead, dead, dead}}
	pool := NewPoolTransport(tr, cfg)
	defer pool.Close()
	_, err := runOne(pool, s)
	if err == nil || !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("got %v, want a 4-attempt cell failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("respawn sleeps %v, want the exponential schedule %v", slept, want)
	}
}

// TestPoolBackoffResetsAfterHealthyCell: a worker that served a cell
// before dying is not a crash loop, so the streak resets and every respawn
// waits only the base delay.
func TestPoolBackoffResetsAfterHealthyCell(t *testing.T) {
	s := namedSpec(t, "grid-4x1x1")
	var mu sync.Mutex
	var slept []time.Duration
	cfg := Config{
		Deadline: DeadlineConfig{Fixed: 5 * time.Second},
		Backoff:  BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1},
		sleep: func(d time.Duration, cancel <-chan struct{}) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}
	oneCell := func() *fakeConn {
		return scriptedConn(s, func(n int, line string) (string, bool) {
			return line, n < 0 // serve exactly one response, then EOF
		})
	}
	tr := &fakeTransport{n: 1, spec: s,
		queue: []func() *fakeConn{oneCell, oneCell, oneCell, oneCell}}
	pool := NewPoolTransport(tr, cfg)
	defer pool.Close()
	if _, err := runOne(pool, s); err != nil {
		t.Fatalf("run with one-cell workers: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) == 0 {
		t.Fatal("expected at least one respawn sleep")
	}
	for i, d := range slept {
		if d != 10*time.Millisecond {
			t.Fatalf("sleep %d was %v; healthy workers must reset the streak to the 10ms base (all: %v)", i, d, slept)
		}
	}
}

// errConnTransport fails Connect itself a fixed number of times before
// handing out healthy conns.
type errConnTransport struct {
	fakeTransport
	fails int
}

func (t *errConnTransport) Connect() (Conn, error) {
	t.mu.Lock()
	if t.fails > 0 {
		t.fails--
		t.mu.Unlock()
		return nil, fmt.Errorf("simulated spawn failure")
	}
	t.mu.Unlock()
	return t.fakeTransport.Connect()
}

// TestPoolSpawnFailureBacksOff: failing to establish the connection at all
// (spawn failure) charges the waiting cell an attempt and paces the retry.
func TestPoolSpawnFailureBacksOff(t *testing.T) {
	s := namedSpec(t, "grid-1x1x1")
	var mu sync.Mutex
	var slept []time.Duration
	cfg := fastCfg()
	cfg.Backoff = BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1}
	cfg.sleep = func(d time.Duration, cancel <-chan struct{}) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	tr := &errConnTransport{fakeTransport: fakeTransport{n: 1, spec: s}, fails: 2}
	pool := NewPoolTransport(tr, cfg)
	defer pool.Close()
	if _, err := runOne(pool, s); err != nil {
		t.Fatalf("run after spawn failures: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("spawn-failure sleeps %v, want %v", slept, want)
	}
}

// TestGridDrainRoundTrip drains a run mid-flight and finishes it from the
// persisted partial: drain + resume must reproduce the uninterrupted
// output exactly.
func TestGridDrainRoundTrip(t *testing.T) {
	s := namedSpec(t, "grid-4x3x1") // 12 cells
	var pool *Pool
	slow := func() *fakeConn {
		return scriptedConn(s, func(n int, line string) (string, bool) {
			if n == 2 {
				pool.Drain() // sticky; fires while cells remain unfed
			}
			if n >= 2 {
				time.Sleep(50 * time.Millisecond) // let the drain win the race
			}
			return line, true
		})
	}
	cfg := fastCfg()
	tr := &fakeTransport{n: 1, spec: s, queue: []func() *fakeConn{slow}}
	pool = NewPoolTransport(tr, cfg)
	defer pool.Close()
	grids, err := pool.RunAllGrids([]*Spec{s}, nil)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("got %v, want ErrDrained", err)
	}
	p := grids[0].Partial(1, false, 0, 0)
	if len(p.Results) == 0 || len(p.Results) == s.Cells() {
		t.Fatalf("drain left %d of %d cells — expected a strict subset", len(p.Results), s.Cells())
	}

	// Resume: evaluate exactly the missing cells, merge, compare to Local.
	missing := p.MissingCells()
	if len(missing)+len(p.Results) != s.Cells() {
		t.Fatalf("MissingCells reported %d, results %d, grid %d", len(missing), len(p.Results), s.Cells())
	}
	g2, err := CellSet{Idxs: missing}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := trace.MergePartials(p, g2.Partial(1, false, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	full, err := FromPartial(s, merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reduce(s, full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("drain+resume output diverged from the uninterrupted run")
	}
}

// TestPoolDrainTimeoutAbandonsWedgedCell: a drain with a worker that never
// answers its in-flight cell must still return within the drain deadline.
func TestPoolDrainTimeoutAbandonsWedgedCell(t *testing.T) {
	s := namedSpec(t, "grid-4x1x1")
	var pool *Pool
	wedgeAfter := func() *fakeConn {
		return scriptedConn(s, func(n int, line string) (string, bool) {
			if n == 1 {
				pool.Drain()
				return "", true // swallow this response; the cell stays in flight
			}
			return line, true
		})
	}
	cfg := fastCfg()
	cfg.DrainTimeout = 100 * time.Millisecond
	tr := &fakeTransport{n: 1, spec: s, queue: []func() *fakeConn{wedgeAfter}}
	pool = NewPoolTransport(tr, cfg)
	defer pool.Close()
	start := time.Now()
	grids, err := pool.RunAllGrids([]*Spec{s}, nil)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("got %v, want ErrDrained", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain with a wedged in-flight cell took %v", elapsed)
	}
	if got := len(grids[0].Partial(1, false, 0, 0).Results); got == 0 || got >= s.Cells() {
		t.Fatalf("drained grid has %d of %d cells", got, s.Cells())
	}
}
