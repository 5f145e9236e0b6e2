package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCellRetries is how many times a cell is re-attempted after its
// first failure before the run is declared failed. A worker crash costs the
// in-flight cell one attempt; only a cell that keeps failing across fresh
// workers — a deterministic failure — exhausts the budget.
const DefaultCellRetries = 2

// ErrDrained reports a run stopped by Drain: no new cells were fed after
// the drain signal, in-flight results were collected under the drain
// deadline, and the grids returned by RunAllGrids hold every completed
// cell — convert them with Grid.Partial and persist, so a SIGTERM mid-run
// loses no completed work.
var ErrDrained = errors.New("runner: run drained")

// Config tunes the pool's failure handling. The zero value selects the
// production defaults throughout.
type Config struct {
	// Retries is the per-cell re-attempt budget after the first failure;
	// 0 selects DefaultCellRetries, negative disables requeueing.
	Retries int
	// Deadline bounds how long one cell may stay unanswered before its
	// worker is treated as wedged and recycled.
	Deadline DeadlineConfig
	// Backoff paces worker respawns, replacing immediate respawn so a
	// crash-looping worker binary cannot spin the coordinator.
	Backoff BackoffConfig
	// DrainTimeout bounds how long a drain waits for in-flight cells
	// before abandoning them; 0 selects 30s.
	DrainTimeout time.Duration

	// sleep and uniform are test hooks: a recording sleeper pins the
	// respawn backoff schedule without real delays, a fixed uniform pins
	// the jitter.
	sleep   func(d time.Duration, cancel <-chan struct{})
	uniform func() float64
}

func (c Config) withDefaults() Config {
	switch {
	case c.Retries == 0:
		c.Retries = DefaultCellRetries
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.sleep == nil {
		c.sleep = sleepFor
	}
	return c
}

// sleepFor sleeps d unless cancel fires first.
func sleepFor(d time.Duration, cancel <-chan struct{}) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
}

// Pool is a fault-tolerant worker pool shared across specs: Slots worker
// connections (subprocesses over stdin/stdout pipes, via PipeTransport —
// the -procs backend) fed from one queue.
//
// A Pool is created once for a whole selection: the same workers serve
// cells from successive specs (the coordinator announces spec switches
// with a "SPEC <name>" protocol line), so workers stay busy across figure
// boundaries instead of idling while one figure's tail cells finish and the
// next figure's pool boots.
//
// The pool is also where failure is contained:
//
//   - A worker that dies or answers out of protocol is retired (killed and
//     reaped) and its in-flight cell requeued; slots respawn with
//     exponential backoff and jitter.
//   - A wedged-but-alive worker — no crash, no response — is converted
//     into the same retire/requeue path by the per-cell response deadline
//     (adaptive over observed cell wall-clock; see DeadlineConfig).
//   - The grid only fails once a single cell has failed Retries+1 times —
//     a deterministic failure — and the error names that cell. A
//     cell-level error reported by a healthy worker is retried on the same
//     budget without recycling the worker.
//   - Drain stops feeding new cells and collects in-flight results under a
//     deadline, so a terminating coordinator can persist every completed
//     cell as a resumable partial.
type Pool struct {
	tr    Transport
	cfg   Config
	track *deadlineTracker

	taskCh chan poolTask
	stopCh chan struct{}
	wg     sync.WaitGroup

	drainOnce sync.Once
	drainCh   chan struct{}

	mu     sync.Mutex // serialises runs; a Pool runs one selection at a time
	closed bool
}

// poolTask is one cell assignment handed to a worker connection.
type poolTask struct {
	spec    *Spec
	specIdx int
	idx     int
	attempt int
	done    chan<- poolDone
}

// poolDone reports one attempt's outcome back to the coordinator.
type poolDone struct {
	specIdx int
	idx     int
	attempt int
	values  []float64
	nanos   int64
	err     error
}

// NewPoolTransport starts a pool with one worker slot per transport slot;
// each slot connects lazily, when its first cell arrives. Close the pool
// to shut the workers down.
func NewPoolTransport(tr Transport, cfg Config) *Pool {
	p := &Pool{
		tr:      tr,
		cfg:     cfg.withDefaults(),
		taskCh:  make(chan poolTask),
		stopCh:  make(chan struct{}),
		drainCh: make(chan struct{}),
	}
	p.track = newDeadlineTracker(p.cfg.Deadline)
	for i := 0; i < tr.Slots(); i++ {
		p.wg.Add(1)
		go p.slotLoop()
	}
	return p
}

// Close shuts the pool down: worker connections are closed via the orderly
// path (stdin EOF for subprocesses). Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.taskCh)
	close(p.stopCh)
	p.wg.Wait()
}

// Drain asks the pool to stop feeding new cells: the active RunAllGrids
// collects in-flight results under DrainTimeout and returns ErrDrained
// with the partial grids. Drain is sticky — a drained pool starts no
// further runs — and idempotent, the shape a SIGTERM handler needs.
func (p *Pool) Drain() {
	p.drainOnce.Do(func() { close(p.drainCh) })
}

// RunAllGrids evaluates every spec's grid on the shared pool, pipelining
// cells across spec boundaries: as soon as one spec's queue drains, workers
// pull cells of the next spec while the previous spec's tail cells are
// still in flight. emit is called once per spec, in spec order, as each
// grid completes (it may be nil). On failure the already-dispatched cells
// are drained before returning, so the pool stays usable for another run.
//
// It returns the per-spec grids. On ErrDrained the grids hold every cell
// completed before the drain — persist them with Grid.Partial; on other
// errors they are partial and best ignored.
func (p *Pool) RunAllGrids(specs []*Spec, emit func(i int, g *Grid) error) ([]*Grid, error) {
	cells := make([][]int, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cells[i] = allCells(s)
	}
	return p.runAllCells(specs, cells, emit)
}

// RunCells evaluates an explicit subset of one spec's cells on the pool —
// the sharded path (ShardCells or a timing plan picks the subset), with
// the pool's fault tolerance instead of a Local goroutine pool. The grid
// is incomplete by design, like CellSet's; persist it with Grid.Partial.
// An empty subset evaluates nothing.
func (p *Pool) RunCells(s *Spec, idxs []int) (*Grid, error) {
	grids, err := p.runAllCells([]*Spec{s}, [][]int{idxs}, nil)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

// runAllCells is the engine under RunAllGrids and RunCells: for each spec
// it evaluates the index subset cells[i], which checkCells validates.
func (p *Pool) runAllCells(specs []*Spec, cells [][]int, emit func(i int, g *Grid) error) ([]*Grid, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("runner: run on a closed pool")
	}
	if pt, ok := p.tr.(*PipeTransport); ok && pt.Command == nil {
		return nil, fmt.Errorf("runner: pool without a worker command")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("runner: run without specs")
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(s.Name, " \t\r\n") {
			return nil, fmt.Errorf("runner: spec name %q cannot cross the worker protocol", s.Name)
		}
		if err := checkCells(s, cells[i]); err != nil {
			return nil, err
		}
	}

	type queued struct{ specIdx, idx, attempt int }
	grids := make([]*Grid, len(specs))
	remaining := make([]int, len(specs))
	var pending []queued
	for i, s := range specs {
		grids[i] = NewGrid(s)
		remaining[i] = len(cells[i])
		for _, c := range cells[i] {
			pending = append(pending, queued{i, c, 0})
		}
	}
	// Capacity covers every possible attempt, so a worker finishing an
	// abandoned cell after a drain can always deposit its result without
	// blocking.
	done := make(chan poolDone, len(pending)*(p.cfg.Retries+1))
	next := 0     // head of the pending queue (requeues are appended)
	inflight := 0 // tasks handed to workers and not yet answered
	emitted := 0  // specs whose grids have been emitted, in order
	var failure error

	draining := false
	abandoned := false // drain deadline fired with cells still in flight
	drainCh := p.drainCh
	var drainTimer *time.Timer
	var drainTimeout <-chan time.Time
	startDrain := func() {
		draining = true
		drainCh = nil
		drainTimer = time.NewTimer(p.cfg.DrainTimeout)
		drainTimeout = drainTimer.C
	}
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()

	maybeEmit := func() {
		for failure == nil && emitted < len(specs) && remaining[emitted] == 0 {
			if emit != nil {
				if err := emit(emitted, grids[emitted]); err != nil {
					failure = err
					return
				}
			}
			emitted++
		}
	}

	for {
		if abandoned || (inflight == 0 && (failure != nil || draining || next >= len(pending))) {
			break
		}
		// Offer the next pending task and listen for completions at once;
		// with no pending task (or a doomed or draining run) the nil
		// channel leaves only the drain cases.
		var sendCh chan poolTask
		var t poolTask
		if failure == nil && !draining && next < len(pending) {
			q := pending[next]
			sendCh = p.taskCh
			t = poolTask{spec: specs[q.specIdx], specIdx: q.specIdx, idx: q.idx, attempt: q.attempt, done: done}
		}
		select {
		case sendCh <- t:
			next++
			inflight++
		case d := <-done:
			inflight--
			if failure != nil {
				continue // draining a doomed run; drop the result
			}
			if d.err != nil {
				if draining {
					continue // not feeding; the cell stays unevaluated
				}
				if d.attempt >= p.cfg.Retries {
					failure = fmt.Errorf("runner: spec %s cell %d failed after %d attempts: %w",
						specs[d.specIdx].Name, d.idx, d.attempt+1, d.err)
					continue
				}
				pending = append(pending, queued{d.specIdx, d.idx, d.attempt + 1})
				continue
			}
			if err := grids[d.specIdx].SetTimed(d.idx, d.values, d.nanos); err != nil {
				failure = err
				continue
			}
			remaining[d.specIdx]--
			maybeEmit()
		case <-drainCh:
			startDrain()
		case <-drainTimeout:
			abandoned = true
		}
	}
	if failure != nil {
		return grids, failure
	}
	if draining || abandoned {
		for _, r := range remaining {
			if r != 0 {
				return grids, ErrDrained
			}
		}
	}
	return grids, nil
}

// slotLoop owns one worker slot: it lazily connects (spawning a
// subprocess) when a task arrives, serves tasks until the connection
// fails, and respawns for the next task after an exponential-backoff
// penalty — so a crash-looping worker binary cannot spin the coordinator.
// A spawn failure charges the waiting task one attempt, exactly like any
// other worker failure.
func (p *Pool) slotLoop() {
	defer p.wg.Done()
	bo := newBackoff(p.cfg.Backoff, p.cfg.uniform)
	for {
		var t poolTask
		select {
		case tt, ok := <-p.taskCh:
			if !ok {
				return
			}
			t = tt
		case <-p.stopCh:
			return
		}
		c, err := p.tr.Connect()
		if err != nil {
			t.done <- poolDone{t.specIdx, t.idx, t.attempt, nil, 0, fmt.Errorf("runner: spawning worker: %w", err)}
			p.cfg.sleep(bo.Next(), p.stopCh)
			continue
		}
		lc := newLiveConn(c)
		if p.serveConn(lc, t) {
			lc.shutdown()
			return
		}
		lc.retire()
		if lc.served.Load() > 0 {
			// The binary did real work before dying: not a crash loop.
			bo.Reset()
		}
		p.cfg.sleep(bo.Next(), p.stopCh)
	}
}

// serveConn serves tasks on one connection, starting with first, a task
// the caller already pulled, until the pool closes (true; the caller shuts
// the connection down) or the connection fails (false; the caller retires
// it).
func (p *Pool) serveConn(lc *liveConn, first poolTask) (orderly bool) {
	spec := "" // name announced with the last SPEC line
	t := first
	for {
		switch p.runTask(lc, &spec, t) {
		case taskConnDead:
			return false
		case taskPoolStopped:
			return true
		}
		select {
		case next, ok := <-p.taskCh:
			if !ok {
				return true
			}
			t = next
		case <-lc.respCh:
			// A line (or EOF) with no cell in flight: the peer is gone or
			// off-protocol.
			return false
		case <-p.stopCh:
			return true
		}
	}
}

// taskStatus is one runTask outcome.
type taskStatus int

const (
	taskServed      taskStatus = iota // result or cell error reported; connection healthy
	taskConnDead                      // connection must be retired; task failure reported
	taskPoolStopped                   // pool is closing; task failure reported
)

// runTask runs one cell on the connection: announce the spec if it
// changed, send the index, wait for the response under the per-cell
// deadline. Every path reports the task's outcome to the coordinator
// before returning.
func (p *Pool) runTask(lc *liveConn, spec *string, t poolTask) taskStatus {
	fail := func(err error, st taskStatus) taskStatus {
		t.done <- poolDone{t.specIdx, t.idx, t.attempt, nil, 0, err}
		return st
	}
	if *spec != t.spec.Name {
		if err := lc.conn.WriteLine("SPEC " + t.spec.Name); err != nil {
			return fail(err, taskConnDead)
		}
		*spec = t.spec.Name
	}
	if err := lc.conn.WriteLine(strconv.Itoa(t.idx)); err != nil {
		return fail(err, taskConnDead)
	}
	deadline := p.track.Current()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	start := time.Now() //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
	select {
	case r := <-lc.respCh:
		if r.err != nil {
			return fail(fmt.Errorf("runner: worker died on cell %d: %w", t.idx, r.err), taskConnDead)
		}
		msg := r.msg
		if msg.Idx != t.idx {
			return fail(fmt.Errorf("runner: %s answered cell %d for cell %d", lc.conn.Name(), msg.Idx, t.idx), taskConnDead)
		}
		if msg.Err != "" {
			// The worker is healthy; the cell itself failed. Keep the
			// connection, surface the error for the retry budget.
			return fail(fmt.Errorf("%s", msg.Err), taskServed)
		}
		if msg.Values == nil {
			return fail(fmt.Errorf("runner: empty worker result for cell %d", t.idx), taskConnDead)
		}
		p.track.Observe(time.Since(start)) //repcheck:allow-wallclock feeds the adaptive deadline tracker, never cell values
		lc.served.Add(1)
		t.done <- poolDone{t.specIdx, t.idx, t.attempt, msg.Values, msg.Nanos, nil}
		return taskServed
	case <-timer.C:
		return fail(fmt.Errorf("runner: %s: no response for spec %s cell %d within the %v deadline (wedged worker?)",
			lc.conn.Name(), t.spec.Name, t.idx, deadline.Round(time.Millisecond)), taskConnDead)
	case <-p.stopCh:
		return fail(fmt.Errorf("runner: pool closed with cell %d in flight", t.idx), taskPoolStopped)
	}
}

// connResp is one parsed worker line (or the transport error that ended
// the stream).
type connResp struct {
	msg cellMsg
	err error
}

// liveConn couples a Conn with the reader goroutine that turns its line
// stream into parsed responses — the shape that lets the serving goroutine
// select over responses, deadlines, and pool shutdown at once.
type liveConn struct {
	conn     Conn
	respCh   chan connResp
	dead     chan struct{}
	deadOnce sync.Once
	served   atomic.Int64 // successfully served cells (backoff reset signal)
}

func newLiveConn(c Conn) *liveConn {
	lc := &liveConn{conn: c, respCh: make(chan connResp, 4), dead: make(chan struct{})}
	go lc.readLoop()
	return lc
}

// readLoop reads worker lines until the connection errors or is retired. A
// malformed line ends the stream: the worker is speaking garbage and the
// connection will be retired, so there is nothing left to parse.
func (lc *liveConn) readLoop() {
	for {
		line, err := lc.conn.ReadLine()
		if err != nil {
			lc.deliver(connResp{err: err})
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var msg cellMsg
		if jerr := json.Unmarshal([]byte(line), &msg); jerr != nil {
			lc.deliver(connResp{err: fmt.Errorf("bad worker response %q: %w", line, jerr)})
			return
		}
		if !lc.deliver(connResp{msg: msg}) {
			return
		}
	}
}

// deliver hands one response to the serving goroutine, giving up once the
// connection has been retired (nobody is listening anymore).
func (lc *liveConn) deliver(r connResp) bool {
	select {
	case lc.respCh <- r:
		return true
	case <-lc.dead:
		return false
	}
}

// retire tears the connection down on the error path.
func (lc *liveConn) retire() {
	lc.deadOnce.Do(func() { close(lc.dead) })
	lc.conn.Abort()
}

// shutdown closes the connection on the orderly path.
func (lc *liveConn) shutdown() {
	lc.deadOnce.Do(func() { close(lc.dead) })
	lc.conn.Shutdown()
}
