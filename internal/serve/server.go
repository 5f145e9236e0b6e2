package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// CheckpointName is the state directory's checkpoint file; the WAL is a
// chain of segment files (wal-000001.log, …) managed by Log.
const CheckpointName = "checkpoint.json"

// DefaultCheckpointEvery is the closed-round interval between checkpoints.
const DefaultCheckpointEvery = 16

// Config assembles a Server. NewStream must be a deterministic factory —
// every call (including the replay on a restart) must build a bit-identical
// environment, algorithm, and stream; thread all randomness from an
// explicit seed. Fingerprint names that configuration (topology, scenario,
// algorithm, seed, window); the WAL and checkpoints embed it and refuse to
// restore across a mismatch.
type Config struct {
	NewStream   func() (*sim.Stream, error)
	Fingerprint string

	Window          int     // requests per demand window (DefaultWindow)
	KeepRounds      int     // rolling ledger ring (DefaultKeepRounds)
	QueueCap        int     // ingest queue bound (DefaultQueueCap)
	ShedFraction    float64 // non-critical shed threshold (DefaultShedFraction)
	CheckpointEvery int     // closed rounds between checkpoints (DefaultCheckpointEvery)

	// SegmentEntries rotates the WAL to a fresh segment file every that
	// many appends; sealed segments wholly below a restorable checkpoint's
	// cursor are then deleted, keeping a long run's state directory
	// bounded. Zero (the default) keeps a single ever-growing segment.
	// Truncation requires the algorithm to implement sim.StateSnapshotter
	// (ONTH and ONBR do); for other algorithms segments rotate but are all
	// retained, since recovery must replay the log from entry zero.
	SegmentEntries int

	// Dir is the state directory for the WAL and checkpoints; empty runs
	// ephemeral (no persistence, no recovery).
	Dir string

	// RequestTimeout bounds each HTTP request (default 5s).
	RequestTimeout time.Duration

	// Fault is the injected failure, if any (see ParseFault).
	Fault Fault

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...interface{})

	// Kill terminates the process for the kill fault; nil means log and
	// os.Exit(137). Tests override it to keep the kill in-process.
	Kill func(reason string)
}

// pendingItem tracks one admitted batch awaiting its round, for sojourn
// latency.
type pendingItem struct {
	class Class
	count int
	at    time.Time
}

// Server owns the serving loop: the bounded ingest queue, the single
// consumer goroutine driving the engine, the WAL, periodic checkpoints,
// and graceful drain. Build with New (which also performs crash recovery),
// then Start; Drain stops admission, flushes the queue, and writes the
// final checkpoint.
type Server struct {
	cfg     Config
	queue   *IngestQueue
	metrics *Metrics
	wal     *Log

	mu     sync.Mutex // guards engine between the consumer and snapshots
	engine *Engine

	draining     atomic.Bool
	started      atomic.Bool
	consumerDone chan struct{}

	// consumer-goroutine state (no locking needed)
	pending     []pendingItem
	closedSince int // closed rounds since the last checkpoint attempt
	closedTotal int // closed rounds since process start (fault trigger)
	ckptOK      int // successful checkpoints (ckptfail trigger)
	admits      int // admitted ingests since process start (flood trigger)
}

// New builds a server and, when the state directory already holds a WAL,
// recovers. With the full log on disk it is replayed through a fresh
// deterministic engine, and the last checkpoint (if any) is validated
// bit-for-bit against the replayed state at its cursor. When truncation
// has deleted the log's prefix, the checkpoint is restored directly and
// only the retained tail is replayed. Either way, after recovery the
// ledger is exactly what an uninterrupted run over the same admitted
// stream would hold.
func New(cfg Config) (*Server, error) {
	if cfg.NewStream == nil {
		return nil, fmt.Errorf("serve: Config.NewStream is required")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	stream, err := cfg.NewStream()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		queue:        NewIngestQueue(cfg.QueueCap, cfg.ShedFraction),
		metrics:      &Metrics{},
		engine:       NewEngine(stream, cfg.Window, cfg.KeepRounds),
		consumerDone: make(chan struct{}),
	}
	if cfg.Kill == nil {
		s.cfg.Kill = func(reason string) {
			s.logf("%s", reason)
			os.Exit(137)
		}
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	exists, err := LogExists(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if !exists {
		wal, err := CreateLog(cfg.Dir, cfg.Fingerprint, cfg.SegmentEntries)
		if err != nil {
			return nil, err
		}
		s.wal = wal
		return s, nil
	}
	wal, base, entries, err := OpenLog(cfg.Dir, cfg.Fingerprint, cfg.SegmentEntries)
	if err != nil {
		return nil, err
	}
	replayed, err := recoverEngine(s.engine, cfg, base, entries)
	if err != nil {
		wal.Close()
		return nil, err
	}
	s.metrics.ObserveReplay(replayed)
	if replayed > 0 || len(entries) > 0 || base > 0 {
		s.logf("recovered: replayed %d WAL entries (%d rounds) from base %d, resuming at round %d cursor %d",
			len(entries), replayed, base, s.engine.Round(), s.engine.Cursor())
	}
	s.wal = wal
	return s, nil
}

// recoverEngine rebuilds a fresh engine from the state directory's
// checkpoint and retained WAL entries (whose first global index is base),
// returning how many rounds the replay closed. base == 0 is the original
// full-replay path: every entry is applied and the checkpoint, if any,
// validates bit-for-bit at its cursor. base > 0 means truncation deleted
// the log's prefix; then a restorable checkpoint inside the retained
// range is mandatory, the engine resumes from it, and only the entries
// past its cursor are replayed.
func recoverEngine(engine *Engine, cfg Config, base int, entries []Entry) (int, error) {
	var ckpt *Checkpoint
	ckptPath := filepath.Join(cfg.Dir, CheckpointName)
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		c, err := ReadCheckpoint(ckptPath, cfg.Fingerprint)
		if err != nil {
			return 0, err
		}
		ckpt = c
		if ckpt.Cursor > base+len(entries) {
			return 0, fmt.Errorf("serve: checkpoint cursor %d beyond WAL length %d — log lost entries", ckpt.Cursor, base+len(entries))
		}
	}
	if base > 0 {
		if ckpt == nil {
			return 0, fmt.Errorf("serve: WAL truncated to base %d but no checkpoint to restore from — state directory corrupt", base)
		}
		if ckpt.Cursor < base {
			return 0, fmt.Errorf("serve: checkpoint cursor %d below WAL base %d — log lost entries", ckpt.Cursor, base)
		}
		if err := ckpt.restore(engine); err != nil {
			return 0, err
		}
		replayed := 0
		for _, e := range entries[ckpt.Cursor-base:] {
			if engine.Apply(e).Closed() {
				replayed++
			}
		}
		return replayed, nil
	}
	replayed := 0
	for i, e := range entries {
		if ckpt != nil && i == ckpt.Cursor {
			if err := ckpt.matches(engine); err != nil {
				return 0, fmt.Errorf("serve: replayed state diverges from checkpoint at cursor %d: %w", ckpt.Cursor, err)
			}
		}
		if engine.Apply(e).Closed() {
			replayed++
		}
	}
	if ckpt != nil && ckpt.Cursor == len(entries) {
		if err := ckpt.matches(engine); err != nil {
			return 0, fmt.Errorf("serve: replayed state diverges from checkpoint at cursor %d: %w", ckpt.Cursor, err)
		}
	}
	return replayed, nil
}

// Start launches the consumer goroutine. It is idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.consume()
}

// Ingest admits one request: validation, admission control, WAL append,
// and enqueue. Under an armed flood fault every admission is amplified
// with synthetic standard-class copies pushed through the same admission
// path (so the flood is itself replayable).
func (s *Server) Ingest(r Request) error {
	if r.Count == 0 {
		r.Count = 1
	}
	if err := r.Validate(s.n()); err != nil {
		return err
	}
	if err := s.queue.Admit(r, time.Now(), s.persist); err != nil { //repcheck:allow-wallclock admission timestamps are live-traffic metadata; replay takes times from the WAL
		return err
	}
	s.admitFlood(r)
	return nil
}

// admitFlood injects the flood fault's synthetic copies; their shed errors
// are discarded (overload is the point).
func (s *Server) admitFlood(r Request) {
	f := s.cfg.Fault
	if f.Kind != FaultFlood {
		return
	}
	s.mu.Lock()
	s.admits++
	armed := f.Active(s.admits)
	s.mu.Unlock()
	if !armed {
		return
	}
	for i := 1; i < f.Factor; i++ {
		synthetic := Request{Node: r.Node, Count: r.Count, Class: Standard}
		if err := s.queue.Admit(synthetic, time.Now(), s.persist); err != nil { //repcheck:allow-wallclock admission timestamps are live-traffic metadata; replay takes times from the WAL
			return // queue saturated — flood achieved
		}
	}
}

// Tick closes the current demand window explicitly. Ticks are WAL-logged,
// so replay reproduces the same round boundaries.
func (s *Server) Tick() error {
	return s.queue.Tick(time.Now(), s.persist) //repcheck:allow-wallclock admission timestamps are live-traffic metadata; replay takes times from the WAL
}

// persist is the queue's WAL hook, called under the queue lock so the log
// order equals the queue order.
func (s *Server) persist(e Entry) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Append(e)
}

// consume is the single goroutine driving the engine.
func (s *Server) consume() {
	defer close(s.consumerDone)
	for {
		item, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.mu.Lock()
		out := s.engine.Apply(item.e)
		s.mu.Unlock()
		if item.e.Tick {
			s.metrics.ObserveTick()
		} else {
			s.pending = append(s.pending, pendingItem{class: item.e.Class, count: item.e.Count, at: item.at})
		}
		if !out.Closed() {
			continue
		}
		now := time.Now() //repcheck:allow-wallclock latency metrics measure real elapsed time for live traffic
		if out.Served {
			for _, p := range s.pending {
				s.metrics.ObserveServed(p.class, p.count, now.Sub(p.at))
			}
		} else {
			for _, p := range s.pending {
				s.metrics.ObserveQuarantined(p.class, p.count)
			}
			s.logf("%v", out.Quarantined)
		}
		s.pending = s.pending[:0]
		s.metrics.ObserveRound(out)
		s.closedTotal++
		if f := s.cfg.Fault; f.Kind == FaultSlow && f.Active(s.closedTotal) {
			time.Sleep(f.Delay)
		}
		// The kill fires before the periodic checkpoint, so the WAL is
		// always ahead of the last checkpoint — the case recovery must
		// replay through.
		if f := s.cfg.Fault; f.Kind == FaultKill && f.Active(s.closedTotal) {
			s.cfg.Kill(fmt.Sprintf("serve: fault kill after %d rounds (cursor %d)", s.closedTotal, s.engine.Cursor()))
			return // test Kill hooks return instead of exiting
		}
		s.closedSince++
		if s.closedSince >= s.cfg.CheckpointEvery {
			s.closedSince = 0
			s.checkpoint()
		}
	}
}

// checkpoint writes one periodic snapshot, tolerating failure: an injected
// (or real) write error is counted and logged, and the previous complete
// checkpoint stays in place thanks to the atomic rename.
func (s *Server) checkpoint() {
	if s.cfg.Dir == "" {
		return
	}
	if f := s.cfg.Fault; f.Kind == FaultCkptFail && f.Active(s.ckptOK) {
		s.metrics.ObserveCheckpoint(false)
		s.logf("checkpoint write failed (injected fault); previous checkpoint retained")
		return
	}
	if err := s.wal.Sync(); err != nil {
		s.metrics.ObserveCheckpoint(false)
		s.logf("checkpoint skipped: WAL sync: %v", err)
		return
	}
	s.mu.Lock()
	c := checkpointOf(s.engine, s.cfg.Fingerprint)
	s.mu.Unlock()
	if err := WriteCheckpoint(filepath.Join(s.cfg.Dir, CheckpointName), c); err != nil {
		s.metrics.ObserveCheckpoint(false)
		s.logf("checkpoint write failed: %v", err)
		return
	}
	s.ckptOK++
	s.metrics.ObserveCheckpoint(true)
	// The durable checkpoint anchors truncation: sealed segments wholly
	// below its cursor are no longer needed for recovery (restore covers
	// them), so a long run's state directory stays bounded. Non-restorable
	// checkpoints (algorithm without state snapshots) anchor nothing —
	// recovery would still need the full log.
	if c.Restorable() {
		removed, err := s.wal.TruncateBefore(c.Cursor)
		if err != nil {
			s.logf("WAL truncation: %v", err)
		} else if removed > 0 {
			s.logf("WAL truncated: removed %d sealed segments below cursor %d (%d on disk)", removed, c.Cursor, s.wal.Segments())
		}
	}
}

// Drain is the graceful shutdown: stop admitting (readyz turns 503, ingest
// returns draining), let the consumer flush every already-admitted entry,
// then write a final checkpoint and close the WAL. Safe to call once.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.consumerDone
		return
	}
	s.queue.Close()
	if s.started.Load() {
		<-s.consumerDone
	} else {
		close(s.consumerDone)
	}
	s.checkpoint()
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.logf("final WAL sync: %v", err)
		}
		if err := s.wal.Close(); err != nil {
			s.logf("WAL close: %v", err)
		}
		s.wal = nil
	}
}

// Draining reports whether the server stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// n returns the network size.
func (s *Server) n() int {
	return s.engine.Stream().Env().Graph.N()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// MetricsSnapshot captures the full observable state for GET /metrics.
func (s *Server) MetricsSnapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics.snapshot(s.queue, s.engine, s.engine.WindowCount())
}

// PlacementView is the GET /placement shape.
type PlacementView struct {
	Round     int   `json:"round"`
	Placement []int `json:"placement"`
	Active    int   `json:"active"`
	Inactive  int   `json:"inactive"`
}

// PlacementSnapshot captures the current configuration.
func (s *Server) PlacementSnapshot() PlacementView {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.engine.Placement()
	return PlacementView{
		Round:     s.engine.Round(),
		Placement: p,
		Active:    len(p),
		Inactive:  s.engine.Stream().Algorithm().Inactive(),
	}
}

// LedgerDump is the full-precision service ledger: GET /ledger and
// flexserve -replay emit exactly this shape, so "the recovered ledger is
// bit-identical" is checkable with a byte diff. TotalBits carries the exact
// float bits; the float fields are the human-readable view.
type LedgerDump struct {
	Algorithm   string        `json:"algorithm"`
	Scenario    string        `json:"scenario"`
	Rounds      int           `json:"rounds"`
	Quarantined int           `json:"quarantined"`
	Cursor      int           `json:"cursor"`
	Placement   []int         `json:"placement"`
	TotalBits   [5]uint64     `json:"total_bits"`
	Totals      sim.Breakdown `json:"totals"`
	Total       float64       `json:"total"`
}

// DumpLedger snapshots an engine's ledger.
func DumpLedger(e *Engine) LedgerDump {
	totals := e.Totals()
	l := e.Stream().Ledger()
	return LedgerDump{
		Algorithm:   l.Algorithm,
		Scenario:    l.Scenario,
		Rounds:      e.Round(),
		Quarantined: e.Quarantined(),
		Cursor:      e.Cursor(),
		Placement:   e.Placement(),
		TotalBits:   totalsToBits(totals),
		Totals:      totals,
		Total:       totals.Total(),
	}
}

// LedgerSnapshot captures the rolling ledger for GET /ledger.
func (s *Server) LedgerSnapshot() LedgerDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DumpLedger(s.engine)
}

// Replay rebuilds the ledger offline: the WAL in dir is replayed through a
// fresh engine built from the same configuration (restoring the
// checkpoint first when truncation removed the log's prefix). This is the
// "uninterrupted baseline" the recovery guarantee is stated against — a
// restarted server's /ledger must byte-match Replay of its own WAL.
func Replay(cfg Config) (*Engine, error) {
	if cfg.NewStream == nil {
		return nil, fmt.Errorf("serve: Config.NewStream is required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: replay needs a state directory")
	}
	stream, err := cfg.NewStream()
	if err != nil {
		return nil, err
	}
	engine := NewEngine(stream, cfg.Window, cfg.KeepRounds)
	wal, base, entries, err := OpenLog(cfg.Dir, cfg.Fingerprint, cfg.SegmentEntries)
	if err != nil {
		return nil, err
	}
	wal.Close()
	if base > 0 {
		if _, err := recoverEngine(engine, cfg, base, entries); err != nil {
			return nil, err
		}
		return engine, nil
	}
	for _, e := range entries {
		engine.Apply(e)
	}
	return engine, nil
}
