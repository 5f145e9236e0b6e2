package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/graph/gen"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

const serveWALName = "serve-wal"

// The serve-wal configuration: the flexserve defaults for an ER substrate
// of 200 nodes under ONTH, a 64-request demand window, a checkpoint every
// 16 rounds, and one unsegmented WAL.
const (
	serveN         = 200
	serveWindow    = 64
	serveCkptEvery = 16

	// refRate is the reference open-loop rate; refRequests is a whole
	// number of windows, so every request's round closes before the drain.
	refRate     = 10000.0
	refRequests = 782 * serveWindow

	// sojournLimitMs is the p99 sojourn a ladder rate must stay under.
	sojournLimitMs = 25.0
	// ladderStepS is how long each ladder rate is offered.
	ladderStepS = 1.5
	// minRecoveries is the fewest restarts an untraced run times.
	minRecoveries = 5
)

// ladderRates are the open-loop rates offered, in order, to find the
// highest one served within the sojourn limit. The first is the lowest rate
// whose window fill (64/rate) is under half the limit.
var ladderRates = []float64{6000, 10000, 14000, 18000, 22000, 26000, 30000, 34000, 38000, 42000, 46000}

// serveEnv builds the server's environment: the ER substrate of flexserve
// -topo er (topology stream = seed) with the default cost model.
func serveEnv(seed int64, l *lane) (*sim.Env, error) {
	l.begin("graph.gen")
	g, err := gen.ErdosRenyi(serveN, experiments.ErdosRenyiP, gen.DefaultOptions(), rand.New(rand.NewSource(seed)))
	l.end()
	if err != nil {
		return nil, err
	}
	l.begin("graph.metric")
	m := g.Metric()
	l.end()
	l.begin("sim.env")
	defer l.end()
	return sim.NewEnvMetric(g, m, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20}, nil)
}

// serveBench holds what one serve-wal run shares across its servers.
type serveBench struct {
	seed   int64
	clk    clock
	tr     *tracer
	main   *lane // the benchmark goroutine's spans; nil when untraced
	root   string
	bodies [][]byte // the generated arrivals as /ingest bodies
	dirs   int
}

// config builds a server configuration on dir whose algorithm records its
// rounds on algLane. The returned slot receives the decorator of the stream
// the server builds.
func (b *serveBench) config(dir string, algLane *lane) (serve.Config, **timedAlg) {
	slot := new(*timedAlg)
	return serve.Config{
		NewStream: func() (*sim.Stream, error) {
			env, err := serveEnv(b.seed, b.main)
			if err != nil {
				return nil, err
			}
			alg, timed := decorate(online.NewONTH(), b.clk, algLane, true)
			*slot = timed
			b.main.begin("sim.stream")
			defer b.main.end()
			return sim.NewStream(env, alg, "stream")
		},
		Fingerprint:     fmt.Sprintf("perfbench:serve-wal:er:n=%d:alg=onth:seed=%d:window=%d", serveN, b.seed, serveWindow),
		Window:          serveWindow,
		CheckpointEvery: serveCkptEvery,
		Dir:             dir,
	}, slot
}

// freshDir returns a new empty state directory.
func (b *serveBench) freshDir() string {
	b.dirs++
	return filepath.Join(b.root, fmt.Sprintf("state-%d", b.dirs))
}

// newServer times serve.New.
func (b *serveBench) newServer(cfg serve.Config) (*serve.Server, float64, error) {
	b.main.setKey(0)
	b.main.begin("serve.new")
	t0 := b.clk.now()
	srv, err := serve.New(cfg)
	d := float64(b.clk.now()-t0) / 1e9
	b.main.end()
	return srv, d, err
}

// loadRun is one open-loop pass: n requests offered at a fixed rate to a
// fresh server, then a drain.
type loadRun struct {
	dir          string
	n            int
	late, admit  []int64 // per request: send lateness and due→return, ns
	sojourn      []int64 // per request: due → return of its round's Observe
	unserved     int     // requests whose round never closed
	shed, errors int
	drainS       float64
	live         serve.LedgerDump
	snap         serve.Snapshot
	walBytes     int64
	timed        *timedAlg // the live server's algorithm decorator
}

// drive offers the first n generated arrivals at rate. The sender is
// open loop: request j is due at start + j/rate whatever happened before,
// and every latency is timed from the due time, so a stall shows in every
// request it delays. It waits out the last two milliseconds before a due
// time by spinning on the clock, not sleeping — a sleep oversleeps by far
// more than a request costs — and records how late each send still was.
func (b *serveBench) drive(rate float64, n int, traced bool) (*loadRun, error) {
	r := &loadRun{dir: b.freshDir(), n: n}
	var algLane *lane
	if traced {
		algLane = b.tr.lane(0)
	}
	cfg, slot := b.config(r.dir, algLane)
	srv, _, err := b.newServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	h := serve.Handler(srv)
	due := make([]int64, n)
	r.late = make([]int64, n)
	r.admit = make([]int64, n)
	period := 1e9 / rate
	start := b.clk.now() + int64(time.Millisecond)
	for j := 0; j < n; j++ {
		due[j] = start + int64(float64(j)*period)
		now := b.clk.now()
		for ; now < due[j]; now = b.clk.now() {
			if due[j]-now > int64(2*time.Millisecond) {
				time.Sleep(time.Duration(due[j]-now) - time.Millisecond)
			}
		}
		r.late[j] = now - due[j]
		req, err := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b.bodies[j%len(b.bodies)]))
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		if traced {
			b.main.setKey(int64(j))
			b.main.begin("serve.http")
		}
		h.ServeHTTP(rec, req)
		if traced {
			b.main.end()
		}
		r.admit[j] = b.clk.now() - due[j]
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			r.shed++
		default:
			r.errors++
		}
	}
	b.main.setKey(0)
	b.main.begin("serve.drain")
	t0 := b.clk.now()
	srv.Drain()
	r.drainS = float64(b.clk.now()-t0) / 1e9
	b.main.end()
	r.timed = *slot
	r.timed.finish()
	algLane.flush()
	r.live = srv.LedgerSnapshot()
	r.snap = srv.MetricsSnapshot()
	r.walBytes = walBytes(r.dir)

	// With no sheds and no ticks, windows close every serveWindow admitted
	// requests: request j is served by round j/serveWindow.
	ends := r.timed.observeEnd
	r.sojourn = make([]int64, 0, n)
	for j := 0; j < n; j++ {
		round := j / serveWindow
		if r.shed > 0 || round >= len(ends) {
			r.unserved++
			continue
		}
		r.sojourn = append(r.sojourn, ends[round]-due[j])
	}
	return r, nil
}

// ok reports whether the pass met the ladder's criteria: nothing shed or
// failed, p99 sojourn under the limit, and no growing backlog — the
// sender's median latency over the last tenth of the requests within a
// millisecond of the first tenth's (a caller that cannot keep up falls
// further behind with every request).
func (r *loadRun) ok() bool {
	p99, _ := percentile(nanosToUnit(r.sojourn, 1e6), 0.99)
	tenth := len(r.admit) / 10
	first := median(nanosToUnit(r.admit[:tenth], 1e6))
	last := median(nanosToUnit(r.admit[len(r.admit)-tenth:], 1e6))
	return r.shed == 0 && r.errors == 0 && r.unserved == 0 && p99 <= sojournLimitMs && last-first <= 1
}

func walBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal") {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// recoverOnce restarts a server on a drained state directory, times
// serve.New (WAL decode, replay, checkpoint validation), checks the
// recovered ledger against the live one, and drains it again so the next
// restart replays the same log.
func (b *serveBench) recoverOnce(r *loadRun, out *result) (float64, *timedAlg, error) {
	cfg, slot := b.config(r.dir, b.main)
	srv, d, err := b.newServer(cfg)
	if err != nil {
		return 0, nil, err
	}
	got := srv.LedgerSnapshot()
	srv.Drain()
	out.attempted++
	switch {
	case got.TotalBits != r.live.TotalBits:
		out.fail("recovered ledger total bits %v, live %v", got.TotalBits, r.live.TotalBits)
	case got.Cursor != r.live.Cursor || got.Rounds != r.live.Rounds:
		out.fail("recovered at cursor %d round %d, live at %d/%d", got.Cursor, got.Rounds, r.live.Cursor, r.live.Rounds)
	case got.Quarantined != 0:
		out.fail("recovery quarantined %d rounds", got.Quarantined)
	}
	return d, *slot, nil
}

// check counts a load pass's requests and rounds against the attempted
// operations: every shed, failed, unserved request and quarantined round
// is a failure at the reference rate.
func (r *loadRun) check(out *result) {
	rounds := r.n / serveWindow
	out.attempted += r.n + rounds
	if bad := r.shed + r.errors + r.unserved; bad > 0 {
		out.fail("reference pass: %d shed, %d errors, %d unserved of %d requests", r.shed, r.errors, r.unserved, r.n)
		out.failed += bad - 1
	}
	if q := int(r.snap.QuarantinedRound); q > 0 {
		out.fail("reference pass: %d quarantined rounds", q)
		out.failed += q - 1
	}
	if r.live.Rounds != rounds {
		out.fail("reference pass closed %d rounds, want %d", r.live.Rounds, rounds)
	}
	if r.snap.CheckpointsFail > 0 {
		out.fail("reference pass: %d failed checkpoints", r.snap.CheckpointsFail)
	}
}

func runServeWAL(o options, out *result) error {
	clk := newClock()
	root, err := workDir("work")
	if err != nil {
		return err
	}
	root, err = os.MkdirTemp(root, "serve-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	b := &serveBench{seed: o.seed, clk: clk, root: root}

	// Inputs: commuter-dynamic arrivals (flexserve's default scenario, λ=10,
	// 500 rounds, cycled) on the server's own substrate.
	env, err := serveEnv(o.seed, nil)
	if err != nil {
		return err
	}
	seq, err := workload.CommuterDynamic(env.Metric, workload.CommuterConfig{T: workload.TForSize(serveN), Lambda: 10}, 500)
	if err != nil {
		return err
	}
	stream, err := workload.NewStream(seq)
	if err != nil {
		return err
	}
	maxReqs := max(refRequests, int(ladderRates[len(ladderRates)-1]*ladderStepS))
	b.bodies = make([][]byte, maxReqs)
	for j := range b.bodies {
		b.bodies[j] = fmt.Appendf(nil, `{"node":%d,"count":1,"slo_class":"standard"}`, stream.Next())
	}

	// Set-up: serve.New on an empty state directory, repeated.
	setup := make([]float64, setupReps)
	for i := range setup {
		cfg, _ := b.config(b.freshDir(), nil)
		srv, d, err := b.newServer(cfg)
		if err != nil {
			return err
		}
		srv.Drain()
		setup[i] = d
	}

	cpu0, start := readCPUTimes(), clk.now()
	ref, err := b.drive(refRate, refRequests, false)
	if err != nil {
		return err
	}
	ref.check(out)
	admitP50, _ := percentile(nanosToUnit(ref.admit, 1e3), 0.50)
	admitP99, _ := percentile(nanosToUnit(ref.admit, 1e3), 0.99)
	sojP50, _ := percentile(nanosToUnit(ref.sojourn, 1e6), 0.50)
	sojP99, _ := percentile(nanosToUnit(ref.sojourn, 1e6), 0.99)
	lateP50, _ := percentile(nanosToUnit(ref.late, 1e3), 0.50)
	lateP99, _ := percentile(nanosToUnit(ref.late, 1e3), 0.99)
	out.note("reference %.0f req/s: admit p50 %.1f us p99 %.1f us (n=%d); sojourn p50 %.3f ms p99 %.3f ms (n=%d); sender late p50 %.1f us p99 %.1f us; %d rounds, drain %.4f s",
		refRate, admitP50, admitP99, len(ref.admit), sojP50, sojP99, len(ref.sojourn), lateP50, lateP99, ref.live.Rounds, ref.drainS)

	var recovers []float64
	budget := int64(o.seconds * 1e9)
	nRecover := minRecoveries
	if o.trace {
		nRecover = 3
	}
	for len(recovers) < nRecover || !o.trace && clk.now()-start+int64(median(recovers)*1e9) <= budget {
		d, _, err := b.recoverOnce(ref, out)
		if err != nil {
			return err
		}
		recovers = append(recovers, d)
	}
	out.env.StealFrac = stealFrac(cpu0, readCPUTimes())
	out.note("restarts %d, restart-to-ready median %.4f s, %d WAL entries (%d bytes)", len(recovers), median(recovers), ref.live.Cursor, ref.walBytes)
	if !o.trace {
		out.metric("wall_s", median(recovers), "s")
		out.metric("setup_s", median(setup), "s")
		out.metric("peak_rss_mb", peakRSSMB(), "MB")
		return nil
	}

	// Ladder (untraced): the highest rate served within the limit.
	maxRPS := 0.0
	for _, rate := range ladderRates {
		n := int(rate*ladderStepS) / serveWindow * serveWindow
		step, err := b.drive(rate, n, false)
		if err != nil {
			return err
		}
		p99, _ := percentile(nanosToUnit(step.sojourn, 1e6), 0.99)
		late, _ := percentile(nanosToUnit(step.late, 1e3), 0.99)
		out.note("ladder %.0f req/s: %d requests, %d shed, %d errors, sojourn p99 %.3f ms, sender late p99 %.1f us, ok %v",
			rate, n, step.shed, step.errors, p99, late, step.ok())
		if !step.ok() {
			break
		}
		maxRPS = rate
	}

	// Traced cycle: one reference pass and one restart, every layer call
	// in a span.
	b.tr = newTracer(clk)
	b.main = b.tr.lane(0)
	gs0 := readGoStats()
	tref, err := b.drive(refRate, refRequests, true)
	if err != nil {
		return err
	}
	tref.check(out)
	trec, timedRec, err := b.recoverOnce(tref, out)
	if err != nil {
		return err
	}
	gs1 := readGoStats()
	steal := stealFrac(cpu0, readCPUTimes())
	b.main.flush()
	spans := b.tr.spans
	self, count := layerTotals(spans)
	observeNs := append(append([]int64(nil), tref.timed.observeNs...), timedRec.observeNs...)
	obsP99, ok := percentile(nanosToUnit(observeNs, 1e3), 0.99)
	out.note("online.observe_p99_us over %d calls (reportable: %v)", len(observeNs), ok)

	out.metric("graph.metric_s", self["graph.metric"], "s")
	out.metric("graph.builds", float64(count["graph.metric"]), "count")
	out.metric("cost.access_s", self["sim.serve"], "s")
	out.metric("sim.rounds", float64(count["sim.serve"]), "count")
	out.metric("online.observe_s", self["online.observe"], "s")
	out.metric("online.observe_calls", float64(count["online.observe"]), "count")
	out.metric("online.reconfigs", float64(tref.timed.reconfigs+timedRec.reconfigs), "count")
	out.metric("online.observe_p99_us", obsP99, "us")
	out.metric("serve.attempted", float64(ref.n), "count")
	out.metric("serve.shed", float64(ref.shed), "count")
	out.metric("serve.errors", float64(ref.errors), "count")
	out.metric("serve.quarantined", float64(ref.snap.QuarantinedRound), "count")
	out.metric("serve.checkpoints", float64(ref.snap.CheckpointsOK), "count")
	out.metric("serve.drain_s", ref.drainS, "s")
	out.metric("serve.wal_bytes", float64(ref.walBytes), "bytes")
	out.metric("serve.replay_entries_per_s", float64(ref.live.Cursor)/median(recovers), "1/s")
	out.metric("serve.gen_late_p99_us", lateP99, "us")
	out.metric("serve.admit_p50_us", admitP50, "us")
	out.metric("serve.admit_p99_us", admitP99, "us")
	out.metric("serve.sojourn_p50_ms", sojP50, "ms")
	out.metric("serve.sojourn_p99_ms", sojP99, "ms")
	out.metric("serve.max_rps", maxRPS, "req/s")
	out.metric("serve.recover_s", median(recovers), "s")
	out.metric("go.alloc_mb", (gs1.allocBytes-gs0.allocBytes)/(1<<20), "MB")
	out.metric("go.gc_cpu_frac", gcFrac(gs0, gs1), "frac")
	out.metric("env.steal_frac", steal, "frac")
	out.metric("trace.overhead_frac", trec/median(recovers)-1, "frac")
	out.env.StealFrac = steal
	reportShares(out, self)
	return writeTrace(out, serveWALName, o.seed, spans)
}
