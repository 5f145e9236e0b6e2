package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figCell addresses one cell of a figure grid.
type figCell struct{ x, v, run int }

// figWorkload is a fixed set of paper-scale cells of one figure. The
// untraced passes run them through the figure's own experiments spec; the
// traced passes replay the same cells from the public layer functions so
// each call can be wrapped in a span, and must reproduce the spec's values
// bit for bit.
type figWorkload struct {
	name  string
	spec  string    // experiments registry name
	n     int       // substrate size
	cells []figCell // dispatch order: heaviest first, so the pass tail is short
	// build makes the cell's request sequence on the cell's substrate.
	build func(m graph.Metric, c figCell, cellSeed int64) (*workload.Sequence, error)
}

// The figures' paper-scale axes (internal/experiments figure7Spec and
// figureLambdaSpec); a drift from the specs fails the traced run's
// bit-for-bit check.
var (
	fig7Ts       = []int{4, 6, 8, 10, 12, 14, 16}
	fig10Lambdas = []int{1, 2, 5, 10, 20, 40, 80}
)

// contenders are the three strategies every online figure compares, in
// the specs' variant order.
var contenders = []func() sim.Algorithm{
	func() sim.Algorithm { return online.NewONBR() },
	func() sim.Algorithm { return online.NewONBRDynamic() },
	func() sim.Algorithm { return online.NewONTH() },
}

func cellsOf(xs, vs []int) []figCell {
	var out []figCell
	for _, x := range xs {
		for _, v := range vs {
			out = append(out, figCell{x: x, v: v})
		}
	}
	return out
}

var fig7Workload = &figWorkload{
	name: "fig7-commuter", spec: "7", n: 1000,
	cells: cellsOf([]int{6, 4, 2, 0}, []int{2, 1, 0}), // T = 16, 12, 8, 4
	build: func(m graph.Metric, c figCell, _ int64) (*workload.Sequence, error) {
		return workload.CommuterStatic(m, workload.CommuterConfig{T: fig7Ts[c.x], Lambda: 20}, 600)
	},
}

var fig10Workload = &figWorkload{
	name: "fig10-timezones", spec: "10", n: 200,
	cells: func() []figCell { // ONTH cells are the slow ones
		var out []figCell
		for _, v := range []int{2, 1, 0} {
			out = append(out, cellsOf([]int{6, 5, 4, 3, 2, 1, 0}, []int{v})...)
		}
		return out
	}(),
	build: func(m graph.Metric, c figCell, s int64) (*workload.Sequence, error) {
		return experiments.BuildNamedScenario("time-zones", m, 10, fig10Lambdas[c.x], 900, 0, rand.New(rand.NewSource(s+1)))
	},
}

// cellSeed mirrors the experiments' per-cell seed derivation.
func cellSeed(base int64, c figCell) int64 {
	return base + int64(c.x)*1_000_003 + int64(c.run)*7_919
}

// indexes maps the cell set onto the spec's flat indexes.
func (w *figWorkload) indexes(s *runner.Spec) ([]int, error) {
	idxs := make([]int, len(w.cells))
	for i, c := range w.cells {
		if c.x >= s.Xs || c.v >= s.Variants || c.run >= s.Runs {
			return nil, fmt.Errorf("%s: cell %+v outside spec %s grid %dx%dx%d", w.name, c, s.Name, s.Xs, s.Variants, s.Runs)
		}
		idxs[i] = s.Index(c.x, c.v, c.run)
	}
	return idxs, nil
}

// values gathers the cell set's results from a grid, in cell-set order.
func (w *figWorkload) values(g *runner.Grid) [][]float64 {
	out := make([][]float64, len(w.cells))
	for i, c := range w.cells {
		out[i] = g.Cell(c.x, c.v, c.run)
	}
	return out
}

// layerAcc gathers the decorator counters of the traced cells.
type layerAcc struct {
	mu        sync.Mutex
	observeNs []int64
	reconfigs int
}

func (a *layerAcc) add(t *timedAlg) {
	a.mu.Lock()
	a.observeNs = append(a.observeNs, t.observeNs...)
	a.reconfigs += t.reconfigs
	a.mu.Unlock()
}

// replay evaluates one cell through the public layer functions, one span
// per layer call: exactly what the spec's cell does (ER substrate, dense
// metric, default costs and pool, the figure's workload, sim.Run of one
// contender), so the total must equal the spec's value bit for bit.
func (w *figWorkload) replay(l *lane, clk clock, acc *layerAcc, seed int64, c figCell) (float64, error) {
	s := cellSeed(seed, c)
	l.begin("graph.gen")
	g, err := gen.ErdosRenyi(w.n, experiments.ErdosRenyiP, gen.DefaultOptions(), rand.New(rand.NewSource(s)))
	l.end()
	if err != nil {
		return 0, err
	}
	l.begin("graph.metric")
	m := g.Metric()
	l.end()
	l.begin("sim.env")
	env, err := sim.NewEnvMetric(g, m, cost.Linear{}, cost.AssignMinCost, cost.DefaultParams(), core.Params{QueueCap: 3, Expiry: 20}, nil)
	l.end()
	if err != nil {
		return 0, err
	}
	l.begin("workload.build")
	seq, err := w.build(env.Metric, c, s)
	l.end()
	if err != nil {
		return 0, err
	}
	alg, timed := decorate(contenders[c.v](), clk, l, false)
	defer acc.add(timed)
	l.begin("sim.stream")
	st, err := sim.NewStream(env, alg, seq.Name())
	l.end()
	if err != nil {
		return 0, err
	}
	for t := 0; t < seq.Len(); t++ {
		l.begin("sim.serve")
		_, err := st.Serve(seq.Demand(t))
		l.end()
		if err != nil {
			return 0, err
		}
	}
	return st.Ledger().Total(), nil
}

// replaySpec wraps the replay in a runner.Spec with the figure's grid, so
// traced cells go through the same runner path as untraced ones.
func (w *figWorkload) replaySpec(s *runner.Spec, tr *tracer, acc *layerAcc, seed int64) *runner.Spec {
	return &runner.Spec{
		Name: s.Name + "-replay",
		Xs:   s.Xs, Variants: s.Variants, Runs: s.Runs,
		Cell: func(xi, vi, run int) ([]float64, error) {
			l := tr.lane(int64(s.Index(xi, vi, run)))
			l.begin("runner.cell")
			v, err := w.replay(l, tr.clk, acc, seed, figCell{xi, vi, run})
			l.end()
			l.flush()
			if err != nil {
				return nil, err
			}
			return []float64{v}, nil
		},
		Reduce: func(*runner.Grid) (*trace.Table, error) { return nil, fmt.Errorf("replay spec is never reduced") },
	}
}

// setupReps is how many times set-up is repeated; its median is setup_s.
const setupReps = 21

// setupBatchNs is the shortest batch of spec builds timed as one sample.
const setupBatchNs = 2_000_000

// passWorkers is the runner pool size for the figure passes. The cells'
// own candidate scans and metric builds fan out over GOMAXPROCS; with two
// cells running side by side those fan-outs contend, and across seeds the
// pass wall time spread 12–27% (inter-quartile, five seeds) against ~8%
// with one cell at a time owning both processors.
const passWorkers = 1

// minPasses is the fewest untraced passes a run makes, whatever --seconds.
const minPasses = 3

func runFigure(w *figWorkload, o options, out *result) error {
	clk := newClock()
	workers := passWorkers
	opts := experiments.Options{Seed: o.seed}

	// Set-up: building the figure's spec, everything before the first cell.
	// One build takes well under a microsecond, so each sample is the mean
	// over a batch of at least setupBatchNs.
	setup := make([]float64, setupReps)
	var spec *runner.Spec
	for i := range setup {
		runtime.GC() // every batch starts from the same heap
		k, t0 := 0, clk.now()
		for k == 0 || clk.now()-t0 < setupBatchNs {
			s, err := experiments.NewSpec(w.spec, opts)
			if err != nil {
				return err
			}
			spec, k = s, k+1
		}
		setup[i] = float64(clk.now()-t0) / 1e9 / float64(k)
	}
	idxs, err := w.indexes(spec)
	if err != nil {
		return err
	}

	var tr *tracer
	acc := &layerAcc{}
	if o.trace {
		tr = newTracer(clk)
	}
	cpu0, start := readCPUTimes(), clk.now()
	var walls, twalls []float64
	var ref [][]float64
	var goTraced goStats
	budget := int64(o.seconds * 1e9)
	for {
		t0 := clk.now()
		g, err := runner.CellSet{Idxs: idxs, Workers: workers}.Run(spec)
		walls = append(walls, float64(clk.now()-t0)/1e9)
		out.attempted += len(idxs)
		if err != nil {
			out.fail("%s pass %d: %v", w.name, len(walls), err)
			break
		}
		vals := w.values(g)
		if ref == nil {
			ref = vals
		} else if d := firstDiff(ref, vals); d >= 0 {
			out.fail("%s: pass %d cell %+v differs from pass 1", w.name, len(walls), w.cells[d])
		}
		if tr != nil {
			gs0 := readGoStats()
			t0 := clk.now()
			g, err := runner.CellSet{Idxs: idxs, Workers: workers}.Run(w.replaySpec(spec, tr, acc, o.seed))
			twalls = append(twalls, float64(clk.now()-t0)/1e9)
			gs1 := readGoStats()
			goTraced.allocBytes += gs1.allocBytes - gs0.allocBytes
			goTraced.gcCPU += gs1.gcCPU - gs0.gcCPU
			goTraced.totalCPU += gs1.totalCPU - gs0.totalCPU
			out.attempted += len(idxs)
			if err != nil {
				out.fail("%s traced pass %d: %v", w.name, len(twalls), err)
				break
			}
			if d := firstDiff(ref, w.values(g)); d >= 0 {
				out.fail("%s: traced replay of cell %+v differs from the spec's value", w.name, w.cells[d])
			}
		}
		perPass := median(walls)
		if len(twalls) > 0 {
			perPass += median(twalls)
		}
		enough := len(walls) >= minPasses || tr != nil
		if enough && clk.now()-start+int64(perPass*1e9) > budget {
			break
		}
	}
	steal := stealFrac(cpu0, readCPUTimes())

	if ref != nil {
		checkFigureDigests(w, o.seed, ref, workers, out)
	}

	out.env.StealFrac = steal
	out.note("passes %d, cells per pass %d, workers %d, pass wall median %.4f s (n=%d)", len(walls), len(idxs), workers, median(walls), len(walls))
	if tr == nil {
		out.metric("wall_s", median(walls), "s")
		out.metric("setup_s", median(setup), "s")
		out.metric("peak_rss_mb", peakRSSMB(), "MB")
		return nil
	}

	passes := float64(len(twalls))
	self, count := layerTotals(tr.spans)
	cellS := 0.0
	for _, s := range tr.spans {
		if s.Name == "runner.cell" {
			cellS += float64(s.dur()) / 1e9
		}
	}
	obsP99, ok := percentile(nanosToUnit(acc.observeNs, 1e3), 0.99)
	out.note("online.observe_p99_us over %d calls (reportable: %v)", len(acc.observeNs), ok)
	out.metric("graph.metric_s", self["graph.metric"]/passes, "s")
	out.metric("graph.builds", float64(count["graph.metric"])/passes, "count")
	out.metric("workload.build_s", self["workload.build"]/passes, "s")
	out.metric("cost.access_s", self["sim.serve"]/passes, "s")
	out.metric("sim.rounds", float64(count["sim.serve"])/passes, "count")
	out.metric("online.observe_s", self["online.observe"]/passes, "s")
	out.metric("online.observe_calls", float64(count["online.observe"])/passes, "count")
	out.metric("online.reconfigs", float64(acc.reconfigs)/passes, "count")
	out.metric("online.observe_p99_us", obsP99, "us")
	out.metric("runner.cell_s", cellS/passes, "s")
	out.metric("runner.idle_frac", 1-cellS/(float64(workers)*sum(twalls)), "frac")
	out.metric("go.alloc_mb", goTraced.allocBytes/passes/(1<<20), "MB")
	out.metric("go.gc_cpu_frac", gcFrac(goStats{}, goTraced), "frac")
	out.metric("env.steal_frac", steal, "frac")
	out.metric("trace.overhead_frac", median(twalls)/median(walls)-1, "frac")
	reportShares(out, self)
	return writeTrace(out, w.name, o.seed, tr.spans)
}

// firstDiff returns the first cell whose values differ in any bit, or -1.
func firstDiff(a, b [][]float64) int {
	for i := range a {
		if cellDigest(a[i]) != cellDigest(b[i]) {
			return i
		}
	}
	return -1
}
