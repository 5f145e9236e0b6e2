package runner

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// testWorkerCommand re-invokes this test binary as a pool worker (via the
// TestMain hook); env holds extra environment entries for the next spawn.
func testWorkerCommand(t testing.TB, extraEnv func() []string) func() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func() (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "RUNNER_TEST_WORKER=1")
		if extraEnv != nil {
			cmd.Env = append(cmd.Env, extraEnv()...)
		}
		cmd.Stderr = os.Stderr
		return cmd, nil
	}
}

// newPipePool is a subprocess pool with the production failure defaults.
func newPipePool(n int, command func() (*exec.Cmd, error)) *Pool {
	return NewPoolTransport(&PipeTransport{N: n, Command: command}, Config{})
}

// runOne evaluates one spec's whole grid on the pool.
func runOne(p *Pool, s *Spec) (*Grid, error) {
	grids, err := p.RunAllGrids([]*Spec{s}, nil)
	if err != nil {
		return nil, err
	}
	return grids[0], nil
}

func namedSpec(t testing.TB, name string) *Spec {
	s, err := buildTestSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoolPipelinesAcrossSpecs runs three grids through one shared pool and
// checks every table is bit-identical to its Local run and that grids are
// emitted in spec order — the cross-figure pipelining contract.
func TestPoolPipelinesAcrossSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	specs := []*Spec{
		namedSpec(t, "grid-3x2x2"),
		namedSpec(t, "grid-2x2x3"),
		namedSpec(t, "grid-4x1x2"),
	}
	pool := newPipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	var order []int
	grids := make([]*Grid, len(specs))
	if _, err := pool.RunAllGrids(specs, func(i int, g *Grid) error {
		order = append(order, i)
		grids[i] = g
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("grids emitted in order %v", order)
	}
	for i, s := range specs {
		got, err := Reduce(s, grids[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(s, Local{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %s pooled table differs from local run", s.Name)
		}
	}
	// The same pool must serve a second selection (the subprocesses are
	// still up and switch specs on demand).
	s := namedSpec(t, "grid-2x3x2")
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("second-selection table differs from local run")
	}
}

// TestPoolRequeuesDeadWorker is the worker-death regression test: the first
// worker subprocess exits after three responses, mid-grid; the coordinator
// must respawn the slot, requeue the in-flight cell, and finish with a grid
// bit-identical to the Local run instead of aborting.
func TestPoolRequeuesDeadWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-4x3x2")
	var spawned atomic.Int64
	pool := newPipePool(2, testWorkerCommand(t, func() []string {
		if spawned.Add(1) == 1 {
			return []string{"RUNNER_TEST_FAULT=exit:3"}
		}
		return nil
	}))
	defer pool.Close()
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
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
		t.Fatal("requeued table differs from local run")
	}
	if n := spawned.Load(); n < 2 {
		t.Fatalf("%d workers spawned; the dead worker was never replaced", n)
	}
}

// TestPoolFailsDeterministicCell pins the other side of the retry budget: a
// cell that fails on every attempt must fail the run after retries, naming
// the cell, instead of being requeued forever.
func TestPoolFailsDeterministicCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "failcell-3x1x1") // cell index 1 (xi=1) always errors
	pool := newPipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	_, err := runOne(pool, s)
	if err == nil {
		t.Fatal("deterministically failing cell did not fail the run")
	}
	for _, want := range []string{"failcell-3x1x1", "cell 1", "3 attempts", "kaput"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// The pool survives the failed run: a healthy spec still completes.
	g, err := runOne(pool, namedSpec(t, "grid-2x2x1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRetriesSpawnFailure treats a failed spawn like any other worker
// failure: it consumes one attempt and the cell is requeued, so a transient
// spawn error does not abort the grid.
func TestPoolRetriesSpawnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-2x2x1")
	healthy := testWorkerCommand(t, nil)
	var calls atomic.Int64
	pool := newPipePool(1, func() (*exec.Cmd, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient spawn failure")
		}
		return healthy()
	})
	defer pool.Close()
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRecordsTimings checks the worker-side wall-clock reaches the
// coordinator's grid and its partial, where shard planning picks it up.
func TestPoolRecordsTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "work-2x2x1-200000")
	pool := newPipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	g, err := runOne(pool, s)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for idx := 0; idx < s.Cells(); idx++ {
		total += g.Nanos(idx)
	}
	if total <= 0 {
		t.Fatal("no cell timings recorded by the pooled run")
	}
	p := g.Partial(1, true, 0, 0)
	if p.TotalNanos() != total {
		t.Fatalf("partial carries %d ns, grid recorded %d", p.TotalNanos(), total)
	}
}

// TestPoolRejectsUnserializableSpecName keeps spec names inside what the
// line protocol can carry.
func TestPoolRejectsUnserializableSpecName(t *testing.T) {
	s := testSpec(1, 1, 1)
	s.Name = "has space"
	pool := newPipePool(1, testWorkerCommand(t, nil))
	defer pool.Close()
	if _, err := runOne(pool, s); err == nil {
		t.Fatal("spec name with whitespace accepted")
	}
}

// TestPoolClosedRefusesRuns pins Close semantics.
func TestPoolClosedRefusesRuns(t *testing.T) {
	pool := newPipePool(1, testWorkerCommand(t, nil))
	pool.Close()
	pool.Close() // idempotent
	if _, err := runOne(pool, testSpec(1, 1, 1)); err == nil {
		t.Fatal("closed pool accepted a run")
	}
}

// TestCellSetMatchesShard pins the shard execution path: CellSet over an
// explicit cell list (here the modulo shard 2/3) must evaluate exactly
// those cells, with the Local run's values, and invalid lists are
// rejected.
func TestCellSetMatchesShard(t *testing.T) {
	s := testSpec(5, 2, 3)
	full, err := Local{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var idxs []int
	for idx := 1; idx < s.Cells(); idx += 3 {
		idxs = append(idxs, idx)
	}
	got, err := CellSet{Idxs: idxs}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < s.Cells(); idx++ {
		xi, vi, run := s.Coords(idx)
		var want []float64
		if idx%3 == 1 {
			want = full.Cell(xi, vi, run)
		}
		if !reflect.DeepEqual(got.Cell(xi, vi, run), want) {
			t.Fatalf("cell %d: CellSet has %v, want %v", idx, got.Cell(xi, vi, run), want)
		}
	}
	if _, err := (CellSet{Idxs: []int{-1}}).Run(s); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := (CellSet{Idxs: []int{s.Cells()}}).Run(s); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := (CellSet{Idxs: []int{1, 1}}).Run(s); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

// TestLocalRecordsTimings checks the in-process backends record per-cell
// wall-clock and that it survives the partial round trip (the input to
// timing-balanced shard planning).
func TestLocalRecordsTimings(t *testing.T) {
	s := namedSpec(t, "work-3x2x2-200000")
	g, err := Local{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Partial(1, false, 0, 0)
	if p.TotalNanos() <= 0 {
		t.Fatal("local run recorded no cell timings")
	}
	back, err := FromPartial(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < s.Cells(); idx++ {
		if back.Nanos(idx) != g.Nanos(idx) {
			t.Fatalf("cell %d timing %d mangled to %d in the partial round trip", idx, g.Nanos(idx), back.Nanos(idx))
		}
	}
	merged, err := trace.MergePartials(p)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalNanos() != p.TotalNanos() {
		t.Fatalf("merge dropped timings: %d != %d", merged.TotalNanos(), p.TotalNanos())
	}
}

// benchPoolSpecs is a three-figure selection with enough per-cell work that
// worker boot and figure-boundary idle time are visible against it.
func benchPoolSpecs(b *testing.B) []*Spec {
	return []*Spec{
		namedSpec(b, "work-4x3x2-400000"),
		namedSpec(b, "work-3x2x4-400000"),
		namedSpec(b, "work-4x2x3-400000"),
	}
}

// BenchmarkPoolPipelined is the shared-pool path cmd/figures uses for a
// multi-figure -procs selection: one pool, workers survive figure
// boundaries.
func BenchmarkPoolPipelined(b *testing.B) {
	specs := benchPoolSpecs(b)
	cmd := testWorkerCommand(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := newPipePool(2, cmd)
		if _, err := pool.RunAllGrids(specs, nil); err != nil {
			b.Fatal(err)
		}
		pool.Close()
	}
}

// BenchmarkPoolPerFigure is the pre-pool behaviour: every figure boots and
// drains its own worker pool, so subprocesses respawn at each boundary and
// workers idle while a figure's tail cells finish.
func BenchmarkPoolPerFigure(b *testing.B) {
	specs := benchPoolSpecs(b)
	cmd := testWorkerCommand(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			pool := newPipePool(2, cmd)
			if _, err := runOne(pool, s); err != nil {
				b.Fatal(err)
			}
			pool.Close()
		}
	}
}

// TestShardCellsMatchesShard pins the exported slicing helper to the
// modulo rule: the shards of a split cover every cell exactly once, so the
// in-process and pooled shard paths cover the same cells.
func TestShardCellsMatchesShard(t *testing.T) {
	for total := 1; total <= 4; total++ {
		covered := map[int]bool{}
		for idx := 1; idx <= total; idx++ {
			cells, err := ShardCells(30, idx, total)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if covered[c] {
					t.Fatalf("total=%d: cell %d covered twice", total, c)
				}
				covered[c] = true
				if c%total != idx-1 {
					t.Fatalf("total=%d shard %d: cell %d off the modulo slice", total, idx, c)
				}
			}
		}
		if len(covered) != 30 {
			t.Fatalf("total=%d: %d of 30 cells covered", total, len(covered))
		}
	}
	if _, err := ShardCells(10, 0, 2); err == nil {
		t.Fatal("shard index 0 accepted")
	}
	if _, err := ShardCells(10, 3, 2); err == nil {
		t.Fatal("shard index beyond total accepted")
	}
	// A shard past the grid's last cell is empty, not an error.
	if cells, err := ShardCells(4, 5, 8); err != nil || len(cells) != 0 {
		t.Fatalf("shard 5/8 of 4 cells: %v, %v; want no cells", cells, err)
	}
}

// TestPoolRunCellsMatchesCellSet runs one shard's cells through the worker
// pool and the other through the in-process CellSet backend, merges the
// two partials, and checks the reduced table is bit-identical to a Local
// run — the -shard/-procs composition contract.
func TestPoolRunCellsMatchesCellSet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := namedSpec(t, "grid-3x2x2")
	pool := newPipePool(2, testWorkerCommand(t, nil))
	defer pool.Close()
	idxs1, err := ShardCells(s.Cells(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	idxs2, err := ShardCells(s.Cells(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.RunCells(s, idxs1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := CellSet{Idxs: idxs2}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := trace.MergePartials(
		pooled.Partial(0, false, 1, 2), local.Partial(0, false, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPartial(s, merged)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("pooled shard + local shard differ from the Local run")
	}
	if _, err := pool.RunCells(s, []int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := pool.RunCells(s, []int{1, 1}); err == nil {
		t.Fatal("duplicate index accepted")
	}
}
