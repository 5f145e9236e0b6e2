package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workerfault"
)

// testSpec is a deterministic spec whose cell values encode their own
// coordinates, so any scheduling or transport bug shows up as a wrong value.
// It must be reconstructible from scratch (the procs round-trip rebuilds it
// in a child process).
func testSpec(xs, variants, runs int) *Spec {
	s := &Spec{
		Name: "runner-test",
		Xs:   xs, Variants: variants, Runs: runs,
		Cell: func(xi, vi, run int) ([]float64, error) {
			return []float64{float64(xi*10000 + vi*100 + run), float64(run)}, nil
		},
	}
	s.Reduce = func(g *Grid) (*trace.Table, error) {
		tab := &trace.Table{Title: "runner test", XLabel: "x", YLabel: "y"}
		for xi := 0; xi < xs; xi++ {
			tab.X = append(tab.X, float64(xi))
		}
		for vi := 0; vi < variants; vi++ {
			vals := make([]float64, xs)
			for xi := 0; xi < xs; xi++ {
				vals[xi] = stats.Mean(g.Runs(xi, vi))
			}
			tab.Series = append(tab.Series, trace.Series{Label: fmt.Sprintf("v%d", vi), Values: vals})
		}
		return tab, tab.Validate()
	}
	return s
}

// buildTestSpec resolves the spec names the test worker can serve:
//
//	runner-test          the shared test spec, dims from RUNNER_TEST_WORKER
//	grid-XxVxR           a coordinate-encoding grid of the given dimensions
//	failcell-XxVxR       like grid-, but every cell with xi == 1 errors
//	work-XxVxR-K         like grid-, plus K iterations of float work per cell
func buildTestSpec(name string) (*Spec, error) {
	if name == "runner-test" {
		var xs, variants, runs int
		if _, err := fmt.Sscanf(os.Getenv("RUNNER_TEST_WORKER"), "%d,%d,%d", &xs, &variants, &runs); err != nil {
			return nil, fmt.Errorf("runner-test dims: %w", err)
		}
		return testSpec(xs, variants, runs), nil
	}
	var xs, variants, runs, work int
	if _, err := fmt.Sscanf(name, "grid-%dx%dx%d", &xs, &variants, &runs); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		return s, nil
	}
	if _, err := fmt.Sscanf(name, "failcell-%dx%dx%d", &xs, &variants, &runs); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		inner := s.Cell
		s.Cell = func(xi, vi, run int) ([]float64, error) {
			if xi == 1 {
				return nil, fmt.Errorf("kaput x=%d v=%d run=%d", xi, vi, run)
			}
			return inner(xi, vi, run)
		}
		return s, nil
	}
	if _, err := fmt.Sscanf(name, "work-%dx%dx%d-%d", &xs, &variants, &runs, &work); err == nil {
		s := testSpec(xs, variants, runs)
		s.Name = name
		inner := s.Cell
		s.Cell = func(xi, vi, run int) ([]float64, error) {
			x := 1.0
			for k := 0; k < work; k++ {
				x = x*1.0000001 + float64(k%7)
			}
			_ = x
			return inner(xi, vi, run)
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown test spec %q", name)
}

func TestMain(m *testing.M) {
	// Re-executed as a pool worker: speak the worker protocol on
	// stdin/stdout (SPEC lines select the grid), then exit.
	// RUNNER_TEST_FAULT (workerfault syntax, kind:N[:delay]) installs one
	// failure mode on the worker's streams.
	if os.Getenv("RUNNER_TEST_WORKER") != "" {
		fault, err := workerfault.Parse(os.Getenv("RUNNER_TEST_FAULT"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		in, out := fault.Wrap(os.Stdin, os.Stdout)
		if err := ServePool(buildTestSpec, in, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	s := testSpec(3, 4, 5)
	seen := make(map[int]bool)
	for xi := 0; xi < s.Xs; xi++ {
		for vi := 0; vi < s.Variants; vi++ {
			for run := 0; run < s.Runs; run++ {
				idx := s.Index(xi, vi, run)
				if idx < 0 || idx >= s.Cells() || seen[idx] {
					t.Fatalf("index (%d,%d,%d) -> %d invalid or duplicate", xi, vi, run, idx)
				}
				seen[idx] = true
				gx, gv, gr := s.Coords(idx)
				if gx != xi || gv != vi || gr != run {
					t.Fatalf("coords(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, gx, gv, gr, xi, vi, run)
				}
			}
		}
	}
	if len(seen) != s.Cells() {
		t.Fatalf("%d distinct indices, want %d", len(seen), s.Cells())
	}
}

func TestLocalMatchesInline(t *testing.T) {
	s := testSpec(4, 3, 6)
	want, err := Run(s, Local{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 64} {
		got, err := Run(s, Local{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d table differs from inline run", workers)
		}
	}
}

// TestLocalBoundsGoroutines is the regression test for the unbounded
// goroutine spawn of the old parallelRuns helper, which started one
// goroutine per run before acquiring the semaphore. The Local backend must
// start at most Workers worker goroutines no matter how many cells queue.
func TestLocalBoundsGoroutines(t *testing.T) {
	const workers = 4
	const cells = 512
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	s := &Spec{
		Name: "goroutine-bound",
		Xs:   cells, Variants: 1, Runs: 1,
		Cell: func(xi, vi, run int) ([]float64, error) {
			// Linger briefly so queued cells would pile up goroutines if
			// each had one.
			time.Sleep(100 * time.Microsecond)
			n := int64(runtime.NumGoroutine())
			for {
				cur := peak.Load()
				if n <= cur || peak.CompareAndSwap(cur, n) {
					break
				}
			}
			return []float64{1}, nil
		},
		Reduce: func(g *Grid) (*trace.Table, error) {
			return &trace.Table{X: []float64{0}, Series: []trace.Series{{Label: "n", Values: []float64{1}}}}, nil
		},
	}
	if _, err := Run(s, Local{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	// Allow slack for the test harness's own goroutines, but nothing close
	// to one-per-cell: the old implementation peaked at base + cells.
	if got := int(peak.Load()); got > base+workers+8 {
		t.Fatalf("peak %d goroutines for %d cells with %d workers (base %d): pool is not bounded",
			got, cells, workers, base)
	}
}

func TestLocalPropagatesCellError(t *testing.T) {
	s := testSpec(4, 1, 4)
	s.Cell = func(xi, vi, run int) ([]float64, error) {
		if xi >= 2 {
			return nil, fmt.Errorf("boom x=%d run=%d", xi, run)
		}
		return []float64{1, 1}, nil
	}
	_, err := Run(s, Local{Workers: 8})
	if err == nil {
		t.Fatal("error not propagated")
	}
	if !contains(err.Error(), "boom x=") {
		t.Fatalf("error %q does not surface the failing cell", err)
	}
	// Single-worker execution is sequential, so the report is exact and
	// cells after the failure are skipped.
	if _, err := Run(s, Local{Workers: 1}); err == nil || !contains(err.Error(), "boom x=2 run=0") {
		t.Fatalf("sequential error %q does not name the first failing cell", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestShardPartialMergeMatchesLocal(t *testing.T) {
	s := testSpec(5, 2, 3)
	want, err := Run(s, Local{})
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{2, 3, 7} {
		var parts []*trace.Partial
		covered := 0
		for i := 1; i <= total; i++ {
			idxs, err := ShardCells(s.Cells(), i, total)
			if err != nil {
				t.Fatal(err)
			}
			g, err := CellSet{Idxs: idxs}.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Complete(); err == nil && total > 1 {
				t.Fatalf("shard %d/%d produced a complete grid", i, total)
			}
			p := g.Partial(7, true, i, total)
			covered += len(p.Results)
			parts = append(parts, p)
		}
		if covered != s.Cells() {
			t.Fatalf("shards 1..%d covered %d cells, want %d", total, covered, s.Cells())
		}
		merged, err := trace.MergePartials(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Complete() {
			t.Fatalf("merged partial incomplete: %d of %d", len(merged.Results), merged.Cells)
		}
		g, err := FromPartial(s, merged)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reduce(s, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-way shard+merge table differs from local run", total)
		}
	}
}

func TestShardRejectsBadSplit(t *testing.T) {
	for _, sh := range [][2]int{{0, 2}, {3, 2}, {1, 0}, {-1, 2}} {
		if _, err := ShardCells(8, sh[0], sh[1]); err == nil {
			t.Fatalf("shard %d/%d accepted", sh[0], sh[1])
		}
	}
}

// serveSpec is a ServePool build function serving only s.
func serveSpec(s *Spec) func(name string) (*Spec, error) {
	return func(name string) (*Spec, error) {
		if name != s.Name {
			return nil, fmt.Errorf("worker for %s asked to serve %s", s.Name, name)
		}
		return s, nil
	}
}

func TestServeWorkerProtocol(t *testing.T) {
	s := testSpec(2, 2, 2)
	clientIn, workerOut := io.Pipe()
	workerIn, clientOut := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := ServePool(serveSpec(s), workerIn, workerOut)
		workerOut.Close()
		done <- err
	}()

	// Drive two cells by hand and check the responses line up.
	go func() {
		fmt.Fprintln(clientOut, "SPEC", s.Name)
		fmt.Fprintln(clientOut, 3)
		fmt.Fprintln(clientOut, 0)
		clientOut.Close()
	}()
	buf := make([]byte, 4096)
	var out []byte
	for {
		n, err := clientIn.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// One JSON line per cell, answering the asked index with the
	// coordinate-encoding values; the ns timing field may or may not appear.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	want := []struct {
		idx    int
		values []float64
	}{{3, []float64{101, 1}}, {0, []float64{0, 0}}}
	if len(lines) != len(want) {
		t.Fatalf("worker wrote %d lines, want %d: %q", len(lines), len(want), out)
	}
	for i, line := range lines {
		var msg struct {
			Idx    int       `json:"i"`
			Values []float64 `json:"v"`
			Nanos  int64     `json:"ns"`
			Err    string    `json:"err"`
		}
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if msg.Err != "" || msg.Idx != want[i].idx || !reflect.DeepEqual(msg.Values, want[i].values) {
			t.Fatalf("line %d = %+v, want idx %d values %v", i, msg, want[i].idx, want[i].values)
		}
		if msg.Nanos < 0 {
			t.Fatalf("line %d negative timing %d", i, msg.Nanos)
		}
	}
}

func TestServeWorkerReportsCellErrors(t *testing.T) {
	s := testSpec(1, 1, 1)
	s.Cell = func(xi, vi, run int) ([]float64, error) { return nil, fmt.Errorf("kaput") }
	in, out := io.Pipe()
	var buf safeBuffer
	done := make(chan error, 1)
	go func() { done <- ServePool(serveSpec(s), in, &buf) }()
	fmt.Fprintln(out, "SPEC", s.Name)
	fmt.Fprintln(out, 0)
	out.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"i\":0,\"err\":\"kaput\"}\n" {
		t.Fatalf("worker wrote %q", got)
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// TestServeWorkerRequiresSpec: the coordinator always announces a spec
// before its first cell, so a bare assignment is a protocol error.
func TestServeWorkerRequiresSpec(t *testing.T) {
	s := testSpec(1, 1, 1)
	err := ServePool(serveSpec(s), strings.NewReader("0\n"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "before any SPEC line") {
		t.Fatalf("assignment before SPEC: got %v", err)
	}
}

// TestProcsRoundTrip spawns this test binary as real worker subprocesses
// (via the TestMain hook) — the -procs backend — and checks the
// multi-process table is identical to the in-process one.
func TestProcsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := testSpec(4, 3, 2)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool := newPipePool(2, func() (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"RUNNER_TEST_WORKER="+fmt.Sprintf("%d,%d,%d", s.Xs, s.Variants, s.Runs))
		cmd.Stderr = os.Stderr
		return cmd, nil
	})
	defer pool.Close()
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
		t.Fatal("procs table differs from local run")
	}
}

func TestProcsSurfacesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	s := testSpec(2, 1, 2)
	// A worker that exits immediately without speaking the protocol; the
	// fast test backoff keeps the respawn attempts from sleeping seconds.
	pool := NewPoolTransport(&PipeTransport{N: 1, Command: func() (*exec.Cmd, error) {
		return exec.Command("/bin/sh", "-c", "exit 0"), nil
	}}, fastCfg())
	defer pool.Close()
	if _, err := runOne(pool, s); err == nil {
		t.Fatal("dead worker not reported")
	}
}

func TestRunValidatesSpec(t *testing.T) {
	bad := []*Spec{
		nil,
		{Name: "", Xs: 1, Variants: 1, Runs: 1},
		{Name: "x", Xs: 0, Variants: 1, Runs: 1},
		{Name: "x", Xs: 1, Variants: 1, Runs: 1}, // no cell/reduce
	}
	for i, s := range bad {
		if _, err := Run(s, Local{}); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestFromPartialRejectsForeign(t *testing.T) {
	s := testSpec(2, 1, 1)
	if _, err := FromPartial(s, &trace.Partial{Figure: "other", Cells: 2}); err == nil {
		t.Fatal("foreign figure accepted")
	}
	if _, err := FromPartial(s, &trace.Partial{Figure: s.Name, Cells: 99}); err == nil {
		t.Fatal("wrong grid size accepted")
	}
	if _, err := FromPartial(s, &trace.Partial{
		Figure: s.Name, Cells: s.Cells(),
		Results: []trace.CellResult{{Idx: 5, Values: []float64{1}}},
	}); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if err := strconvSanity(); err != nil {
		t.Fatal(err)
	}
}

// strconvSanity pins the float64 JSON round-trip assumption the shard format
// relies on: shortest-form encoding parses back bit-identically.
func strconvSanity() error {
	for _, v := range []float64{1.0 / 3.0, 0.1, 12345.678901234567, 2.2250738585072014e-308} {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if back != v {
			return fmt.Errorf("%v round-tripped to %v", v, back)
		}
	}
	return nil
}
