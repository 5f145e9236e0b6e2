package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// maxProcs caps GOMAXPROCS: the benchmark's figures are comparable across
// runs only at a fixed parallelism, and two is what the reference machine
// has.
const maxProcs = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Every check that fails, and every
// operation that fails (a cell error, a shed or failed request, a
// quarantined round), counts against the operations attempted.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	env       environment
	notes     []string
}

func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...interface{}) {
	r.correct = false
	r.failed++
	r.notes = append(r.notes, "FAIL "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer are the metrics every run reports, untraced and
// traced respectively (BENCHMARK.json lists the same).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.metric_s", "s"},
	{"graph.builds", "count"},
	{"workload.build_s", "s"},
	{"cost.access_s", "s"},
	{"sim.rounds", "count"},
	{"online.observe_s", "s"},
	{"online.observe_calls", "count"},
	{"online.reconfigs", "count"},
	{"online.observe_p99_us", "us"},
	{"runner.cell_s", "s"},
	{"runner.idle_frac", "frac"},
	{"serve.attempted", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.quarantined", "count"},
	{"serve.checkpoints", "count"},
	{"serve.drain_s", "s"},
	{"serve.wal_bytes", "bytes"},
	{"serve.replay_entries_per_s", "1/s"},
	{"serve.gen_late_p99_us", "us"},
	{"serve.admit_p50_us", "us"},
	{"serve.admit_p99_us", "us"},
	{"serve.sojourn_p50_ms", "ms"},
	{"serve.sojourn_p99_ms", "ms"},
	{"serve.max_rps", "req/s"},
	{"serve.recover_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_frac", "frac"},
	{"env.steal_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

type metricDef struct{ name, unit string }

// complete checks the run reported exactly the listed metrics in their
// units, filling the layers a workload never calls with zero.
func (r *result) complete(defs []metricDef, zeroOK bool) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		m, ok := r.metrics[d.name]
		switch {
		case !ok && zeroOK:
			r.metric(d.name, 0, d.unit)
			r.note("%s: layer not exercised by this workload", d.name)
		case !ok:
			return fmt.Errorf("metric %s not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for n := range r.metrics {
		if !known[n] {
			return fmt.Errorf("metric %s is not in the benchmark's list", n)
		}
	}
	return nil
}

var workloads = map[string]func(options, *result) error{
	fig7Workload.name:  func(o options, r *result) error { return runFigure(fig7Workload, o, r) },
	fig10Workload.name: func(o options, r *result) error { return runFigure(fig10Workload, o, r) },
	serveWALName:       runServeWAL,
}

func main() {
	var o options
	var traceFlag int
	digests := flag.Bool("print-digests", false, "print digests.json for the digest seeds and exit")
	flag.StringVar(&o.workload, "workload", "", "workload: fig7-commuter, fig10-timezones, serve-wal")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measuring time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if *digests {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <fig7-commuter|fig10-timezones|serve-wal> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	r := &result{correct: true, metrics: map[string]metric{}, env: readEnvironment()}
	err := run(o, r)
	if err == nil && o.trace {
		err = r.complete(perLayer, true)
	} else if err == nil {
		err = r.complete(endToEnd, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	env, _ := json.Marshal(r.env)
	fmt.Printf("# env %s\n", env)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workDir returns (creating it) a scratch directory under the checkout's
// build directory; the benchmark never writes outside the checkout.
func workDir(elem ...string) (string, error) {
	dir := filepath.Join(append([]string{".bench_build"}, elem...)...)
	return dir, os.MkdirAll(dir, 0o755)
}

// writeTrace writes the run's spans to .bench_build/trace/.
func writeTrace(out *result, name string, seed int64, spans []span) error {
	dir, err := workDir("trace")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans", name, seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	out.note("spans: %d written to %s", len(spans), path)
	return nil
}

// reportShares notes each span name's share of the total self time, largest
// first, so a traced run shows which layer owns the workload's time.
func reportShares(out *result, self map[string]float64) {
	names := make([]string, 0, len(self))
	total := 0.0
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total += self[n]
	}
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		out.note("self %-16s %9.4f s %5.1f%%", n, self[n], 100*self[n]/total)
	}
}
