// Command perfbench is the repository's wall-clock benchmark. One run
// measures one workload in one process, checks every output it produces,
// and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the benchmark from source into .bench_build/ and runs it
// from the repository root. GOMAXPROCS is capped at two. The benchmark
// times the layers from outside, through their public functions, and
// changes no program code. The program sees only inputs generated from
// --seed.
//
// # Workloads
//
// fig7-commuter: paper-scale Figure 7 cells (ER n=1000, commuter static,
// λ=20, 600 rounds) for T ∈ {4, 8, 12, 16} and the three online
// strategies, run 0. That is 12 cells through the figure's experiments
// spec on runner.CellSet, one cell at a time: each cell's own fan-outs
// (metric rows, candidate scans) use both processors, and two cells side by
// side made the pass time depend on how their fan-outs collided. Every cell
// builds its own dense all-pairs metric, and the metric is the largest
// single cost. A faster Dijkstra shows here.
//
// fig10-timezones: paper-scale Figure 10 cells (ER n=200, time zones
// p=50%, T=10, 900 rounds) for all seven paper λ values and the three
// strategies, run 0: 21 cells on the same runner path. ONTH's Observe (the
// scorer and its candidate scan) owns almost all the time. The metric is
// small here (n=200). A faster scorer shows here; a faster Dijkstra
// should not.
//
// serve-wal: an in-process flexserve. ER n=200, ONTH, window 64, a
// checkpoint every 16 rounds, one unsegmented WAL in a state directory
// under .bench_build/. A single goroutine offers commuter-dynamic arrivals
// (workload.Stream) open loop through serve.Handler(srv).ServeHTTP, with no
// sockets, then drains and restarts the server on the same directory. This
// is the only workload that runs admission, the WAL and recovery. The
// figures never touch those layers.
//
// internal/offline has no workload: OPT and OFFSTAT take a few seconds of
// a full paper-scale figures run, outside Figures 3–7 and 10.
//
// # End-to-end metrics (untraced runs)
//
// Every workload reports every end-to-end metric, so the end-to-end
// metrics are the ones all three workloads share:
//
//	wall_s       figures: median wall time of one pass over the fixed cell
//	             set. serve-wal: median restart-to-ready time, i.e.
//	             serve.New on the drained state directory (WAL decode,
//	             replay, checkpoint validation), repeated within the run.
//	setup_s      figures: building the figure's spec (median of batched
//	             builds). serve-wal: serve.New on an empty directory
//	             (median of 21).
//	peak_rss_mb  the process's peak resident set.
//
// An untraced serve-wal run also drives one reference pass: 782 windows of
// requests at 10k req/s. It prints the admission and sojourn percentiles
// of that pass with their sample counts. Every request is timed from its
// due time. Sojourn runs to the return of the Observe that served the
// request's round; with no sheds and no ticks, request j falls in round
// j/64. The reference pass and the recoveries are checked: nothing shed,
// failed or quarantined; every round closed; the recovered ledger's
// TotalBits, cursor and round equal the live ledger's. Figure passes are
// checked too: every pass must give the same bits, and cells on seeds 1
// and 7 (the repository's byte-identity seeds) must match digests.json. A
// run on another seed evaluates one digest-seed cell after its passes.
//
// # Per-layer metrics (traced runs) and what each should move
//
// A traced run records spans in memory from the benchmark's own code and
// writes them to .bench_build/trace/. A span records the name, start, end,
// parent and the cell or request id. Spans wrap graph generation, the
// metric and sim.NewEnvMetric, the workload builders, sim.NewStream,
// Stream.Serve, a runner.Spec.Cell wrapper, ServeHTTP, Drain and
// serve.New. A decorator (decor.go) times Reset, Prepare and Observe, and
// it keeps sim.StateSnapshotter and sim.AccessReuser visible. A layer's
// time is its spans' self time. Figure runs alternate untraced passes with
// traced ones. The traced passes replay the cells from the public layer
// functions, and every replayed value must equal the spec's value bit for
// bit. Figure metrics are per traced pass. serve-wal metrics cover one
// traced reference pass and one restart. The serving-front numbers
// (admit, sojourn, max_rps, recover, drain, sender lateness) come from the
// run's untraced section.
//
//	graph.metric_s, graph.builds   wall_s on fig7-commuter; no change on
//	                               fig10-timezones; setup_s and a few % of
//	                               wall_s (restart) on serve-wal
//	workload.build_s               nothing (≈1–2% of a cell): a control
//	cost.access_s, sim.rounds      wall_s on fig10-timezones, restart on
//	                               serve-wal. access_s is Stream.Serve self
//	                               time: Serve minus Prepare and Observe (on
//	                               serve-wal, the span from Prepare to the
//	                               end of Observe, inside the engine).
//	online.observe_s, _calls,      wall_s on fig10-timezones, restart on
//	online.reconfigs,              serve-wal; serve sojourn only near
//	online.observe_p99_us          saturation
//	runner.cell_s,                 wall_s on both figure workloads;
//	runner.idle_frac               with one pass worker, idle_frac is the
//	                               runner's own overhead between cells
//	serve.*                        the serving front: attempted, shed,
//	                               errors, quarantined and checkpoints
//	                               from Server.MetricsSnapshot; drain_s,
//	                               wal_bytes, replay_entries_per_s,
//	                               gen_late_p99_us (sender lateness),
//	                               admit_p50/p99_us, sojourn_p50/p99_ms,
//	                               max_rps, recover_s. Admission runs on
//	                               the caller's goroutine, so it moves
//	                               admit and max_rps. No change is
//	                               predicted on the figures.
//	go.alloc_mb, go.gc_cpu_frac    runtime/metrics over the traced section
//	env.steal_frac                 hypervisor steal from /proc/stat
//	trace.overhead_frac            traced vs untraced wall (figures) or
//	                               restart (serve-wal)
//
// serve.max_rps is the highest rate on a fixed ladder (6k to 46k req/s in
// steps of 4k, 1.5 s each, a fresh server per rate, stopping at the first
// miss) that meets three conditions: zero sheds and errors, a p99 sojourn
// under 25 ms, and no growing backlog (the sender's median latency over the
// last tenth of the requests within 1 ms of the first tenth's). The ladder
// starts at the first rate whose window fill (64/rate) is under half the
// limit.
//
// Layers a workload never calls report zero. Every result records the
// CPU model, nproc, GOMAXPROCS, Go version, commit and steal share.
package main
