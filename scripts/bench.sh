#!/usr/bin/env bash
# Runs the hot-path micro-benchmarks and emits a JSON perf snapshot
# (default bench-snapshot.json, which git ignores). Given a baseline
# snapshot — for example a committed BENCH_<n>.json, kept as history — a
# delta table old/new is printed per benchmark. Usage:
#
#   scripts/bench.sh [output.json [baseline.json]]
#   scripts/bench.sh bench-snapshot.json BENCH_10.json
#   COUNT=10 scripts/bench.sh        # more samples per benchmark
#
# For statistically rigorous before/after comparisons prefer benchstat
# over raw snapshots (see PERFORMANCE.md).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-6}"
OUT="${1:-bench-snapshot.json}"
BASE="${2:-}"
BENCH='BenchmarkAccessLinear$|BenchmarkAccessQuadratic$|BenchmarkScorerSweep$|BenchmarkScorerSweepReuse$|BenchmarkScorerApplyMove$|BenchmarkBestResponse$|BenchmarkOPTLine5$|BenchmarkONBRCommuter$|BenchmarkONTHCommuter$|BenchmarkAllPairs500$|BenchmarkSparseRowCold$|BenchmarkSparseRowWarm$|BenchmarkLandmarkDist$|BenchmarkSmallWorldConstruct100k$|BenchmarkONCONF$|BenchmarkWFA$|BenchmarkWFALargeSpace$|BenchmarkONCONFLargeSpace$|BenchmarkLookaheadOFFBR$|BenchmarkLookaheadReuseOFFBR$|BenchmarkFlashCrowdGen$|BenchmarkDiurnalGen$|BenchmarkFigureRunnerLocal$|BenchmarkPoolPipelined$|BenchmarkPoolPerFigure$|BenchmarkDeadlineTracker$|BenchmarkServeIngest$|BenchmarkCheckpoint$|BenchmarkEngineRound$'

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
# The pool benchmarks (shared subprocess pool vs one pool per figure) live
# in the runner package, the serving-path benchmarks (ingest admission,
# checkpoint write, engine round) in internal/serve; everything else is in
# the repo root.
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . ./internal/experiments/runner ./internal/serve | tee "$RAW"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v goversion="$(go version)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    if (!(name in ns)) { order[++m] = name }
    # Locate values by their unit so benchmarks that b.ReportMetric extra
    # columns (e.g. "configs", "clusters") do not shift the standard ones.
    for (f = 3; f < NF; f++) {
        if ($(f+1) == "ns/op")          ns[name]     += $f
        else if ($(f+1) == "B/op")      bytes[name]  += $f
        else if ($(f+1) == "allocs/op") allocs[name] += $f
    }
    count[name]++
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": {\n", date, goversion
    for (i = 1; i <= m; i++) {
        b = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.2f, \"samples\": %d}%s\n", \
            b, ns[b]/count[b], bytes[b]/count[b], allocs[b]/count[b], count[b], (i < m ? "," : "")
    }
    printf "  }\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"

if [[ -n "$BASE" && -f "$BASE" && "$BASE" != "$OUT" ]]; then
    echo
    echo "delta vs $BASE (ns/op):"
    awk '
    match($0, /"Benchmark[A-Za-z0-9]+"/) {
        name = substr($0, RSTART + 1, RLENGTH - 2)
        if (!match($0, /"ns_per_op": *[0-9.]+/)) { next }
        v = substr($0, RSTART + 13, RLENGTH - 13) + 0
        if (FILENAME == ARGV[1]) { old[name] = v }
        else {
            new[name] = v
            if (!(name in seen)) { order[++m] = name; seen[name] = 1 }
        }
    }
    END {
        printf "  %-28s %14s %14s %9s\n", "benchmark", "old", "new", "speedup"
        for (i = 1; i <= m; i++) {
            b = order[i]
            if (b in old && old[b] > 0)
                printf "  %-28s %14.1f %14.1f %8.2fx\n", b, old[b], new[b], old[b] / new[b]
            else
                printf "  %-28s %14s %14.1f %9s\n", b, "-", new[b], "new"
        }
    }' "$BASE" "$OUT"
fi
