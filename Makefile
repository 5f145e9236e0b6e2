# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test lint bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt + go vet + the repo's own repcheck analyzers (ANALYSIS.md).
lint:
	bash scripts/lint.sh

# Hot-path benchmark snapshot (bench-snapshot.json, untracked) with a
# delta against the latest committed snapshot.
bench:
	bash scripts/bench.sh bench-snapshot.json BENCH_10.json
