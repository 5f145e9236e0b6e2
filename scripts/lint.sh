#!/usr/bin/env bash
# Static checks for the repo, in increasing order of specificity:
#
#   1. gofmt       — formatting, fail on any unformatted file
#   2. go vet      — the toolchain's full analyzer set (printf, copylocks,
#                    loopclosure, lostcancel, structtag, unreachable, …)
#   3. repcheck    — the repo's own contract analyzers (rowborrow,
#                    detrand, maprange, floatfmt); see ANALYSIS.md
#
# perfbench/ is a nested module that ./... does not descend into, so go
# vet and repcheck run there a second time.
#
# x/tools-only vet passes (nilness, unusedwrite, shadow) need a module
# download and are not available in the offline build; repcheck carries
# the repo-specific contracts instead. Run as `scripts/lint.sh` or
# `make lint`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt required on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...
(cd perfbench && go vet ./...)

echo "== repcheck"
go run ./cmd/repcheck ./...
(cd perfbench && go run repro/cmd/repcheck ./...)

echo "lint clean"
