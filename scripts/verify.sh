#!/usr/bin/env sh
# Repository verification: formatting and vet gates, the tier-1 build+test
# gate, plus the race-detector pass over the packages that fan out over
# goroutines (the measurement pipeline, its engine replicas, the parallel
# primitive, the detector evaluator, the online serving layer, and the load
# harness that hammers it from concurrent clients) and over the cache
# run-path differential tests, which must also hold under -race.
# Full ./... under -race is too slow for CI; the concurrency all lives
# behind these packages.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== vet benchmark module (servebench/ is a nested module ./... skips) =="
(cd servebench && go vet ./...)

echo "== examples (build smoke) =="
go build ./examples/...
go vet ./examples/...

echo "== test =="
go test ./...

echo "== race (parallel pipeline + detection + serving + cluster + twin + observability + workload + cache runs) =="
go test -race ./internal/parallel ./internal/core ./internal/engine ./internal/detect ./internal/serve ./internal/cluster ./internal/twin ./internal/obs ./internal/workload ./internal/uarch/cache

echo "== bench smoke (compile + one iteration of every benchmark) =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== serve smoke (/metrics + pprof + loadgen burst + 2-replica cluster + graceful drain) =="
smoketmp="$(mktemp -d)"
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/advhunter" ./cmd/advhunter
go run ./scripts/servesmoke -bin "$smoketmp/advhunter"

echo "verify: OK"
