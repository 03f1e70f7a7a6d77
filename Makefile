# Build/test entry points; `make ci` is what the repository considers green.
GO ?= go

.PHONY: all build vet fmt test race bench bench-module bench-json bench-compare fuzz ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The campaign worker pool must be race-clean; this is the gate for it.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Benchmark results as committable JSON (see BENCH_PR*.json baselines).
# Override BENCH_OUT to choose the output file.
BENCH_OUT ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | $(GO) run ./cmd/dfrs-bench > $(BENCH_OUT)

# Compare the current PR's committed baseline against the previous one and
# flag >10% ns/op regressions. Non-blocking in CI (single-iteration
# benchmark timings are noisy; treat failures as a prompt to re-measure,
# not a verdict). Override BENCH_OLD/BENCH_NEW to diff other baselines.
BENCH_OLD ?= BENCH_PR9.json
BENCH_NEW ?= BENCH_PR10.json
bench-compare:
	$(GO) run ./cmd/dfrs-bench -compare -old $(BENCH_OLD) -new $(BENCH_NEW) -threshold 10

# Short fuzz session over the SWF parser (the deterministic corpus also
# runs as a normal test in `make test`).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/swf/

# The blocking steps of .github/workflows/ci.yml, in the same order.
ci: build vet fmt test race bench-module

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# The benchmark is its own module (bench/go.mod), invisible to the root
# `go test ./...`.
bench-module:
	cd bench && $(GO) test ./...
