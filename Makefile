# Build/test entry points; `make ci` is what the repository considers green.
GO ?= go

.PHONY: all build vet fmt test race bench bench-module bench-json bench-compare profile-mcb fuzz ci

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

# CPU profile of one BenchmarkTableI iteration, written under PROFILE_DIR,
# then the share of samples in the DYNMCB8 scheduler (mcb), the allocator
# (core) and the packer (vectorpack): flat is time in the package's own
# code, cum the largest cumulative share of one of its functions.
PROFILE_DIR ?= /tmp
profile-mcb:
	$(GO) test -run '^$$' -bench '^BenchmarkTableI$$' -benchtime 1x -o $(PROFILE_DIR)/dfrs-tablei.test -cpuprofile $(PROFILE_DIR)/dfrs-tablei.prof .
	@$(GO) tool pprof -top -nodecount=1000000 $(PROFILE_DIR)/dfrs-tablei.test $(PROFILE_DIR)/dfrs-tablei.prof 2>/dev/null | awk '\
		$$6 ~ /^repro\/internal\/(sched\/mcb|core|vectorpack)\./ { \
			pkg = $$6; sub(/\..*/, "", pkg); f = $$2; c = $$5; sub(/%/, "", f); sub(/%/, "", c); \
			flat[pkg] += f; if (c + 0 > cum[pkg]) cum[pkg] = c + 0 } \
		END { printf "%-28s %7s %7s\n", "layer", "flat%", "cum%"; \
			n = split("repro/internal/sched/mcb repro/internal/core repro/internal/vectorpack", p, " "); \
			for (i = 1; i <= n; i++) printf "%-28s %6.1f%% %6.1f%%\n", p[i], flat[p[i]], cum[p[i]] }'

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
