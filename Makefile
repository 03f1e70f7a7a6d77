# Build/test entry points; `make ci` is what the repository considers green.
GO ?= go

.PHONY: all build vet fmt test race bench bench-module profile-mcb fuzz ci

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

# CPU profile of one BenchmarkTableI iteration, written under PROFILE_DIR,
# then the share of samples in the DYNMCB8 scheduler (mcb), the allocator
# (core), the packer (vectorpack), the event engine (sim) and its node index
# (sim/index): flat is time in the package's own code, cum the largest
# cumulative share of one of its functions.
PROFILE_DIR ?= /tmp
profile-mcb:
	$(GO) test -run '^$$' -bench '^BenchmarkTableI$$' -benchtime 1x -o $(PROFILE_DIR)/dfrs-tablei.test -cpuprofile $(PROFILE_DIR)/dfrs-tablei.prof .
	@$(GO) tool pprof -top -nodecount=1000000 $(PROFILE_DIR)/dfrs-tablei.test $(PROFILE_DIR)/dfrs-tablei.prof 2>/dev/null | awk '\
		$$6 ~ /^repro\/internal\/(sched\/mcb|core|vectorpack|sim|sim\/index)\./ { \
			pkg = $$6; sub(/\..*/, "", pkg); f = $$2; c = $$5; sub(/%/, "", f); sub(/%/, "", c); \
			flat[pkg] += f; if (c + 0 > cum[pkg]) cum[pkg] = c + 0 } \
		END { printf "%-28s %7s %7s\n", "layer", "flat%", "cum%"; \
			n = split("repro/internal/sched/mcb repro/internal/core repro/internal/vectorpack repro/internal/sim repro/internal/sim/index", p, " "); \
			for (i = 1; i <= n; i++) printf "%-28s %6.1f%% %6.1f%%\n", p[i], flat[p[i]], cum[p[i]] }'

# Short fuzz sessions over the three input parsers, one after another: the
# SWF loader and the two dfrs-serve submission parsers (topology spec,
# campaign grid). Their seed corpora also run as normal tests in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/swf/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 10s ./internal/federation/
	$(GO) test -run '^$$' -fuzz '^FuzzParseGrid$$' -fuzztime 10s ./internal/campaign/

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
