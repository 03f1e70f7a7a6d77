# Build/test entry points; `make ci` is what the repository considers green.
GO ?= go

.PHONY: all build vet fmt test race bench bench-module profile-mcb profile-fed profile-greedy fuzz ci

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

# CPU profiles of one benchmark iteration, written under PROFILE_DIR, then
# the share of samples per layer: flat is time in the package's own code,
# cum the largest cumulative share of one of its functions. layer_table
# prints that table for test binary $(1), profile $(2) and packages $(3).
PROFILE_DIR ?= /tmp
MCB_LAYERS := repro/internal/sched/mcb repro/internal/core repro/internal/vectorpack repro/internal/sim repro/internal/sim/index
layer_table = $(GO) tool pprof -top -nodecount=1000000 $(1) $(2) 2>/dev/null | awk -v layers='$(3)' '\
		BEGIN { n = split(layers, p, " "); for (i = 1; i <= n; i++) want[p[i]] = 1 } \
		{ pkg = $$6; sub(/\..*/, "", pkg) } \
		pkg in want { f = $$2; c = $$5; sub(/%/, "", f); sub(/%/, "", c); \
			flat[pkg] += f; if (c + 0 > cum[pkg]) cum[pkg] = c + 0 } \
		END { printf "%-28s %7s %7s\n", "layer", "flat%", "cum%"; \
			for (i = 1; i <= n; i++) printf "%-28s %6.1f%% %6.1f%%\n", p[i], flat[p[i]], cum[p[i]] }'

# BenchmarkTableI: the DYNMCB8 scheduler (mcb), the allocator (core), the
# packer (vectorpack), the event engine (sim) and its node index (sim/index).
profile-mcb:
	$(GO) test -run '^$$' -bench '^BenchmarkTableI$$' -benchtime 1x -o $(PROFILE_DIR)/dfrs-tablei.test -cpuprofile $(PROFILE_DIR)/dfrs-tablei.prof .
	@$(call layer_table,$(PROFILE_DIR)/dfrs-tablei.test,$(PROFILE_DIR)/dfrs-tablei.prof,$(MCB_LAYERS))

# The federation's round-robin leg: 8 members of 64 nodes running
# dynmcb8-asap-per, advanced inline (workers=1), 20 iterations for enough
# samples; the same layers plus the federation loop.
profile-fed:
	$(GO) test -run '^$$' -bench '^BenchmarkFederationParallel$$/^members=8$$/^workers=1$$' -benchtime 20x -o $(PROFILE_DIR)/dfrs-fed.test -cpuprofile $(PROFILE_DIR)/dfrs-fed.prof .
	@$(call layer_table,$(PROFILE_DIR)/dfrs-fed.test,$(PROFILE_DIR)/dfrs-fed.prof,$(MCB_LAYERS) repro/internal/federation)

# BenchmarkStreamReplay's greedy-pmtn row, 5 iterations: greedy placement,
# ordering and the yield rule (sched), the greedy scheduler itself
# (sched/greedy), the average-yield heuristic (core), the event engine
# (sim), its node index (sim/index) and the streaming trace parser
# (workload).
GREEDY_LAYERS := repro/internal/sched repro/internal/sched/greedy repro/internal/core repro/internal/sim repro/internal/sim/index repro/internal/workload
profile-greedy:
	$(GO) test -run '^$$' -bench '^BenchmarkStreamReplay$$/^greedy-pmtn$$' -benchtime 5x -o $(PROFILE_DIR)/dfrs-greedy.test -cpuprofile $(PROFILE_DIR)/dfrs-greedy.prof .
	@$(call layer_table,$(PROFILE_DIR)/dfrs-greedy.test,$(PROFILE_DIR)/dfrs-greedy.prof,$(GREEDY_LAYERS))

# Short fuzz sessions over the five input parsers, one after another: the
# SWF loader, the node-inventory parser and the three dfrs-serve submission
# parsers (topology spec, campaign grid, uploaded trace). Their seed
# corpora also run as normal tests in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/swf/
	$(GO) test -run '^$$' -fuzz '^FuzzNodeSpecs$$' -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 10s ./internal/federation/
	$(GO) test -run '^$$' -fuzz '^FuzzParseGrid$$' -fuzztime 10s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamTrace$$' -fuzztime 10s ./internal/workload/

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
