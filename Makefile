# Convenience targets for the GUESS reproduction.

GO ?= go

.PHONY: all build vet lint vuln test test-short test-chaos race fuzz-smoke bench bench-smoke bench-json bench-check bench-e2e bench-e2e-compare cover-check obs-smoke sweep-smoke cluster-smoke experiments-quick experiments-full clean

all: build vet lint test fuzz-smoke bench-smoke obs-smoke sweep-smoke cluster-smoke

# The packages with hot-path microbenchmarks (b.ReportAllocs); see also
# the top-level BenchmarkSingleRun in bench_test.go. The last three are
# the live path: node's BenchmarkServeQuery/ServePing/FleetQuery are
# also what to profile it with (go test -run '^$' -bench FleetQuery
# -cpuprofile cpu.pprof ./node).
BENCH_PKGS = ./internal/simrng ./internal/eventq ./internal/cache ./internal/policy ./internal/dist ./internal/content ./internal/overlay ./internal/core ./internal/gossip ./internal/dht ./internal/gnutella ./internal/wire ./node/memnet ./node

build:
	$(GO) build ./...

# go vet, gofmt (any file gofmt would change fails the target) and a
# tidy go.mod: the module is standard library only, so go.mod holds its
# module and go lines and nothing else.
vet:
	$(GO) vet ./...
	$(GO) mod tidy -diff
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "vet: gofmt would reformat:" >&2; echo "$$unformatted" >&2; exit 1; fi

# Pinned so CI lint runs are reproducible; bump deliberately, together
# with any new-check fallout, not as a side effect of a CI image change.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# The determinism/observability/concurrency linter (see README "Static
# analysis"): the guess-lint multichecker (detrand, maporder, rngstream,
# obsname; atomicfield, which asks for typed atomics instead of
# sync/atomic function calls; lockguard, goroexit, wirebound; plus the
# stale-suppression sweep) over every package as one program, then
# staticcheck when available. staticcheck is skipped gracefully on
# machines without it (it is a module dependency this stdlib-only repo
# does not vendor); CI installs the pinned version so the full gate
# always runs there.
lint:
	$(GO) run ./cmd/guess-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./...; \
	else \
	  echo "lint: staticcheck not installed; skipping (CI pins staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan. Non-blocking in CI (advisories in the Go
# toolchain itself would otherwise fail builds we cannot fix here), and
# skipped gracefully where govulncheck is not installed.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
	  govulncheck ./...; \
	else \
	  echo "vuln: govulncheck not installed; skipping (CI pins govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The chaos battery: scripted network-fault scenarios on node/memnet.
# -count=2 replays every scenario to catch nondeterminism; -race
# because the scenarios hammer the node's concurrency.
test-chaos:
	$(GO) test -race -count=2 -run Chaos ./node

# Race-detect the goroutine-spawning packages (live node, experiment
# harness, sweep orchestration, protocol substrates). -short keeps the
# experiment sweeps to the cheap ones — the race detector's ~20x
# slowdown would push the full battery past the default test timeout —
# while still covering the worker-pool fan-out (every family's points on
# pooled Workers: TestPoolRunsEveryFamily, TestWorkerRenewMatchesFresh).
# The engine itself starts no goroutine; the core leg keeps the Renew
# and sample-scan suites under the detector, since pooled Workers chain
# engines through Renew. The gnutella leg floods one Topology from two
# goroutines (TestConcurrentFloodsShareTopology), and the content leg
# draws libraries from one Universe's shared sampler bitmap on four
# (TestLibrariesShareBitmapConcurrently).
race:
	$(GO) test -race -short -timeout 15m ./node/... ./internal/experiments \
	  ./internal/gossip ./internal/dht ./internal/gnutella ./internal/orchestrate \
	  ./internal/content
	$(GO) test -race -short -timeout 15m \
	  -run 'TestRenewMatchesFresh|TestScanOverlayMatchesReference' \
	  ./internal/core

# Ten seconds of coverage-guided fuzzing each over the wire decoder,
# the stream framing, the snapshot decoder, the gossip/DHT/GUESS
# parameter spaces, link-cache, query-cache, event-queue, memnet
# endpoint-queue and live-node address-table operation scripts, and
# content libraries:
# cheap insurance that no datagram, frame, or snapshot can panic a live
# node, no parameter corner breaks the substrate engines' conservation
# invariants or determinism, no small GUESS configuration makes the
# simulator depart from its plain reference engine (Results, CSV trace,
# event stream, next draws), the link cache's two indexes never
# disagree, the query cache never departs from its map reference (its
# seen set's members included), a node's address table never departs
# from a map plus free list (a kept address keeps its ID, a freed ID
# comes back only after a sweep, no two addresses share one, a full
# table answers 0), the event queue's FIFO never pops out of the order
# its heap alone would give, a memnet endpoint's ring of pooled packets
# never departs from a slice per endpoint (order, payloads, the
# 256-packet cap, Stats, Close) and a far-future read deadline, its timer
# left armed, never fails a later read, and no library, fresh or recycled, in
# either slot width, holds other items than the map sampler drew.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/frame
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./node
	$(GO) test -run='^$$' -fuzz=FuzzAddrTable -fuzztime=10s ./node
	$(GO) test -run='^$$' -fuzz=FuzzStateSyncDecode -fuzztime=10s ./node/cluster
	$(GO) test -run='^$$' -fuzz=FuzzGossipParams -fuzztime=10s ./internal/gossip
	$(GO) test -run='^$$' -fuzz=FuzzDHTLookup -fuzztime=10s ./internal/dht
	$(GO) test -run='^$$' -fuzz=FuzzEngineParams -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLinkCacheOps -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzQueryCacheOps -fuzztime=10s ./internal/policy
	$(GO) test -run='^$$' -fuzz=FuzzQueueOps -fuzztime=10s ./internal/eventq
	$(GO) test -run='^$$' -fuzz=FuzzConnQueue -fuzztime=10s ./node/memnet
	$(GO) test -run='^$$' -fuzz=FuzzLibrary -fuzztime=10s ./internal/content

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the headline benchmarks (the default-config run and
# the 100k-peer scaling run) plus the hot-path microbenchmarks: catches
# benchmark bit-rot and allocation regressions on every `make all`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSingleRun$$|BenchmarkLargeRun$$' -benchmem -benchtime 1x -timeout 30m .
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# Record a benchmark trajectory point: the headline simulation
# benchmark and the hot-path microbenchmarks, parsed into
# BENCH_<date>.json for cross-commit comparison (see README.md,
# "Profiling and benchmarking"). A recorded point is never overwritten:
# a second point on the same day needs a name of its own,
# `make bench-json BENCH_OUT=BENCH_<date>_<what>.json`.
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d).json
bench-json:
	@if [ -e $(BENCH_OUT) ] && [ "$(origin BENCH_OUT)" = file ]; then \
	  echo "bench-json: $(BENCH_OUT) exists; name this point with BENCH_OUT=<name>" >&2; exit 1; \
	fi
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -run '^$$' -bench 'BenchmarkSingleRun$$' -benchmem -benchtime 5x . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkLargeRun$$' -benchmem -benchtime 1x -timeout 30m . && \
	  $(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS); } \
	  | tee /dev/stderr | /tmp/benchjson -o $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Compare fresh headline benchmarks against the recorded trajectory
# point: fails if allocs/op or B/op (iteration-exact,
# machine-independent) grows past 110% of the baseline for the
# default-config run, the 100k-peer scaling run, one live-node query
# over memnet (BenchmarkFleetQuery, at a fixed iteration count: a
# closure or scratch that escapes per probe shows up there) or one
# gossip run at the families workload's shape (named with its package:
# internal/dht has a BenchmarkRun too). Override with
# `make bench-check BENCH_BASELINE=BENCH_<date>.json`.
BENCH_BASELINE ?= BENCH_20261018_pr44.json
bench-check:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -run '^$$' -bench 'BenchmarkSingleRun$$' -benchmem -benchtime 3x . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkLargeRun$$' -benchmem -benchtime 1x -timeout 30m . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkFleetQuery$$' -benchmem -benchtime 2000x ./node && \
	  $(GO) test -run '^$$' -bench 'BenchmarkRun$$' -benchmem -benchtime 2x ./internal/gossip; } \
	  | tee /dev/stderr \
	  | /tmp/benchjson -check $(BENCH_BASELINE) \
	      -benchmark 'BenchmarkSingleRun,BenchmarkLargeRun,BenchmarkFleetQuery,repro/internal/gossip.BenchmarkRun'

# The repository's end-to-end benchmark (bench/README.md): every
# workload of BENCHMARK.json, five runs each, into a result set named
# after the tree it measured, as `benchjson -revision` names it (the
# commit, plus a hash of the diff when the tree is dirty).
# bench-e2e-compare judges set B against set A on BENCHMARK.json's
# bounds:
#   make bench-e2e-compare A=bench/out/<parent>.json B=bench/out/<change>.json
bench-e2e:
	rev=$$($(GO) run ./cmd/benchjson -revision) && \
	  $(GO) run ./bench -out bench/out/$$rev.json

bench-e2e-compare:
	$(GO) run ./bench -compare $(A) $(B)

# End-to-end smoke of the observability endpoints: start a live node
# with -metrics, scrape /metrics and /metrics.json, and validate the
# exposition carries the guess_node_* instrument set.
obs-smoke:
	$(GO) build -o /tmp/guess-node ./cmd/guess-node
	@/tmp/guess-node -listen 127.0.0.1:0 -metrics 127.0.0.1:9464 -files smoke.mp3 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=; for i in 1 2 3 4 5 6 7 8 9 10; do \
	  curl -fsS http://127.0.0.1:9464/metrics >/tmp/obs-smoke.prom 2>/dev/null && ok=1 && break; \
	  sleep 0.3; \
	done; \
	[ -n "$$ok" ] || { echo "obs-smoke: /metrics never came up" >&2; exit 1; }; \
	grep -q '^# TYPE guess_node_pings_sent_total counter' /tmp/obs-smoke.prom || \
	  { echo "obs-smoke: missing guess_node_pings_sent_total TYPE line" >&2; exit 1; }; \
	grep -q '^guess_node_rtt_seconds_bucket{le="+Inf"} ' /tmp/obs-smoke.prom || \
	  { echo "obs-smoke: missing guess_node_rtt_seconds +Inf bucket" >&2; exit 1; }; \
	curl -fsS http://127.0.0.1:9464/metrics.json | grep -q '"guess_node_cache_entries"' || \
	  { echo "obs-smoke: /metrics.json missing guess_node_cache_entries" >&2; exit 1; }; \
	curl -fsS http://127.0.0.1:9464/healthz | grep -q '"status":"ok"' || \
	  { echo "obs-smoke: /healthz not ok" >&2; exit 1; }; \
	echo "obs-smoke: /metrics, /metrics.json and /healthz OK"

# End-to-end smoke of distributed sweep orchestration: a 2-worker
# in-process pool (coordinator + workers over the full wire protocol)
# must render every smoke experiment, tables and metrics text,
# byte-identical to the single-process path.
sweep-smoke:
	$(GO) build -o /tmp/guess-sweep ./cmd/guess-sweep
	/tmp/guess-sweep -smoke

# End-to-end smoke of cluster-wide fair admission: a 3-node memnet
# cluster synced to the shed-state service, driven through a scripted
# service outage — every node must degrade to local-only shedding
# (fallback counters move) and re-converge when the service returns.
cluster-smoke:
	$(GO) build -o /tmp/guess-cluster ./cmd/guess-cluster
	/tmp/guess-cluster -smoke

# Coverage gate for the GUESS engine, the flooding baseline and the
# other protocol substrates, the event loop they run on (eventq's
# Drain), the experiment harness, and the support packages the engines
# are built from (link cache, distributions, policies, RNG, content
# model): the cross-protocol property suite
# only means something while it actually exercises the engines, and
# code that no test reaches shows up here, so the covered-statement
# ratio of each gated package must stay at or above COVER_MIN.
COVER_PKGS = ./internal/core ./internal/gnutella ./internal/gossip ./internal/dht ./internal/eventq ./internal/experiments \
	./internal/cache ./internal/dist ./internal/policy ./internal/simrng ./internal/content
COVER_MIN ?= 80
cover-check:
	$(GO) test -coverprofile=/tmp/cover-check.out $(COVER_PKGS)
	@awk -F: 'NR>1 { split($$NF, f, " "); pkg=$$1; sub(/\/[^\/]*\.go$$/, "", pkg); \
	    tot[pkg]+=f[2]; if (f[3]>0) cov[pkg]+=f[2] } \
	  END { bad=0; for (p in tot) { pct=100*cov[p]/tot[p]; \
	    printf "cover-check: %-28s %5.1f%% (min $(COVER_MIN)%%)\n", p, pct; \
	    if (pct < $(COVER_MIN)) bad=1 } \
	    if (bad) print "cover-check: FAIL: package below $(COVER_MIN)% statement coverage"; \
	    exit bad }' /tmp/cover-check.out

# Regenerate every paper table/figure quickly (small networks).
experiments-quick:
	$(GO) run ./cmd/guess-experiments -experiment all -scale quick

# Paper-scale regeneration; writes CSVs under results/full.
experiments-full:
	$(GO) run ./cmd/guess-experiments -experiment all -scale full -csv results/full

clean:
	rm -rf results
