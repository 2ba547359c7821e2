GO ?= go

.PHONY: build test race race-pool race-router race-patterns vet fmt-check lint lint-json ci perfbench-check serve load bench bench-smoke bench-ab fuzz-smoke cluster-smoke bench-cluster-bin bench-cluster bench-cluster-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file (the perfbench module's
# included) is not gofmt-clean, and lists the offenders.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the project analyzers (determinism, map ordering, context
# flow, lock discipline) over the whole module. parseclint is a
# multichecker built on the stdlib; if golang.org/x/tools is ever
# vendored, the same analyzers can run as `go vet -vettool` — see
# cmd/parseclint.
lint:
	$(GO) run ./cmd/parseclint ./...

# lint-json writes the machine-readable report (every finding,
# suppressed ones included, with their justifications) that CI archives
# as an artifact. The exit status still gates on unsuppressed findings
# only.
lint-json:
	$(GO) run ./cmd/parseclint -json ./... > lint-report.json || (cat lint-report.json; exit 1)
	@echo wrote lint-report.json

race:
	$(GO) test -race ./...

# race-pool hammers the parse pool's concurrency under the race
# detector ten times over, where race runs each test once: the pool's
# queues and workers, /v1/batch units and the batches workers take, a
# lattice decode, and the result cache's flights.
POOL_TESTS = ^Test(Batch|Deadline|QueueFull|Shutdown|SerialJobs|OppositeOrder|ConcurrentHammer|LatticeUnknownWord|ResultCache|CachedResult)
race-pool:
	$(GO) test -race -count=10 -run '$(POOL_TESTS)' ./internal/server/

# race-router does the same for the router: membership churn,
# sub-batches, failover (the lattice stream's included), 4xx/504
# handling, admission and the router's result cache, ten times each
# under the race detector. TestBatchReplyOverOneMiB is left out (about
# 7 s a run under -race); race runs it once.
ROUTER_TESTS = ^Test(MembershipChurn|ChurnWith|KilledShard|BatchShards|4xx|504|Retryable5xx|Admission|RetryAfter|Lattice|RouterResultCacheRaces)
race-router:
	$(GO) test -race -count=10 -run '$(ROUTER_TESTS)' ./internal/router/...

# race-patterns fails when an alternative of POOL_TESTS or ROUTER_TESTS
# matches no test. A renamed or deleted test would otherwise leave its
# alternative matching nothing while race-pool and race-router still
# pass. It lists each pattern's tests with go test -list and checks
# every alternative names the prefix of at least one of them.
race-patterns:
	@check() { \
		list=$$($(GO) test -list "$$1" $$2 | grep '^Test') || { echo "$$1 matches no test in $$2"; exit 1; }; \
		alts=$${1#^Test(}; \
		for alt in $$(echo "$${alts%)}" | tr '|' ' '); do \
			echo "$$list" | grep -q "^Test$$alt" || { echo "race-patterns: Test$$alt matches no test in $$2"; exit 1; }; \
		done; \
	}; \
	check '$(POOL_TESTS)' ./internal/server/ && check '$(ROUTER_TESTS)' ./internal/router/...

# ci is the gate: formatting and static checks, the full suite under
# the race detector (the server/pool/router tests are written to be
# hammered) plus ten more rounds of the pool and router tests, whose
# patterns race-patterns checks first, a bounded fuzz pass over the
# request-decoding, cache-key canonicalization and /metrics parsing
# surfaces, and the serving benchmark's own module.
ci: fmt-check vet lint race-patterns race race-pool race-router fuzz-smoke perfbench-check

# perfbench-check vets and tests the serving benchmark. perfbench is its
# own Go module, so ./... above does not reach it, though it imports
# server, router, core and metrics.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# fuzz-smoke runs each native fuzz target for FUZZTIME on top of its
# checked-in seed corpus (testdata/fuzz/). 30s per target is the CI
# budget; set FUZZTIME=5s for a quick local pass or point -fuzztime
# at something much larger for a real soak. Targets are pkg:Name pairs
# so surfaces outside the server package (the VM-vs-AST differential
# target in internal/cdg, the MasPar-vs-serial one in internal/core)
# ride the same harness. go test -fuzz passes, with only a warning,
# when its pattern names no fuzz test, so fuzz-smoke first fails on any
# entry whose package lists no fuzz test of exactly that name.
FUZZTIME ?= 30s
FUZZ_TARGETS ?= ./internal/server/:FuzzParseRequestDecode \
	./internal/server/:FuzzCacheKey \
	./internal/server/:FuzzLatticeRequestDecode \
	./internal/cdg/:FuzzCompiledEvalMatchesAST \
	./internal/cn/:FuzzNetworkMatchesPerValue \
	./internal/core/:FuzzMasParMatchesReference \
	./internal/maspar/:FuzzRangeKernelsMatchFullWidth \
	./internal/lru/:FuzzLRUMatchesModel \
	./internal/benchfleet/:FuzzScenarioDecode \
	./internal/metrics/:FuzzParseText
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		case "$$name" in Fuzz*) ;; *) echo "fuzz-smoke: $$name is not a fuzz test name"; exit 1;; esac; \
		$(GO) test -list "^$$name$$" $$pkg | grep -qx "$$name" || { echo "fuzz-smoke: $$pkg has no fuzz test $$name"; exit 1; }; \
	done
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzz $$name ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# cluster-smoke boots a 3-shard in-process cluster (real server.New
# instances behind the router, no child processes) and drives a mixed
# parse/batch/metrics workload through it — the quickest end-to-end
# check that the sharded serving path still holds together.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./internal/router/clustertest/

# serve runs the parse service on the default port.
serve:
	$(GO) run ./cmd/parsecd

# load drives a locally running parsecd with the default mix.
load:
	$(GO) run ./cmd/parsecload -c 16 -n 400

# bench runs the paper-figure (Fig. 8, E3–E8: the root package), simulator,
# network, constraint-eval, end-to-end, serving-path, and fleet-hit
# benchmarks with allocation accounting and writes the machine-readable
# report the perf work tracks (ns/op, B/op, allocs/op, simulated
# cycles/op, sents/s, and the end-to-end parse's eval/scan/router stage
# attribution), each row tagged with its package.
# Every benchmark runs BENCH_COUNT times; benchjson folds the repeats into
# one row of medians with the ns/op range and the run count.
BENCH_PKGS = . ./internal/maspar/ ./internal/cn/ ./internal/cdg/ ./internal/core/ ./internal/latticeserve/ ./internal/server/ ./internal/router/clustertest/
BENCH_COUNT ?= 5
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o BENCH_scan.json
	@echo wrote BENCH_scan.json

# bench-smoke is the CI-sized variant: one short iteration per
# benchmark (BenchmarkEndToEndParse and BenchmarkConstraintEval
# included), just enough to prove the harness, the attribution
# plumbing, and the JSON pipeline stay healthy. One-iteration numbers
# are no measurement, so they go to the untracked BENCH_smoke.json and
# leave the committed BENCH_scan.json alone.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o BENCH_smoke.json
	@echo wrote BENCH_smoke.json

# bench-ab compares this tree (head) with the revision BASE in one
# session, so host drift between sessions cannot read as a change:
#
#	make bench-ab BASE=<rev> BENCH=EndToEndParse BENCH_COUNT=10
#
# It extracts BASE with git archive into a temp dir and builds
# go test -c for each BENCH_AB_PKGS package in both trees, with
# -trimpath so that a checkout's path cannot change its binary (an A/A
# run, BASE=HEAD on a clean tree, compares identical binaries). One
# -test.benchtime 1x pass lists the rows BENCH selects on each side.
# Then, BENCH_COUNT times, it runs each row on both sides back to back,
# the side that goes first alternating from pair to pair, each with
# -test.benchmem, -test.cpu 1 and -test.timeout, so a row's two sides
# run seconds apart; a row found on one side only runs on that side.
# cmd/benchjson then prints, per benchmark and metric, both medians,
# the median head/base ratio over the pairs with its min and max, and
# head's wins, and after them each one-sided row with its side's
# medians. It writes no file in the tree.
BASE ?=
BENCH ?= .
BENCH_AB_PKGS ?= ./internal/core/
bench-ab:
	@test -n "$(BASE)" || { echo "bench-ab: set BASE=<rev>"; exit 1; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	run() { \
		root="$(CURDIR)"; [ $$1 = head ] || root="$$tmp/base"; \
		(cd "$$root/$$3" && "$$tmp/$$1$$2.test" -test.run '^$$' -test.bench "$$4" -test.cpu 1 $$5); \
	}; \
	i=0; for pkg in $(BENCH_AB_PKGS); do \
		i=$$((i+1)); \
		$(GO) test -c -trimpath -o "$$tmp/head$$i.test" "$$pkg"; \
		(cd "$$tmp/base" && $(GO) test -c -trimpath -o "$$tmp/base$$i.test" "$$pkg"); \
		for side in base head; do \
			run $$side $$i "$$pkg" '$(BENCH)' '-test.benchtime 1x' | \
				awk -v i=$$i -v pkg="$$pkg" '/^Benchmark/ {print i, pkg, $$1}' >> "$$tmp/$$side.rows"; \
		done; \
	done; \
	sort -u "$$tmp/base.rows" "$$tmp/head.rows" > "$$tmp/rows"; \
	for n in $$(seq 1 $(BENCH_COUNT)); do \
		order="base head"; [ $$((n % 2)) = 1 ] || order="head base"; \
		while read -r i pkg row; do \
			pat=$$(printf '%s\n' "$$row" | sed -e 's/[][\.*^$$+?(){}|]/\\&/g' -e 's|/|$$/^|g' -e 's|^|^|' -e 's|$$|$$|'); \
			for side in $$order; do \
				grep -qxF "$$i $$pkg $$row" "$$tmp/$$side.rows" || continue; \
				run $$side $$i "$$pkg" "$$pat" '-test.benchmem -test.timeout 30m' < /dev/null >> "$$tmp/$$side.txt"; \
			done; \
		done < "$$tmp/rows"; \
		echo "bench-ab: pair $$n of $(BENCH_COUNT) done ($$order)" >&2; \
	done; \
	$(GO) run ./cmd/benchjson -base "$$tmp/base.txt" -head "$$tmp/head.txt"

# Fleet benchmarking: cmd/parsecbench boots an N-shard parsecd fleet
# plus parsecrouter as real local processes, drives a declarative
# scenario (scenarios/*.json) with its fault schedule (kill -9 a shard
# mid-run, delay injection) from its own client, records every
# request's status, shard and latency plus each shard's and the
# router's /metrics at every phase boundary, and writes
# BENCH_cluster.json in the same benchjson schema as BENCH_scan.json:
# a total row, one per phase and one per (phase, shard).
BENCHBIN := .benchbin
bench-cluster-bin:
	@mkdir -p $(BENCHBIN)
	$(GO) build -o $(BENCHBIN)/ ./cmd/parsecd ./cmd/parsecrouter ./cmd/parsecbench

# bench-cluster runs the full 3-shard zipf + kill + lattice scenario.
bench-cluster: bench-cluster-bin
	$(BENCHBIN)/parsecbench run -scenario scenarios/zipf-kill.json -mode proc -bin $(BENCHBIN) -o BENCH_cluster.json
	@echo wrote BENCH_cluster.json

# bench-cluster-smoke is the CI-sized variant: a real 2-shard fleet +
# router as child processes, a kill-phase scenario (~5s including probe
# waits), and the test asserts the artifact validates, its total row
# has p50 and p99, each phase's per-shard rows add up to its requests,
# the survivor's rows carry a kill-phase p99 and a warm hit rate, and
# the router ejected the killed shard. TestProcRunReapsFleet then runs
# the built parsecbench twice more, killed early by a closed stdout and
# by a SIGINT, and asserts that no child outlives it.
bench-cluster-smoke: bench-cluster-bin
	PARSECBENCH_PROC=1 PARSECBENCH_BIN=$(abspath $(BENCHBIN)) PARSECBENCH_OUT=$(abspath BENCH_cluster.json) \
		$(GO) test -run 'TestProcFleetSmoke|TestProcRunReapsFleet' -count=1 -v ./cmd/parsecbench/
