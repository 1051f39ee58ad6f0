# Tier-1 gate, CI pipeline and benchmark smoke for the repro module.
#
#   make verify       # gofmt, vet (host and arm64), build, full tests, race tests on the hot packages
#   make modelcheck   # prove invariants (a)-(d) over the bounded policy+reactor model
#   make staticcheck  # determinism lint: map-range / wallclock / goroutine hazards in internal/...
#   make determinism  # sweep + attack campaign twice (different worker counts) + shard/merge, fail on any byte diff
#   make trace-determinism # traced campaign: Chrome trace JSON byte-identical across worker counts
#   make chaos        # crash the daemon mid-job + kill a fleet backend; recovered streams must byte-match
#   make attack       # the paper's detection matrix (one-command repro)
#   make bench-smoke  # short throughput benchmarks so regressions surface in CI logs
#   make bench-json   # benchmark suite -> build/BENCH_<pr>.json (perf trajectory; CI artifact)
#   make bench-diff   # fail on ns/op (> 25%) or allocs/op regressions vs perf/BENCH_baseline.json
#   make bench-diff BASE=<git ref> # same gate, against the ref measured alternately in the same run
#   make bench-baseline # refresh the committed baseline after an intentional perf change
#   make perfbench-test # vet + test the perfbench module, which no root target compiles
#   make perfbench-smoke # run each gated perfbench workload once, briefly; fail unless correct with 0 failed
#   make fuzz-smoke   # run each native fuzz target for a fixed 10 s
#   make ci           # exactly what .github/workflows/ci.yml runs
#   make bench        # one-shot BenchmarkEngineThroughput with allocation stats

GO ?= go
BUILD := build

# Small fixed grid for the determinism gate: all three protections, fast
# workload parameters. Must match across every invocation below.
SWEEP_GRID := -sweep-protections unprotected,distributed,centralized \
              -sweep-workloads mix,stream -sweep-cores 1,2 \
              -accesses 16 -compute 4 -max 2000000

# Campaign grid for the determinism gate: one attack per family plus the
# DoS flood, under benign background load — internal (stream) and
# external-memory (secure-stream/secure-scrub through the CM+IM zone,
# cipher-mix through the CM zone, all crossing the LCF) — against all
# three protections.
ATTACK_GRID := -attack-scenarios tamper,zone-escape,dos-flood \
               -sweep-protections unprotected,distributed,centralized \
               -attack-cores 3 \
               -attack-backgrounds stream,secure-stream,secure-scrub,cipher-mix \
               -accesses 64 -inject-delay 100 -max 2000000

# Reaction-and-recovery grid for the determinism gate: the burst flood and
# two hijack attacks with the quarantine reactor armed and a deliberately
# short, staged supervisor schedule — the probation-flap regime, the
# hardest case for reproducibility (engine events re-scheduling engine
# events mid-run, throughput windows riding along in the stream).
RECOVERY_GRID := -attack-scenarios burst-flood,zone-escape,dos-flood \
                 -sweep-protections unprotected,distributed,centralized \
                 -attack-cores 3 -attack-backgrounds stream \
                 -accesses 256 -inject-delay 100 -max 2000000 \
                 -recovery -recovery-staged -recovery-clear-delay 1500

.PHONY: ci verify fmt vet build test race modelcheck staticcheck determinism serve-determinism trace-determinism chaos attack bench-smoke bench bench-json bench-diff bench-baseline perfbench-test perfbench-smoke fuzz-smoke clean

ci: verify fuzz-smoke perfbench-test perfbench-smoke modelcheck staticcheck determinism serve-determinism trace-determinism chaos attack bench-smoke bench-diff

verify: fmt vet build test race staticcheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; \
	fi

# The second vet builds for arm64, where internal/aes has no assembly: it
# keeps the portable T-table path (and every per-GOARCH file pair)
# compiling and vetted on an amd64 host.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine, bus, sweep harness and attack campaign are the packages that
# run concurrently (one engine per goroutine in sweeps); keep them
# race-clean. journal and faultpoint sit on every concurrent shard path.
# soc, core, hashtree and cpu build the platforms those goroutines run:
# the LCF's seal memo and the tree's build memo are shared by every
# platform of a process.
race:
	$(GO) test -race ./internal/sim ./internal/bus ./internal/sweep ./internal/campaign ./internal/recovery ./internal/server ./internal/obs ./internal/journal ./internal/faultpoint ./internal/hostobs \
		./internal/soc ./internal/core ./internal/hashtree ./internal/cpu

# fuzz-smoke: each native fuzz target runs for a fixed 10 s. Plain go test
# only replays the seed corpora (testdata/fuzz and the f.Add seeds); this
# searches past them, which matters most right after a change to the code
# a target covers — FuzzMerge holds sweep.Merge to the priming merge it
# replaced, FuzzCipherKernels both AES paths to crypto/aes, FuzzStore the
# copy-on-write pages of mem.Store to a flat []byte, FuzzTreeCache the
# integrity tree's verified-node cache to the dense cache it replaced.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMerge$$' -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzCipherKernels$$' -fuzztime 10s ./internal/aes
	$(GO) test -run '^$$' -fuzz '^FuzzStore$$' -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzTreeCache$$' -fuzztime 10s ./internal/hashtree

# modelcheck: the proof gate. Exhaustively enumerate the bounded
# policy+reactor state space (internal/modelcheck) and fail on any
# violation of invariants (a)-(d); the reported state/transition counts
# are deterministic across runs, so a changed count in CI logs means the
# model (or the reactor) changed.
modelcheck:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/mpsocsim ./cmd/mpsocsim
	$(BUILD)/mpsocsim -modelcheck

# staticcheck: the determinism lint. Walks internal/... with
# go/parser+go/types and fails on map iteration feeding program order,
# time.Now / math/rand in the simulation stack, and goroutine spawns
# outside the sweep worker pool — unless justified, one line each, in
# tools/staticcheck/allowlist.txt (stale entries fail too).
staticcheck:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/staticcheck ./tools/staticcheck
	$(BUILD)/staticcheck -root .

# determinism: the sweep and campaign streams must be byte-identical across
# worker counts, and sharded runs merged back together must reproduce the
# unsharded stream.
determinism:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/mpsocsim ./cmd/mpsocsim
	$(BUILD)/mpsocsim -sweep $(SWEEP_GRID) -workers 1 -sweep-out $(BUILD)/sweep-w1.jsonl
	$(BUILD)/mpsocsim -sweep $(SWEEP_GRID) -workers 8 -sweep-out $(BUILD)/sweep-w8.jsonl
	cmp $(BUILD)/sweep-w1.jsonl $(BUILD)/sweep-w8.jsonl
	$(BUILD)/mpsocsim -sweep $(SWEEP_GRID) -shard 0/2 -sweep-out $(BUILD)/shard0.jsonl
	$(BUILD)/mpsocsim -sweep $(SWEEP_GRID) -shard 1/2 -sweep-out $(BUILD)/shard1.jsonl
	$(BUILD)/mpsocsim -sweep -merge $(BUILD)/shard0.jsonl,$(BUILD)/shard1.jsonl -sweep-out $(BUILD)/merged.jsonl
	cmp $(BUILD)/sweep-w1.jsonl $(BUILD)/merged.jsonl
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -workers 1 -sweep-out $(BUILD)/attack-w1.jsonl
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -workers 8 -sweep-out $(BUILD)/attack-w8.jsonl
	cmp $(BUILD)/attack-w1.jsonl $(BUILD)/attack-w8.jsonl
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -shard 0/2 -sweep-out $(BUILD)/attack-s0.jsonl
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -shard 1/2 -sweep-out $(BUILD)/attack-s1.jsonl
	$(BUILD)/mpsocsim -attack -merge $(BUILD)/attack-s0.jsonl,$(BUILD)/attack-s1.jsonl -sweep-out $(BUILD)/attack-merged.jsonl
	cmp $(BUILD)/attack-w1.jsonl $(BUILD)/attack-merged.jsonl
	$(BUILD)/mpsocsim -attack $(RECOVERY_GRID) -workers 1 -sweep-out $(BUILD)/recovery-w1.jsonl
	$(BUILD)/mpsocsim -attack $(RECOVERY_GRID) -workers 8 -sweep-out $(BUILD)/recovery-w8.jsonl
	cmp $(BUILD)/recovery-w1.jsonl $(BUILD)/recovery-w8.jsonl
	$(BUILD)/mpsocsim -attack $(RECOVERY_GRID) -shard 0/2 -sweep-out $(BUILD)/recovery-s0.jsonl
	$(BUILD)/mpsocsim -attack $(RECOVERY_GRID) -shard 1/2 -sweep-out $(BUILD)/recovery-s1.jsonl
	$(BUILD)/mpsocsim -attack -merge $(BUILD)/recovery-s0.jsonl,$(BUILD)/recovery-s1.jsonl -sweep-out $(BUILD)/recovery-merged.jsonl
	cmp $(BUILD)/recovery-w1.jsonl $(BUILD)/recovery-merged.jsonl
	grep -q '"recovered":true' $(BUILD)/recovery-w1.jsonl  # the gate must cover a full lifecycle, not vacuous zeros
	@echo "determinism: OK (sweep + campaign + recovery worker-count invariant, shard/merge byte-identical)"

# serve-determinism: the spec-as-API gate. The ATTACK_GRID flags compile
# to a spec file (-dump-spec), a spec-driven CLI run must byte-match a
# flag-driven one, and an in-process mpsocd (tools/servediff) must stream
# the same spec byte-identically across HTTP worker counts and match the
# CLI stream — plus its online /aggregates must equal an offline
# recomputation over the streamed JSONL.
serve-determinism:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/mpsocsim ./cmd/mpsocsim
	$(GO) build -o $(BUILD)/servediff ./tools/servediff
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -dump-spec > $(BUILD)/attack-spec.json
	$(BUILD)/mpsocsim -attack $(ATTACK_GRID) -sweep-out $(BUILD)/attack-direct.jsonl
	$(BUILD)/mpsocsim -spec $(BUILD)/attack-spec.json -sweep-out $(BUILD)/attack-fromspec.jsonl
	cmp $(BUILD)/attack-direct.jsonl $(BUILD)/attack-fromspec.jsonl
	$(BUILD)/servediff -spec $(BUILD)/attack-spec.json -direct $(BUILD)/attack-direct.jsonl
	@echo "serve-determinism: OK (flag/spec/HTTP streams byte-identical; online aggregates == offline recompute)"

# Traced-campaign grid for the trace-determinism gate: the recovery regime
# (quarantine, staged release, probation, throughput windows) is the
# densest event source, so its trace exercises every track kind.
TRACE_GRID := -attack-scenarios burst-flood,zone-escape \
              -sweep-protections unprotected,distributed \
              -attack-cores 3 -attack-backgrounds stream \
              -accesses 256 -inject-delay 100 -max 2000000 \
              -recovery -recovery-staged -recovery-clear-delay 1500

# trace-determinism: the observability gate. A traced campaign must
# produce byte-identical Chrome trace JSON (and JSONL) across worker
# counts — trace events are timestamped in sim cycles and rendered in
# emission order, so any wall-clock or scheduling leak shows up as a byte
# diff here. The grep guards against vacuity: the trace must actually
# contain an incident lifecycle.
trace-determinism:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/mpsocsim ./cmd/mpsocsim
	$(BUILD)/mpsocsim -attack $(TRACE_GRID) -workers 1 -trace $(BUILD)/trace-w1.json -sweep-out $(BUILD)/trace-w1.jsonl
	$(BUILD)/mpsocsim -attack $(TRACE_GRID) -workers 4 -trace $(BUILD)/trace-w4.json -sweep-out $(BUILD)/trace-w4.jsonl
	$(BUILD)/mpsocsim -attack $(TRACE_GRID) -workers 8 -trace $(BUILD)/trace-w8.json -sweep-out $(BUILD)/trace-w8.jsonl
	cmp $(BUILD)/trace-w1.json $(BUILD)/trace-w4.json
	cmp $(BUILD)/trace-w1.json $(BUILD)/trace-w8.json
	cmp $(BUILD)/trace-w1.jsonl $(BUILD)/trace-w8.jsonl
	grep -q '"quarantine"' $(BUILD)/trace-w1.json  # non-vacuous: the trace covers an incident
	@echo "trace-determinism: OK (Chrome trace JSON byte-identical across -workers 1/4/8)"

# chaos: the crash-safety gate (tools/chaos). Builds the real daemon, arms
# a faultpoint that exits 137 right after a shard ack is durable, restarts
# over the same journal, and the resumed job's stream must byte-match an
# uninterrupted run; then a fleet coordinator must survive a backend
# crashing mid-job with a byte-identical merged stream. Both scenarios
# verify the crash actually fired (exit code + stderr marker), so the gate
# cannot pass vacuously.
chaos:
	$(GO) run ./tools/chaos

# attack: the paper's detection matrix on your terminal — every default
# scenario against all three architectures, under internal and
# external-memory benign background load, with the reaction-and-recovery
# phase armed: the third table prices react latency, quarantine duration
# and recovery back to twin throughput. The clear delay outlasts the
# quarantined burst's drain so releases land on a clean platform. The grid
# is testdata/attack.json, the file TestPaperGolden renders into
# testdata/paper.golden, so the two cannot pin different grids.
attack:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/mpsocsim ./cmd/mpsocsim
	$(BUILD)/mpsocsim -spec testdata/attack.json -format table

# The repository-level benchmarks of the suite: the engine (busy,
# stall-heavy, and one busy core beside two stalled ones), the secured
# memory path and the per-record platform build.
BENCH_TOP := BenchmarkEngineThroughput|BenchmarkEngineSecureThroughput|BenchmarkEngineMixedThroughput|BenchmarkSecureMemoryThroughput|BenchmarkPlatformBuild

# bench-smoke: short end-to-end benchmarks so regressions on the engine
# (busy, stall-heavy and mixed), the secured memory path and the platform build
# surface in CI logs (the crypto-stack microbenchmarks ride along from
# internal/hashtree).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_TOP)' -benchtime=100x -benchmem .
	$(GO) test -run '^$$' -bench . -benchtime=100x -benchmem ./internal/hashtree

bench:
	$(GO) test -run '^$$' -bench BenchmarkEngineThroughput -benchtime=1x -benchmem .

# bench-json: the perf trajectory. Runs the host-speed benchmark suite
# (headline throughput numbers plus the crypto-stack micro set) and
# converts the output to $(BUILD)/BENCH_$(PR).json — benchmark name ->
# ns/op, allocs/op and custom metrics — which CI uploads as an artifact so
# future PRs can diff against it. CI always overrides PR= with the pull
# request (or run) number; the default only labels local runs.
PR ?= 4
# Noise control, because bench-diff holds a 25% gate against these
# numbers: a fixed, largish iteration count (3000x — at 100x a 50ns
# benchmark measures 5µs of work and scheduling noise alone swings 30%),
# and five samples per benchmark of which benchjson keeps the fastest
# (min-of-N, the standard low-noise estimate). The five samples come from
# five processes, not one process at -count=5: a process keeps its speed
# for its whole life — on a shared 2-vCPU host one process ran
# BenchmarkEngineSecureThroughput at 4.4-4.5k ns/op throughout and the
# next at 7.7-8.5k — so a single process's min-of-N is only as fast as
# that process.
# BENCH_SUITE prints one sample of every benchmark of the suite, run from
# the current directory. The coordinator's layers, under a millisecond an
# op each, run at 500x: BenchmarkMerge (internal/sweep: the merge of one
# fleet-recovery job's two shard streams), BenchmarkDecodeMergedLine
# (internal/server: the decode and fold of that job's merged lines) and
# BenchmarkAckShard/BenchmarkAckValid (internal/journal: the ack and fsync
# of one such record, checked as by an outside caller or unchecked as by
# the server). The grid-point layer, BenchmarkRunOne (internal/campaign:
# one campaign.RunOne of three gated-workload-shaped points), runs at 20x,
# as a flood point takes 10-20 ms.
BENCH_SUITE = $(GO) test -run '^$$' -bench '$(BENCH_TOP)' -benchtime=3000x -benchmem . && \
	$(GO) test -run '^$$' -bench . -benchtime=3000x -benchmem ./internal/aes ./internal/hashtree ./internal/core && \
	$(GO) test -run '^$$' -bench '^Benchmark(Merge|DecodeMergedLine|AckShard|AckValid)$$' -benchtime=500x -benchmem ./internal/sweep ./internal/server ./internal/journal && \
	$(GO) test -run '^$$' -bench '^BenchmarkRunOne$$' -benchtime=20x -benchmem ./internal/campaign

bench-json:
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/benchjson ./tools/benchjson
	: > $(BUILD)/bench.txt
	for r in $$(seq 5); do ($(BENCH_SUITE)) >> $(BUILD)/bench.txt || exit 1; done
	$(BUILD)/benchjson < $(BUILD)/bench.txt > $(BUILD)/BENCH_$(PR).json
	@echo "wrote $(BUILD)/BENCH_$(PR).json"

# bench-diff: the perf-trajectory consumer (ROADMAP). Diffs the current
# suite against the committed previous-PR artifact and fails on a >25%
# ns/op or any allocs/op regression. PRs that intentionally change
# performance run `make bench-baseline` and commit the result.
#
# With BASE=<git ref> the other side is that ref, measured in the same
# run: the host's speed drifts by tens of percent over minutes, so a
# baseline committed at another time (or on another machine) can hide a
# regression of that size. The ref is checked out as a detached git
# worktree under $(BUILD)/, and the suite runs five times on each side as
# in bench-json, alternating sides and flipping which goes first every
# round; both sides are rendered min-of-N by benchjson and diffed by the
# same benchdiff gate. Five rounds, not three: on a 2-vCPU host a 3-round
# min-of-N of BenchmarkEngineThroughput still swung by 25%. The worktree is
# removed on exit, failures included.
BENCH_BASELINE := perf/BENCH_baseline.json
BASE ?=
BENCH_WORKTREE := $(BUILD)/bench-base
bench-diff: $(if $(BASE),,bench-json)
	@mkdir -p $(BUILD)
	$(GO) build -o $(BUILD)/benchdiff ./tools/benchdiff
ifeq ($(BASE),)
	$(BUILD)/benchdiff $(BENCH_BASELINE) $(BUILD)/BENCH_$(PR).json
else
	$(GO) build -o $(BUILD)/benchjson ./tools/benchjson
	@set -e; wt=$(BENCH_WORKTREE); \
	git worktree remove --force $$wt 2>/dev/null || true; \
	git worktree add --detach $$wt $(BASE); \
	trap "git worktree remove --force $$wt" EXIT; \
	: > $(BUILD)/bench-base.txt; : > $(BUILD)/bench.txt; \
	for r in $$(seq 5); do \
		if [ $$((r % 2)) -eq 1 ]; then order="base tree"; else order="tree base"; fi; \
		for side in $$order; do \
			echo "bench-diff: round $$r/5, $$side"; \
			if [ $$side = base ]; then \
				(cd $$wt && $(BENCH_SUITE)) >> $(BUILD)/bench-base.txt; \
			else \
				($(BENCH_SUITE)) >> $(BUILD)/bench.txt; \
			fi; \
		done; \
	done; \
	$(BUILD)/benchjson < $(BUILD)/bench-base.txt > $(BUILD)/BENCH_base.json; \
	$(BUILD)/benchjson < $(BUILD)/bench.txt > $(BUILD)/BENCH_$(PR).json; \
	$(BUILD)/benchdiff $(BUILD)/BENCH_base.json $(BUILD)/BENCH_$(PR).json
endif

# bench-baseline commits, per benchmark, the median of three bench-json
# runs rather than one run: the host's speed moves in phases of minutes,
# and on a shared 2-vCPU host one run read BenchmarkEngineThroughput at
# 42.7k ns/op against a usual 60-75k. A baseline drawn in such a phase
# fails later runs of unchanged code.
bench-baseline:
	for r in 1 2 3; do $(MAKE) --no-print-directory bench-json PR=baseline-$$r || exit 1; done
	$(BUILD)/benchjson $(foreach r,1 2 3,$(BUILD)/BENCH_baseline-$(r).json) > $(BENCH_BASELINE)
	@echo "refreshed $(BENCH_BASELINE) — commit it with the perf change"

# perfbench-test: perfbench is a Go module of its own (perfbench/go.mod,
# `replace repro => ../`), so the root vet, build and test never compile
# it — yet it is the benchmark that accepts or rejects a change, and a
# refactor of an API it calls would break it silently.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# perfbench-smoke: the benchmark end to end, as it judges a change — each
# workload BENCHMARK.json gates runs once through perfbench/run.sh
# (--seed 1 --seconds 1 --trace 0), and any run whose result line is not
# "correct":true with "failed":0 fails the target. perfbench-test only
# compiles and unit-tests the harness; this boots the daemons, streams
# every job and checks each byte. A run is retried once only when its
# kept daemon logs show perfbench's known boot-time port collision.
perfbench-smoke:
	bash tools/perfbench-smoke.sh

clean:
	rm -rf $(BUILD)
