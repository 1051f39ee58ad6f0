// Package repro is a full reproduction of Cotret et al., "Distributed
// security for communications and memories in a multiprocessor
// architecture" (RAW 2011 / IPDPS Workshops, DOI 10.1109/IPDPS.2011.158).
//
// The module path is "repro" (see go.mod); it builds with the standard
// toolchain and no external dependencies: go build ./... && go test ./...
// (or simply `make verify`).
//
// The paper's platform is rebuilt as a deterministic cycle-level MPSoC
// simulator (internal/sim, bus, mem, isa, cpu, ip), the contribution —
// distributed Local Firewalls plus a Local Ciphering Firewall for external
// memory — lives in internal/core on top of from-scratch AES-128
// (internal/aes) and a Merkle integrity engine (internal/hashtree), and the
// evaluation is pinned by TestPaperGolden (paper_test.go), which renders
// it into testdata/paper.golden and fails on any byte difference: Tables I
// and II, the per-zone access costs, Figure 1, each platform's bill of
// materials, the quantified versions of the paper's prose claims
// (experiments E1–E6), four ablations and the `make attack` detection
// matrix. README.md walks through the command-line tools, the campaign
// service and the verified properties; each renderer's comment in
// paper_test.go states the paper artifact or claim it regenerates.
//
// # Simulation hot path
//
// The engine keeps its pending events in one small binary heap ordered by
// (cycle, schedule sequence), so same-cycle events fire in schedule order
// by construction, and it ticks only the tickers that are due: cores, the
// bus and the DMA engine tell it when they wake and sleep (internal/sim's
// package comment states the rules). Hot components (CPU cores, the DMA
// engine, the bus completion path and the Local Firewalls) schedule
// through pre-bound callbacks and reuse their transaction buffers, so
// steady-state simulation performs zero heap allocations per cycle;
// BenchmarkEngineThroughput -benchmem tracks both the cycle rate and the
// allocation count, BenchmarkEngineSecureThroughput does the same for a
// stall-heavy platform whose quiescent cycles the engine skips (see
// below), and BenchmarkEngineMixedThroughput for one busy core beside two
// stalled ones.
//
// # Host speed vs simulated cycles
//
// Two clocks run through this codebase and they never mix. Simulated time
// is produced exclusively by timing descriptors and counters: the Table II
// calibrations (aes.Timing for the CC, hashtree.DefaultTiming for the IC,
// the Security Builder's CheckCycles) applied to *operation counts* — how
// many blocks crossed the CC, how many node hashes the IC performed. Host
// time is whatever the Go implementation costs to compute the same
// functional result. The secured off-chip path is where the distinction
// earns its keep: the crypto stack under the Local Ciphering Firewall
// (AES-128 on the CPU's AES instructions where it has them and T-table
// code elsewhere, with stack-resident key schedules, a keyless zero-
// allocation Davies–Meyer compression, slice-indexed verified-node cache,
// pooled covering transactions in the LCF) is optimized for host speed
// only. It cannot change any reported latency, because every reported
// cycle derives from descriptor x count and the rewrite changes neither
// the descriptors nor the counts — which is what lets the determinism gate
// demand byte-identical sweep output across such optimizations while
// BenchmarkSecureMemoryThroughput tracks the host-side number (bytes/s and
// allocs/op through the full SB + DDR + CC + IC pipeline, with
// sim-cycles/op reported alongside as the invariant).
//
// The same rule lets the engine skip quiescent cycles. A core stalled on a
// secured word waits ~1,050-1,100 cycles for the LCF pipeline, and on
// external-memory campaigns 97.6% of all core cycles are such stalls.
// Cores, the bus and the DMA engine tell the engine when they are due;
// when none is and no event is due either, Run and RunUntil jump the clock
// to the next event, due cycle or budget end. A core counts its cycles and
// stall cycles as intervals opened and closed on its own transitions, so
// a skipped cycle needs no credit. internal/campaign's equivalence test
// runs every scenario x protection x background point, with and without
// staged recovery, both skipping and on the per-cycle reference, which
// ticks every ticker on every cycle, and requires
// byte-identical records and traces. On a 2-vCPU Xeon @ 2.1 GHz the
// stall-heavy BenchmarkEngineSecureThroughput went from 40-54 to 9.5-13
// µs per 1000 simulated cycles (99% of them elided),
// BenchmarkEngineThroughput (busy cores, nothing to skip) stayed at parity
// (medians of 30 alternating runs: 85.1 vs 87.4 µs), and a traced
// perfbench campaign-secmem run went from 66.3 to 25.8 host ns per
// simulated cycle (36.0 to 18.4 ms per record).
//
// The same rule lets a platform be built at close to copy cost. Each
// campaign record boots a pair of platforms, and the LCF of each
// distributed one seals external memory at boot. Enciphering a CM zone is
// a pure function of (zone base, key, plaintext) and building the hash
// tree one of (data base, data bytes, version tags), so core.CipherFirewall
// and hashtree.Tree each keep a small per-process memo keyed by the
// complete input, compared byte for byte; a hit installs the remembered
// ciphertext or node array in the new platform's store and the
// remembered root. The cores' decoded-instruction
// caches grow with the highest word fetched instead of spanning the whole
// local memory, and the AES-128 key schedule that every Davies–Meyer step
// re-expands runs as ten rounds over four words, with the two fixed-IV
// schedules expanded once. No simulated cycle moves: the determinism,
// trace and attack gates are byte-identical across the change, while a
// distributed soc.NewPair went from 5.2-6.1 to 0.22-0.32 ms of work
// outside the collector (BenchmarkPlatformBuild) and perfbench
// campaign-secmem from 127 to 196 records/s (medians of 10 alternating
// pairs). A seal the memo misses costs less than before too: 2.64 to
// 1.95 ms (BenchmarkSealCold).
//
// The same rule lets a grid point allocate only the memory its run
// writes. mem.Store allocates 4 KiB pages on first write: a page never
// written reads as zeros, reads never allocate, and a Poke or Fill of
// zeros into an unwritten page leaves it unallocated, so a distributed
// pair allocates 48 pages at boot (its sealed zones and tree nodes) and an
// unprotected or centralized pair none; a snapshot (the replay attack's)
// holds only the allocated pages. The Integrity Core
// copies leaf data and node digests into stack arrays (Store.PeekInto),
// and the seal and build memos compare their keys with the store in
// place (Store.Equal). core.AlertLog keeps the attacked half's alerts in
// chunks that never move, and Since reports a count and the first alert
// instead of copying the log's tail. No simulated cycle moves, and the
// same gates are byte-identical across the change; a distributed
// soc.NewPair went from 1.76 MB to 370 KB, and perfbench campaign-secmem
// from 3,079 to 651 KB allocated per record and from 182 to 221
// records/s (medians of 10 alternating pairs).
//
// The same rule lets the crypto itself run on the host's AES
// instructions. Every block the CC enciphers and every Davies–Meyer step
// of the IC is a real AES, a quarter of a campaign record's CPU in
// software. On amd64 CPUs with AES-NI and SSSE3 (CPUID, checked once at
// init) internal/aes runs the block paths on AESENC/AESDEC over the same
// word-order key schedules and fuses the IC's step into one kernel,
// aes.DaviesMeyer, that expands its key as the rounds run; every other
// CPU and GOARCH runs the FIPS-197 T-table code, which is also the
// reference the differential test and the FuzzCipherKernels fuzz target
// compare both paths against, with crypto/aes. No simulated cycle moves;
// a chained Davies–Meyer step went from 131.5 to 39.1 ns and perfbench
// campaign-secmem from 246.5 to 303.7 records/s (medians of 10
// alternating pairs, 10/10 won), fleet-recovery from 171.7 to 189.1.
//
// The same rule lets a run share what it only reads. mem.Store pages are
// copy-on-write: Store.Restore installs a mem.Image's pages shared, and a
// page shared with an image is never written in place — a store copies it
// first. The seal and build memos keep images of the sealed zones and the
// node array, so every platform of a process reads one set of sealed
// pages until it writes one, and Snapshot shares the store's pages.
// core.AlertLog stores each alert as a 32-byte entry without pointers,
// its names interned in a table the log owns, and hands subscribers a
// pointer instead of a copy. No simulated cycle moves; a distributed
// soc.NewPair went from 316 to 131 KB, perfbench campaign-secmem from
// 456 to 254 KB allocated per record and fleet-recovery from 1,008 to
// 618 (medians of 10 alternating pairs, 10/10 won on each).
//
// # Scenario sweeps
//
// internal/sweep runs grids of independent platform configurations
// (protection x workload x target x core count) across a worker pool — one
// engine per goroutine, no shared mutable state — and streams one JSON
// object per completed run (aggregate, per-core and per-firewall stats,
// snapshotted through core.Snapshotter) through an index-ordered reorder
// buffer, so the stream is byte-identical across repeated runs and worker
// counts without ever buffering the whole report. Grids shard
// deterministically across processes (-shard i/n) and sweep.Merge
// recombines shard streams into exactly the unsharded bytes; a CSV exporter
// emits the same data in long form for plotting:
//
//	mpsocsim -sweep                                   # default grid, JSONL to stdout
//	mpsocsim -sweep -format csv -sweep-out report.csv
//	mpsocsim -sweep -shard 0/2 -sweep-out s0.jsonl    # half the grid
//	mpsocsim -sweep -merge s0.jsonl,s1.jsonl          # == the unsharded stream
//
// # Attack campaigns
//
// internal/attack implements the paper's §III threat model as injectable
// scenarios — separate build / inject / verdict phases — and
// internal/campaign turns them into a sweep axis: scenario x protection x
// core-count x background-workload grids where each run streams benign
// traffic on the non-attacker cores, fires the attack at a deterministic
// cycle, and emits a containment record (detected / contained / violation
// class / detect latency / which firewall caught it) with the same
// per-core and per-firewall snapshots as the benign sweep. Every run is a
// twin run (soc.Pair): an identical attack-free platform executes the same
// background load, so the background's slowdown attributes the bystander
// cost of the attack, in one Record schema for every scenario.
// campaign.RunOne is the one path every attack runs through, including
// the quiet points (background "none") that fire an attack on an
// otherwise idle platform:
//
//	mpsocsim -attack -format table                 # the paper's detection matrix
//	mpsocsim -attack -trace c.json                 # Chrome trace of every run (Perfetto)
//	mpsocsim -attack -shard 0/2 ... ; -merge ...   # sharded exactly like -sweep
//	make attack                                    # one-command repro
//
// Campaign streams ride the same generic pipeline (sweep.Stream) and
// reorder buffer as benign sweeps — byte-identical across worker counts
// and across shard/merge — and shards slice the grid cost-aware
// (protection-weighted), so multi-process runs balance wall-clock even
// though centralized grid points are ~3x slower.
//
// Backgrounds span both sides of the trust boundary: stream/mix/memcopy
// run in internal BRAM, while secure-stream and secure-scrub run in the
// CM+IM zone and cipher-mix in the CM-only zone of the external DDR — so
// benign traffic and attack traffic contend inside the LCF's CC/IC
// pipeline, which is the regime the paper's overhead discussion is about.
//
// # Reaction and recovery — the incident lifecycle
//
// The paper's stated perspective is "reconfiguration of security services
// (i.e. modification of security policies) to counter some attacks". The
// reconfiguration itself is core.Reactor: a master that accumulates
// violations past a budget has its policy rewritten to deny-all at its
// own interface (its *legal* traffic included — a hijacked IP's allowed
// zones are exfiltration and congestion surface too), reversibly, with
// every transition cycle-stamped. internal/recovery turns that mechanism
// into a measured third campaign phase: a deterministic supervisor
// releases the quarantined master after a clear delay — in one step, or
// staged, re-admitting only the integrity-monitored memory zones first
// with zero-tolerance probation — while the attacked platform and its
// twin advance through lockstep sampling windows that trace background
// throughput around the incident. Each record then prices the whole
// lifecycle: detect latency (inject -> first alert), react latency (first
// alert -> deny-all written), quarantine duration, bystander cost while
// quarantined, and recovery time back to within epsilon of the twin's
// throughput (mpsocsim -attack -recovery; the -format table output adds
// the reaction & recovery matrix, and -trace renders the same lifecycle
// as a cycle-exact Chrome trace). The burst-flood scenario is the designed
// demonstration: violations interleaved with authorized bus-hogging
// stores, so detection without reaction (the centralized baseline) leaves
// bystanders starved while quarantine contains the whole interface and
// the background provably recovers.
//
// # Verified properties
//
// The security argument is proved over a bounded model, not only tested:
// internal/modelcheck exhaustively enumerates (breadth-first, no SMT, no
// dependencies) every interleaving of access attempts, alerts,
// quarantines, releases, staged releases and probation violations that a
// small platform built from the real core.ConfigMemory + core.Reactor
// code can exhibit, and asserts in every reachable state that (a) no
// unauthorized transfer is granted while quarantine semantics hold, (b) a
// quarantined or probationed master never regains full access without an
// explicit Release, (c) a staged master that violates is re-quarantined
// within the same incident, and (d) the violation history never exceeds
// Threshold. Violations surface as minimal counterexample traces,
// replayable as Go tests (mpsocsim -modelcheck, `make modelcheck`). The
// companion gate, tools/staticcheck, is a go/types-based determinism lint
// over internal/...: map iteration feeding program order, wallclock or
// math/rand in the simulation stack, and goroutine spawns outside the
// sweep worker pool all fail the build unless justified, one line each,
// in tools/staticcheck/allowlist.txt. Known gaps the proof does not close
// are listed in README.md ("Known gaps"); the first is the
// hashtree.UpdateLeaf uncached-sibling fold, reproduced by a skipped
// regression test in internal/hashtree.
//
// # The spec API and the campaign service
//
// Every sweep and campaign the repo can run is described by one
// versioned JSON value, internal/spec.Spec: the axis lists (scenarios,
// protections, workloads, cores, backgrounds), the shared per-run
// parameters, and the optional recovery block. The spec is the API —
// mpsocsim compiles its axis flags into a Spec (-dump-spec prints it,
// -spec file.json loads one with explicitly-passed flags as overrides),
// and cmd/mpsocd accepts the identical JSON over HTTP
// (POST /api/v1/jobs). Bad specs fail validation with field paths
// ("campaign.scenarios[2]: unknown scenario"), returned as a 400 rather
// than killing the daemon. internal/server schedules every job's grid
// points through one bounded worker pool and streams records as JSONL
// through the same credit-gated reorder pipeline as the CLI, so
// backpressure is structural: a slow client stalls only its own job at a
// bounded buffer, and a disconnect cancels the job's shard workers via
// the request context. internal/agg folds each record into online
// aggregates (detection/containment rates, react-latency and
// recovery-time percentiles from log-bucketed histograms) served per job
// at /aggregates — deterministic snapshots, byte-identical to an offline
// recomputation over the streamed records.
//
// # Fault tolerance
//
// The byte-identity contract is also the recovery strategy: because
// re-running any slice of a job reproduces its exact bytes, every
// recovery path re-dispatches work instead of reconciling results.
// internal/journal is an append-only, fsync-on-commit job log (accepted
// spec, per-shard ack lines, terminal state; torn tails discarded on
// replay by the classic WAL rule) — `mpsocd -journal DIR` replays it on
// boot, re-serves finished jobs from their archived lines and resumes
// interrupted ones by recomputing only the unacked shards, emitting the
// journaled lines verbatim. Shard execution retries with bounded
// exponential backoff whose jitter is a hash of (job, shard, attempt) —
// deterministic, no math/rand — and quarantines a persistently-failing
// shard as an explicit poison record after -retry-max attempts rather
// than failing the job. `mpsocd -coordinator -backends a,b,c` serves the
// same spec API as a fleet front: one cost-balanced ?shard=i/n slice per
// configured backend, merged via sweep.MergeLines into the single-node
// byte stream, each line passed on as soon as it is next in grid order. A
// draining backend refuses the submit with 503 and the dispatch rotation
// moves its shard to the next backend; mid-stream backend death is
// handled by re-dispatching the shard and fast-forwarding past the
// already-merged bytes. Merged lines and locally computed records reach
// the client through one delivery step (write, flush, journal ack,
// aggregate fold, archive), so a journaled coordinator acks, archives and
// replays exactly like a single node. That step checks each merged line
// once: the merge reads only its leading grid index, and one decode,
// before the write, checks the whole line and reads what the fold needs,
// without the nested windows, cores and firewalls arrays (checked to be
// arrays, most of a recovery record's ~33 KB); a torn or mistyped line, or
// one whose index is not the one it was merged at, fails the job before
// any byte of it reaches the client. The journal splices the line into
// its ack entry verbatim, unchecked and in a reused buffer. Restore
// refuses a job whose acks are not its grid points in stream order.
// internal/faultpoint supplies the named, env-armed crash/error/stall sites
// (MPSOCD_FAULTPOINTS=journal.ack=crash@5) threaded through the journal,
// the shard executor and the coordinator; disarmed they cost one atomic
// load. `make chaos`
// (tools/chaos) is the gate: it crashes a real daemon at the worst
// commit point and kills a real fleet backend mid-stream, then requires
// the recovered streams to byte-match uninterrupted runs — with
// non-vacuity checks (exit 137, stderr crash markers, resume/failover
// counters) so silently-disabled recovery cannot pass.
//
// # Observability
//
// internal/obs is the deterministic observability layer: a bounded,
// nil-safe event tracer wired into the incident lifecycle (denies,
// alerts, quarantine/staged-release/probation/release transitions, halt
// cycles, throughput windows, harvested incident spans), timestamped in
// sim cycles and exported as Chrome trace_event JSON for Perfetto
// (mpsocsim -trace, one process per grid point; campaign traces are
// byte-identical across worker counts, gated by make trace-determinism).
// The disabled tracer is a nil pointer — one branch, zero allocations,
// pinned by AllocsPerRun tests — so the engine hot path pays nothing
// when tracing is off. On the service side, mpsocd serves a
// dependency-free live dashboard at /, a per-job server-sent-event feed
// (/events: state transitions plus partial aggregate snapshots every N
// records, bounded non-blocking fan-out so a stalled dashboard can never
// stall a job), per-job Chrome traces (?trace=N at submit, /trace to
// fetch; a coordinator runs no simulation, so it serves no per-run
// traces and rejects ?trace=N), and Prometheus text exposition on
// /metrics via content negotiation — both renderings from one registry
// struct, kept in sync by a reflection test.
//
// internal/hostobs is the wall-clock counterpart for operating the
// daemons themselves, strictly off the result path: structured log/slog
// logging on stderr with a canonical field set (node, job, shard,
// attempt, backend, trace, err, detail) threaded through the job
// lifecycle, journal replay and the coordinator; a bounded wall-clock
// span ring exported as a cross-node Chrome trace document
// (/api/v1/jobs/{id}/hosttrace — the coordinator mints a trace ID per
// job, propagates it via the X-Mpsoc-Trace header, and merges its own
// spans with every dispatched backend's); per-job host resource accounting
// (exec nanoseconds, allocs, bytes streamed, records/s) as a sibling
// field in status and aggregates; net/http/pprof plus runtime/metrics
// on a separate -debug-addr listener; and a crash flight recorder — a
// fixed event ring dumped to <journal-dir>/flight-<pid>.json by the
// faultpoint crash hook and served live at /debug/flightrecorder. The
// clock is injected (the daemon passes time.Now at the edge), a nil
// host is a zero-allocation no-op pinned by AllocsPerRun, and the
// host-import staticcheck rule keeps the sim stack from importing any
// of it; every byte-identity gate runs with it enabled.
//
// The CI workflow (.github/workflows/ci.yml) runs `make verify` plus the
// proof gates above (`make modelcheck`, `make staticcheck`) and a
// determinism gate (`make determinism`) that fails on any byte difference
// across worker counts or shard/merge recombination — for the benign
// sweep, the attack campaign, and the recovery-enabled campaign in its
// hardest (probation-flap) regime — and regenerates the detection matrix
// (`make attack`, the testdata/attack.json grid that TestPaperGolden
// pins) as a smoke run. `make serve-determinism` extends the
// byte-identity contract across transports: the same spec run via flags,
// via -spec, and via HTTP submission at several worker counts must
// produce identical JSONL, and the service's online /aggregates must
// equal an offline recomputation over those bytes; `make
// trace-determinism` holds the traced campaign's Chrome JSON to the same
// worker-count invariance, and `make chaos` extends it through failure:
// crash-resumed and fleet-failover streams must byte-match uninterrupted
// single-node runs. `make bench-json` renders the benchmark
// suite as build/BENCH_<pr>.json (name -> ns/op, allocs/op, custom
// metrics), uploaded as a CI artifact per run; `make bench-diff`
// (tools/benchdiff, run by CI) fails the build on a >25% ns/op or any
// allocs/op regression against the committed perf/BENCH_baseline.json.
package repro
