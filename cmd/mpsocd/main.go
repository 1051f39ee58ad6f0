// Command mpsocd is the long-running campaign service: the mpsocsim
// simulation fleet behind an HTTP API. It accepts the same versioned JSON
// specs the CLI consumes (internal/spec), schedules grids across a
// bounded worker pool, and streams results as JSONL with backpressure —
// byte-identical to a direct mpsocsim run with the same spec. The root
// path serves a dependency-free live dashboard (job progress, containment
// rates, latency percentiles) fed by each job's /events SSE feed, and
// /metrics speaks both JSON and Prometheus text exposition.
//
//	mpsocd -addr :8080 -workers 8
//	open http://localhost:8080/                  # live dashboard
//	curl -X POST --data-binary @campaign.json localhost:8080/api/v1/jobs?trace=4096
//	curl localhost:8080/api/v1/jobs/job-0001/stream > records.jsonl
//	curl localhost:8080/api/v1/jobs/job-0001/aggregates
//	curl -N localhost:8080/api/v1/jobs/job-0001/events   # SSE: state + snapshots
//	curl localhost:8080/api/v1/jobs/job-0001/trace > trace.json  # open in Perfetto
//	curl localhost:8080/api/v1/jobs/job-0001/hosttrace > host.json  # wall-clock spans
//	curl -H 'Accept: text/plain' localhost:8080/metrics  # Prometheus exposition
//
// Host observability is always on and strictly off the result path:
// structured logs (log/slog, stderr only, level via -log-level), a
// bounded wall-clock span recorder served as a Chrome trace document at
// /api/v1/jobs/{id}/hosttrace, a crash flight recorder (live at
// /debug/flightrecorder, dumped to <journal>/flight-<pid>.json when a
// faultpoint kills the process), and — with -debug-addr — net/http/pprof
// plus runtime metrics on a separate listener. None of it ever touches
// stream bytes: the determinism gates run with all of it enabled.
//
//	mpsocd -addr :8080 -debug-addr :6060 -log-level debug
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=5
//	curl localhost:6060/debug/flightrecorder
//
// With -journal DIR the daemon is crash-safe: accepted specs, per-shard
// completion acks and terminal states are fsync'd to an append-only log,
// and a restarted daemon replays it, re-serving finished jobs and resuming
// interrupted ones by recomputing only the unacked shards — the resumed
// stream is byte-identical to an uninterrupted run (gated by make chaos).
//
//	mpsocd -addr :8080 -journal /var/lib/mpsocd/journal
//
// With -coordinator -backends a,b,c the daemon simulates nothing itself:
// it fans each job out as cost-balanced ?shard=i/n streams across the
// backends, moves a shard that a draining (503) or dead backend refuses to
// the next one, re-dispatches shards lost to a backend that dies
// mid-stream, and merges the results byte-identically to a single-node
// run, passing each line on as soon as it is next in grid order.
//
//	mpsocd -addr :9090 -coordinator -backends http://a:8080,http://b:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/hostobs"
	"repro/internal/journal"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "global worker-pool size (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", 0, "maximum retained jobs; a full table evicts the oldest finished one (0 = default 1024)")
	snapshotEvery := flag.Int("snapshot-every", 0, "/events snapshot cadence in records (0 = default 256)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight streams")
	journalDir := flag.String("journal", "", "journal directory for crash-safe jobs (empty = in-memory only)")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator (requires -backends)")
	backends := flag.String("backends", "", "comma-separated backend base URLs for -coordinator")
	retryMax := flag.Int("retry-max", 0, "attempts per shard before poisoning (0 = default 3)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard-attempt deadline (0 = none)")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof + runtime metrics + flight recorder (empty = off)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println("mpsocd", hostobs.Build().String())
		return
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpsocd:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers: *workers, MaxJobs: *maxJobs, SnapshotEvery: *snapshotEvery,
		RetryMax: *retryMax, ShardTimeout: *shardTimeout,
	}
	if *coordinator {
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				cfg.Backends = append(cfg.Backends, strings.TrimSuffix(b, "/"))
			}
		}
		if len(cfg.Backends) == 0 {
			fmt.Fprintln(os.Stderr, "mpsocd: -coordinator requires -backends url[,url...]")
			os.Exit(2)
		}
	}

	if err := run(*addr, *debugAddr, *journalDir, *drain, level, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mpsocd:", err)
		os.Exit(1)
	}
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
}

func run(addr, debugAddr, journalDir string, drain time.Duration, level slog.Level, cfg server.Config) error {
	// Deterministic fault injection, armed only via the environment: the
	// chaos gate sets MPSOCD_FAULTPOINTS to crash the daemon at exact
	// commit points. Disarmed, every faultpoint is a single atomic load.
	if err := faultpoint.ArmFromEnv(); err != nil {
		return err
	}

	// Host observability lives entirely at this edge: the wall clock and
	// stderr are injected here, never read inside the deterministic core.
	// Logs go to stderr only — stdout stays clean for piped JSONL. The
	// flight recorder dumps next to the journal so a post-mortem finds the
	// crash evidence and the surviving log in one place.
	role := "mpsocd"
	if len(cfg.Backends) > 0 {
		role = "mpsocd-coord"
	}
	host := hostobs.New(hostobs.Options{
		Node:      role + "@" + addr,
		NowNanos:  func() int64 { return time.Now().UnixNano() },
		LogWriter: os.Stderr,
		Level:     level,
		FlightDir: journalDir,
	})
	cfg.Host = host
	cfg.Build = hostobs.Build()

	// An injected kill becomes a readable post-mortem: the hook runs after
	// the faultpoint's stderr marker and before exit(137), so the dump is
	// the last durable act of the dying process.
	faultpoint.SetOnCrash(func(name string, hit uint64) {
		host.Error("faultpoint crash", hostobs.Fields{
			Err:    name,
			Detail: fmt.Sprintf("hit=%d exiting=137", hit),
		})
		if path, err := host.WriteFlight(); err == nil && path != "" {
			fmt.Fprintf(os.Stderr, "mpsocd: flight recorder dumped to %s\n", path)
		}
	})

	var jn *journal.Journal
	if journalDir != "" {
		var err error
		// The wall clock feeds only the fsync latency metric and host
		// spans, never output bytes — which is why it is injected here at
		// the edge instead of read inside the deterministic core.
		jn, err = journal.Open(journalDir, journal.Options{
			NowNanos: func() int64 { return time.Now().UnixNano() },
			Observe: func(op, jobID string, startNanos, durNanos int64) {
				host.Span("journal-fsync", startNanos, hostobs.Fields{Job: jobID, Detail: op})
			},
		})
		if err != nil {
			return err
		}
		defer jn.Close()
		cfg.Journal = jn
	}

	svc := server.New(cfg)
	if jn != nil {
		// Restore logs its own structured replay summary (also surfaced in
		// /healthz) before any resumed job starts emitting events.
		if _, err := svc.Restore(); err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
	}

	// Hardened listener: header read and idle deadlines plus a header size
	// cap, so a stalled or abusive client costs a connection, not the
	// daemon. Streams are exempt by construction — only header reads and
	// idle keep-alives are bounded, never response writes.
	srv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if debugAddr != "" {
		// pprof and the live flight recorder on their own listener, so the
		// profiling surface is never exposed on the service port. The port
		// is bound before anything is logged; one that cannot be bound is
		// logged as an error, and the daemon serves on without it.
		if ln, err := net.Listen("tcp", debugAddr); err != nil {
			host.Error("debug listener failed", hostobs.Fields{Detail: debugAddr, Err: err.Error()})
		} else {
			dbg := &http.Server{Handler: hostobs.DebugMux(host)}
			go func() { dbg.Serve(ln) }()
			defer dbg.Close()
			host.Info("debug listener up", hostobs.Fields{Detail: debugAddr})
		}
	}

	errc := make(chan error, 1)
	go func() {
		host.Info("listening", hostobs.Fields{Detail: fmt.Sprintf(
			"addr=%s role=%s journal=%q build=%s", addr, role, journalDir, cfg.Build.String())})
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: flip /healthz to 503 first so routers and coordinators stop
	// sending work (and so journaled jobs cut off mid-stream stay
	// resumable), then stop accepting, give in-flight streams the drain
	// window, then cancel detached jobs and wait for them.
	host.Info("shutdown signal received", hostobs.Fields{Detail: fmt.Sprintf("drain_window=%s", drain)})
	svc.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	svc.Close()
	if errors.Is(err, context.DeadlineExceeded) {
		// Streams outlasting the window are cut; their jobs end canceled —
		// or, when journaled, resume on the next boot.
		srv.Close()
	}
	host.Info("shutdown complete", hostobs.Fields{Err: errString(err)})
	return err
}

// errString renders an error for a log field, empty when nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
