// Package server implements mpsocd, the long-running campaign service:
// one spec API shared with the CLI. Clients POST a versioned JSON spec
// (internal/spec) to create a job, then GET the job's stream to run it —
// the grid executes inside the stream handler's goroutine through the same
// credit-gated reorder pipeline as mpsocsim, so the JSONL bytes are
// identical to a direct CLI run with the same spec, across worker counts.
//
// Every record leaves its job through one path, deliver. A job has two
// record sources: the local worker pool (computed grid points and, after a
// restart, the journaled lines of acked points) or, on a fleet
// coordinator, sweep.MergeLines over the backend streams. Both hand each
// record to deliver in grid order, which decodes a given line, writes and
// flushes its line, then acks it to the journal, folds it into the
// aggregates, archives it, accounts its host bytes and publishes the
// /events snapshot — so a job behaves the same whichever source fed it.
//
// Backpressure falls out of that structure rather than being bolted on: a
// slow client blocks its ResponseWriter, which stalls emission, which
// stops credits returning to the dispatcher, so at most 2x workers
// records are ever buffered per job. A disconnect cancels the request
// context, which stops dispatch and drains in-flight shard workers.
// Aggregates (detection/containment rates, react-latency and
// recovery-time percentiles) fold in online per job (internal/agg) and
// stay available after the stream finishes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/campaign"
	"repro/internal/hostobs"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// maxSpecBytes bounds the request body: specs are axis lists plus a few
// scalars; anything near this limit is not a spec.
const maxSpecBytes = 1 << 20

// Job lifecycle states.
const (
	StatePending  = "pending"  // submitted, stream not yet claimed
	StateRunning  = "running"  // grid executing
	StateDone     = "done"     // every grid point streamed
	StateFailed   = "failed"   // a sink or runner error ended the job
	StateCanceled = "canceled" // client disconnect or server shutdown
)

// Config parameterizes the service.
type Config struct {
	// Workers bounds simultaneous simulation runs across ALL jobs (the
	// global pool); per-job worker counts are capped by it. Defaults to
	// GOMAXPROCS.
	Workers int
	// MaxJobs bounds retained jobs. A submit to a full table evicts the
	// oldest finished job (done, failed or canceled) and, on a journaled
	// server, deletes its journal file, so a restart cannot bring it
	// back; it is refused with 429 only while every retained job is
	// still pending or running. Restore keeps at most MaxJobs jobs,
	// dropping the oldest finished ones first. Defaults to 1024.
	MaxJobs int
	// SnapshotEvery is the /events cadence: a partial aggregate snapshot
	// is published to subscribers every N records. Record counts, not
	// timers — the service stays wall-clock free. Defaults to 256.
	SnapshotEvery int
	// Journal, when non-nil, makes jobs durable: accepted specs, per-shard
	// completion acks and terminal states are fsync'd to it, and Restore
	// rebuilds the job table from it after a restart, resuming interrupted
	// jobs by re-dispatching only unacked shards.
	Journal *journal.Journal
	// RetryMax bounds attempts per shard before it is poisoned (emitted as
	// an error record without failing the job). Defaults to DefaultRetryMax.
	RetryMax int
	// RetryBase and RetryCap bound the exponential backoff between shard
	// attempts (deterministic jitter; see Backoff). Defaults
	// DefaultRetryBase / DefaultRetryCap.
	RetryBase time.Duration
	RetryCap  time.Duration
	// ShardTimeout is the per-attempt deadline. It preempts stalled
	// injectable work (faultpoints); the simulation itself is bounded
	// deterministically by the spec's max_cycles. Zero means no deadline.
	ShardTimeout time.Duration
	// Sleep is the backoff sleep, injectable so tests run instantly.
	// Defaults to time.Sleep.
	Sleep func(time.Duration)
	// Backends, when non-empty, turns the server into a fleet coordinator:
	// jobs are not simulated locally but fanned out as ?shard=i/n streams
	// across the listed backend base URLs and k-way merged back
	// (byte-identically, via sweep.MergeLines). See coordinator.go.
	Backends []string
	// FleetClient is the coordinator's HTTP client (injectable for tests).
	// Defaults to http.DefaultClient.
	FleetClient *http.Client
	// Host is the node's host-observability layer: structured logs to
	// stderr, wall-clock spans, the flight recorder. nil disables all of
	// it — the disabled path costs zero allocations (hostobs methods are
	// nil-receiver-safe no-ops) and nothing host-time-dependent exists,
	// which is the configuration every determinism test runs with.
	Host *hostobs.Host
	// Build identifies the binary for the build_info metric. The zero
	// value renders as revision "unknown".
	Build hostobs.BuildInfo
}

// maxTraceLimit caps the per-run event buffer a client may request with
// ?trace=N, bounding per-job trace memory.
const maxTraceLimit = 1 << 20

// traceHeader carries the fleet-wide host trace ID from the coordinator
// to its backends, so every node's spans land in one trace document.
const traceHeader = "X-Mpsoc-Trace"

// sseBuf is the per-subscriber channel depth. A subscriber that falls
// further behind than this loses messages (counted in the sse_dropped
// metric) rather than stalling the job: sends never block.
const sseBuf = 16

// sseMsg is one server-sent event.
type sseMsg struct {
	event string
	data  []byte
}

// subscriber is one /events client. Kept in a slice, not a map, so
// publish order is deterministic and the lint stays clean.
type subscriber struct {
	id int
	ch chan sseMsg
}

// runTrace is one traced run retained for /trace, in emit (= grid) order.
type runTrace struct {
	pid  int
	name string
	tr   *obs.Tracer
}

// Job is one submitted spec and its execution state.
type Job struct {
	id      string
	spec    *spec.Spec
	shard   sweep.Shard
	workers int

	// Exactly one grid is non-nil, matching spec.Kind.
	campaignGrid []campaign.Config
	sweepGrid    []sweep.Config

	// traceLimit > 0 makes every run carry a bounded tracer (?trace=N).
	traceLimit int

	// mode is the submit mode (stream or aggregate), retained for the
	// journal and for resuming after a restart.
	mode string
	// body is the raw spec body, retained so a coordinator can re-POST it
	// to backends (dispatch and failover both need the exact bytes).
	body []byte
	// journaled marks jobs recorded in the server's journal.
	journaled bool
	// resume maps grid index -> the exact record line journaled before a
	// restart. Populated only by Restore, read-only afterwards: a resumed
	// run emits these bytes verbatim instead of recomputing the shard.
	resume map[int][]byte
	// archive collects every emitted record line (journaled jobs only), in
	// emission order, so a terminal job's stream can be replayed — by a
	// client that reconnects after a daemon restart, or by the chaos gate
	// comparing resumed output against an uninterrupted run.
	archive [][]byte

	// h mirrors Config.Host (nil when host observability is off) and
	// traceID is the job's fleet-wide trace: minted by the first node
	// that accepts the spec, adopted from the X-Mpsoc-Trace header when
	// a coordinator dispatched it, so spans recorded on different nodes
	// stitch into one document.
	h       *hostobs.Host
	traceID string

	mu      sync.Mutex
	state   string
	errMsg  string
	records uint64
	camp    agg.Campaign
	swp     agg.Sweep
	traces  []runTrace
	subs    []*subscriber
	nextSub int
	// Host resource accounting (hostobs-enabled nodes only): wall-clock
	// nanoseconds executing this job's shards, heap objects allocated
	// during them, record bytes streamed, and the first/last stream
	// timestamps that records/s derives from.
	hostExecNanos int64
	hostAllocs    uint64
	hostBytes     uint64
	hostFirst     int64
	hostLast      int64
	// shardErrs carries poisoned shards' last attempt errors into job
	// status (shards[i].last_error) and the terminal SSE event.
	shardErrs []ShardInfo
}

// gridSize is the job's total grid point count (whole grid, pre-shard).
func (j *Job) gridSize() int {
	if j.campaignGrid != nil {
		return len(j.campaignGrid)
	}
	return len(j.sweepGrid)
}

// Server is the campaign service. Create with New; serve via Handler.
type Server struct {
	cfg Config

	// pool is the global worker semaphore; busy counts held slots (the
	// "shards in flight" metric).
	pool chan struct{}
	busy atomic.Int64

	recordsComputed atomic.Uint64
	recordsStreamed atomic.Uint64

	sseSubs      atomic.Int64
	sseDropped   atomic.Uint64
	traceEmitted atomic.Uint64
	traceDropped atomic.Uint64

	// Robustness counters: shard attempts retried, shards poisoned after
	// RetryMax attempts, and the journal resume trail.
	shardRetries   atomic.Uint64
	shardsPoisoned atomic.Uint64
	jobsResumed    atomic.Uint64
	recordsResumed atomic.Uint64
	linesDiscarded atomic.Uint64

	// Coordinator counters (zero on single-node daemons): shard streams
	// dispatched to backends, dispatch retries, and shards re-dispatched
	// away from a dead or draining backend.
	coordDispatches atomic.Uint64
	coordRetries    atomic.Uint64
	coordFailovers  atomic.Uint64

	// Host resource counters (zero unless Config.Host is set): totals of
	// the per-job accounting.
	hostExecNanos atomic.Uint64
	hostAllocs    atomic.Uint64
	hostBytes     atomic.Uint64

	// draining flips /healthz and submits to 503 once shutdown begins so
	// routers stop sending work; jobs canceled while draining skip the
	// terminal journal entry and stay resumable.
	draining atomic.Bool

	// baseCtx parents detached (aggregate-mode) jobs so Close cancels
	// them; detached tracks them so Close can wait.
	baseCtx  context.Context
	cancel   context.CancelFunc
	detached sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order: deterministic listings, no map-range
	nextID int
	// replay is the startup summary Restore built from the journal (nil
	// until Restore runs); /healthz includes it as detail.
	replay *ReplaySummary
}

// New builds a Server. The zero Config selects defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = DefaultRetryCap
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.FleetClient == nil {
		cfg.FleetClient = http.DefaultClient
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		pool:    make(chan struct{}, cfg.Workers),
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
	}
}

// Close cancels detached jobs and waits for them to drain. Streaming jobs
// are owned by their HTTP handlers; http.Server.Shutdown waits for those.
func (s *Server) Close() {
	s.cancel()
	s.detached.Wait()
}

// Handler returns the service's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/aggregates", s.handleAggregates)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/jobs/{id}/hosttrace", s.handleHostTrace)
	mux.HandleFunc("GET /api/v1/hostspans", s.handleHostSpans)
	if s.cfg.Host != nil {
		mux.HandleFunc("GET /debug/flightrecorder", s.cfg.Host.ServeFlight)
	}
	return mux
}

// errorBody is the JSON error envelope. Fields carries spec field paths
// for validation failures, so a bad spec is a 400 naming the exact axis
// entry at fault — never a daemon death.
type errorBody struct {
	Error  string             `json:"error"`
	Fields []*spec.FieldError `json:"fields,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// Status is the serialized job state.
type Status struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	GridSize int    `json:"grid_size"`
	Shard    string `json:"shard"`
	Workers  int    `json:"workers"`
	Records  uint64 `json:"records"`
	Error    string `json:"error,omitempty"`

	// TraceID is the fleet-wide host trace ID (hostobs-enabled nodes
	// only); Shards carries poisoned shards' last attempt errors (sorted
	// by index, present whenever any shard was poisoned); Host is the
	// node's resource accounting for this job.
	TraceID string      `json:"trace_id,omitempty"`
	Shards  []ShardInfo `json:"shards,omitempty"`
	Host    *HostUsage  `json:"host,omitempty"`

	StreamURL     string `json:"stream_url"`
	AggregatesURL string `json:"aggregates_url"`
	EventsURL     string `json:"events_url"`
	TraceURL      string `json:"trace_url,omitempty"`
	HostTraceURL  string `json:"hosttrace_url,omitempty"`
}

// ShardInfo is one poisoned shard's terminal record in job status: the
// grid index, how many attempts it burned, and the last attempt's error.
type ShardInfo struct {
	Index     int    `json:"index"`
	Attempts  int    `json:"attempts"`
	LastError string `json:"last_error"`
}

// HostUsage is per-job host resource accounting (hostobs-enabled nodes
// only): wall-clock shard execution time, heap objects allocated during
// shard execution, record bytes streamed, and streaming throughput.
type HostUsage struct {
	ExecNanos     int64   `json:"exec_nanos"`
	Allocs        uint64  `json:"allocs"`
	BytesStreamed uint64  `json:"bytes_streamed"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// statusLocked builds the Status; j.mu must be held.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:            j.id,
		Kind:          j.spec.Kind,
		State:         j.state,
		GridSize:      j.gridSize(),
		Shard:         j.shard.String(),
		Workers:       j.workers,
		Records:       j.records,
		Error:         j.errMsg,
		StreamURL:     "/api/v1/jobs/" + j.id + "/stream",
		AggregatesURL: "/api/v1/jobs/" + j.id + "/aggregates",
		EventsURL:     "/api/v1/jobs/" + j.id + "/events",
	}
	if j.traceLimit > 0 {
		st.TraceURL = "/api/v1/jobs/" + j.id + "/trace"
	}
	if len(j.shardErrs) > 0 {
		st.Shards = append([]ShardInfo(nil), j.shardErrs...)
		sort.Slice(st.Shards, func(a, b int) bool { return st.Shards[a].Index < st.Shards[b].Index })
	}
	if j.h != nil {
		st.TraceID = j.traceID
		st.HostTraceURL = "/api/v1/jobs/" + j.id + "/hosttrace"
		st.Host = j.hostUsageLocked()
	}
	return st
}

// hostUsageLocked snapshots the job's host accounting; j.mu must be held.
func (j *Job) hostUsageLocked() *HostUsage {
	u := &HostUsage{ExecNanos: j.hostExecNanos, Allocs: j.hostAllocs, BytesStreamed: j.hostBytes}
	if j.records > 0 && j.hostLast > j.hostFirst {
		u.RecordsPerSec = float64(j.records) / (float64(j.hostLast-j.hostFirst) / 1e9)
	}
	return u
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// handleSubmit creates a job from a spec body. Query parameters:
// workers=N (capped at the server pool), shard=i/n (run one slice of the
// grid, for fleet-split campaigns), mode=stream|aggregate (aggregate
// starts the run immediately with a discarded stream — the
// millions-of-runs shape where only /aggregates matters), trace=N (keep
// per-run traces of a campaign; a coordinator, which runs no simulation,
// rejects it).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A draining daemon takes no new work. A coordinator learns this from
	// the refusal itself and rotates the shard to its next backend.
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading spec: "+err.Error())
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		var verr *spec.ValidationError
		if errors.As(err, &verr) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid spec", Fields: verr.Fields})
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	q := r.URL.Query()
	opts := journal.SubmitOpts{Shard: q.Get("shard"), Mode: q.Get("mode")}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("workers=%q: want a positive integer", v))
			return
		}
		opts.Workers = n
	}
	if m := opts.Mode; m != "" && m != "stream" && m != "aggregate" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("mode=%q: want stream or aggregate", m))
		return
	}
	traceLimit := 0
	if v := q.Get("trace"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("trace=%q: want a positive event limit", v))
			return
		}
		if sp.Kind != spec.KindCampaign {
			httpError(w, http.StatusBadRequest, "trace=N applies to campaign jobs only (sweeps have no incident timeline)")
			return
		}
		if len(s.cfg.Backends) > 0 {
			httpError(w, http.StatusBadRequest,
				"trace=N is not served by a coordinator (it runs no simulation; submit traced jobs to a backend)")
			return
		}
		traceLimit = min(n, maxTraceLimit)
	}
	j, err := s.newJob(sp, body, opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j.traceLimit = traceLimit

	s.mu.Lock()
	var evicted *Job
	if len(s.order) >= s.cfg.MaxJobs {
		if evicted = s.oldestFinishedLocked(); evicted == nil {
			s.mu.Unlock()
			httpError(w, http.StatusTooManyRequests,
				fmt.Sprintf("job table full (%d jobs retained, none finished)", s.cfg.MaxJobs))
			return
		}
		s.removeLocked(evicted.id)
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%04d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	if evicted != nil && evicted.journaled {
		// The job is gone from the table either way; a log left behind
		// comes back at the next Restore, which keeps MaxJobs at most.
		if err := s.cfg.Journal.Remove(evicted.id); err != nil {
			s.cfg.Host.Warn("evicted job's journal kept", hostobs.Fields{Job: evicted.id, Err: err.Error()})
		}
	}
	// Adopt the coordinator's trace ID when this submit is a dispatched
	// shard; mint one otherwise, so every job's spans stitch fleet-wide.
	if j.traceID = r.Header.Get(traceHeader); j.traceID == "" {
		j.traceID = "t-" + j.id
	}

	// Durability point: once Accept returns, a crash anywhere after this
	// line leaves a journal from which Restore rebuilds (and resumes) the
	// job. A journal that cannot commit the accept refuses the job — the
	// client must never hold a job id the journal would forget.
	if s.cfg.Journal != nil {
		opts := journal.SubmitOpts{Workers: j.workers, Shard: j.shard.String(), Mode: j.mode}
		if err := s.cfg.Journal.Accept(j.id, body, opts); err != nil {
			s.unregister(j.id)
			httpError(w, http.StatusServiceUnavailable, "journal: "+err.Error())
			return
		}
		j.journaled = true
	}

	if h := s.cfg.Host; h != nil {
		h.Info("job accepted", hostobs.Fields{Job: j.id, Trace: j.traceID,
			Detail: fmt.Sprintf("kind=%s grid=%d shard=%s workers=%d mode=%s", sp.Kind, j.gridSize(), j.shard, j.workers, j.mode)})
	}
	if j.mode == "aggregate" {
		s.startDetached(j)
	}
	writeJSON(w, http.StatusCreated, j.status())
}

// newJob builds a pending job from a parsed spec and its submit options:
// the one constructor behind a submit and a journal rebuild. It caps the
// worker count at the pool (zero takes the whole pool), defaults the mode
// to stream and builds the grid, so the spec's semantic reach (unknown
// scenario names and the like) is a submit-time error, not a stream-time
// failure.
func (s *Server) newJob(sp *spec.Spec, body []byte, opts journal.SubmitOpts) (*Job, error) {
	sh, err := sweep.ParseShard(opts.Shard)
	if err == nil {
		err = sh.Validate()
	}
	if err != nil {
		return nil, err
	}
	workers := s.cfg.Workers
	if opts.Workers > 0 {
		workers = min(opts.Workers, workers)
	}
	mode := opts.Mode
	if mode == "" {
		mode = "stream"
	}
	j := &Job{spec: sp, shard: sh, workers: workers, state: StatePending, mode: mode, body: body, h: s.cfg.Host}
	switch sp.Kind {
	case spec.KindSweep:
		j.sweepGrid, err = sp.Sweep.Grid()
	case spec.KindCampaign:
		j.campaignGrid, err = sp.Campaign.Grid()
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// unregister removes a job that failed to become durable.
func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
}

// removeLocked drops a job from the table. The caller holds s.mu.
func (s *Server) removeLocked(id string) {
	delete(s.jobs, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// oldestFinishedLocked returns the oldest retained job in a terminal
// state, or nil when every job is still pending or running. The caller
// holds s.mu; a job's state is read under its own lock, which finish
// holds until the terminal state is journaled.
func (s *Server) oldestFinishedLocked() *Job {
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == StateDone || st == StateFailed || st == StateCanceled {
			return j
		}
	}
	return nil
}

// startDetached claims the job and runs it in the background against a
// discarded sink; only the online aggregates are observable. The job is
// freshly created and unpublished to no other runner, so the claim cannot
// race a stream handler.
func (s *Server) startDetached(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	s.publishLocked(j, "state", mustJSON(j.statusLocked()))
	j.mu.Unlock()
	j.h.Info("job started", hostobs.Fields{Job: j.id, Trace: j.traceID, Detail: "mode=aggregate (detached)"})
	s.detached.Add(1)
	go func() {
		defer s.detached.Done()
		err := s.run(s.baseCtx, j, io.Discard, nil)
		s.finish(j, s.baseCtx, err)
	}()
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	statuses := make([]Status, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.status()
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleStream claims a pending job and executes its grid in this
// handler's goroutine, streaming JSONL as runs complete. The client's
// read pace is the pipeline's emission pace (credit-gated, bounded
// buffering); closing the connection cancels the request context, which
// stops dispatch and drains the in-flight workers.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.state != StatePending {
		// A journaled job that already finished can be re-streamed: every
		// record line it emitted is in the archive, so a client that lost
		// its connection (or reconnects after a daemon restart) reads the
		// byte-identical stream back. Unjournaled jobs keep the original
		// contract: one stream, then 409.
		if j.state == StateDone && j.journaled && j.archive != nil {
			archive := j.archive // append-only and complete once done
			j.mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			var buf []byte
			for _, line := range archive {
				// Copy before adding the newline: an archived line may have
				// spare capacity, shared by every client re-streaming the job.
				buf = append(append(buf[:0], line...), '\n')
				if _, err := w.Write(buf); err != nil {
					return
				}
				s.recordsStreamed.Add(1)
			}
			return
		}
		state := j.state
		j.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; a job streams once", j.id, state))
		return
	}
	j.state = StateRunning
	s.publishLocked(j, "state", mustJSON(j.statusLocked()))
	j.mu.Unlock()
	j.h.Info("stream claimed", hostobs.Fields{Job: j.id, Trace: j.traceID})

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Push the headers out now: the fleet coordinator dispatches every
	// shard stream before merging, and an unflushed header would make it
	// wait for the first record of each backend in turn.
	rc.Flush()
	err := s.run(r.Context(), j, w, rc)
	s.finish(j, r.Context(), err)
}

// clientStallNanos is the client-stall warning threshold: a record write
// and flush blocking longer than this gets a structured warn, because a
// stalled client stalls its job's whole pipeline — on a coordinator, every
// backend behind it.
const clientStallNanos = int64(100 * time.Millisecond)

// record is one grid point on its way to the client. The local worker
// pool yields a computed record (rec, with its tracer when traced) or,
// after a restart, the line journaled for that point; a coordinator's
// merge yields each backend line. deliver takes all of them. index is the
// point's grid index, which a given line must carry as its own.
type record struct {
	index int
	rec   any // campaign.Record or sweep.RunResult; nil for a given line
	tr    *obs.Tracer
	line  []byte // a given line, without its newline
}

// run executes the job. Its records come from the local worker pool —
// the sweep pipeline, the exact path mpsocsim takes, which is what the
// byte-identity gate checks — or, on a coordinator, from the merged
// backend streams; either way they reach deliver in grid order. Each
// computed point holds a global pool slot, so total simulation
// concurrency respects Config.Workers no matter how many jobs stream at
// once.
func (s *Server) run(ctx context.Context, j *Job, w io.Writer, rc *http.ResponseController) error {
	deliver := func(r record) error { return s.deliver(j, w, rc, r) }
	if len(s.cfg.Backends) > 0 {
		return s.runFleet(ctx, j, deliver)
	}
	return sweep.StreamContext(ctx, j.gridSize(), j.shard, j.weights(), j.workers,
		func(i int) record {
			if line, ok := j.resume[i]; ok {
				s.recordsResumed.Add(1)
				return record{index: i, line: line}
			}
			s.pool <- struct{}{}
			s.busy.Add(1)
			defer func() {
				s.busy.Add(-1)
				<-s.pool
			}()
			return s.compute(ctx, j, i)
		}, deliver)
}

// compute runs grid point i under the shard retry policy. A poisoned
// shard yields an error record that holds its grid slot, so the stream
// stays gap-free and the job survives.
func (s *Server) compute(ctx context.Context, j *Job, i int) record {
	defer s.recordsComputed.Add(1)
	if j.campaignGrid != nil {
		// Campaign runs always flow through the traced runner; an untraced
		// job passes nil tracers, which cost nothing (campaign.RunOneTrace
		// attaches no subscriptions for them).
		tr := obs.New(j.traceLimit)
		var rec campaign.Record
		if err := s.executeShard(ctx, j, i, func() {
			rec = campaign.RunOneTrace(j.campaignGrid[i], tr)
		}); err != nil {
			rec = campaign.Record{Name: j.campaignGrid[i].Name(), Err: "shard poisoned: " + err.Error()}
			tr = nil
		}
		rec.Index = i
		return record{index: i, rec: rec, tr: tr}
	}
	var rec sweep.RunResult
	if err := s.executeShard(ctx, j, i, func() {
		rec = sweep.RunOne(j.sweepGrid[i])
	}); err != nil {
		rec = sweep.RunResult{Name: j.sweepGrid[i].Name(), Err: "shard poisoned: " + err.Error()}
	}
	rec.Index = i
	return record{index: i, rec: rec}
}

// deliver is the one path a record takes to the client, whatever its
// source. A computed record is marshaled. A given line is kept as is, but
// first decoded (decode skips its nested arrays): that decode is the
// line's one check, and a line it refuses — torn, mistyped, or
// carrying another grid index than the one it was given at — fails the
// job before any byte of it is written. The line is then written and
// flushed, so nothing after it delays the client; acked to the journal,
// verbatim and unchecked (it was marshaled or decoded), unless it was
// resumed; and the record is folded into the aggregates, archived,
// accounted as host bytes, published on the snapshot cadence and counted
// as streamed.
func (s *Server) deliver(j *Job, w io.Writer, rc *http.ResponseController, r record) error {
	var out []byte
	if r.rec != nil {
		data, err := json.Marshal(r.rec)
		if err != nil {
			return err
		}
		out = append(data, '\n')
	} else {
		var err error
		if r.rec, err = j.decode(r.line, r.index); err != nil {
			return err
		}
		// A copy: a merged line lives in the merge's reused buffer.
		out = append(append(make([]byte, 0, len(r.line)+1), r.line...), '\n')
	}
	line := out[:len(out)-1]
	h := j.h
	start := h.NowNanos()
	if _, err := w.Write(out); err != nil {
		return err
	}
	if rc != nil {
		if err := rc.Flush(); err != nil {
			return err
		}
	}
	if d := h.NowNanos() - start; d > clientStallNanos {
		h.Warn("client stall", hostobs.Fields{Job: j.id, Trace: j.traceID,
			Detail: "record write blocked " + time.Duration(d).String()})
	}
	// A resumed index was acked in a previous life; re-acking would be a
	// harmless duplicate (replay is idempotent) but is skipped to keep the
	// log minimal.
	if _, resumed := j.resume[r.index]; j.journaled && !resumed {
		if err := s.cfg.Journal.AckValid(j.id, r.index, line); err != nil {
			return err
		}
	}
	if r.tr != nil {
		s.traceEmitted.Add(r.tr.Emitted())
		s.traceDropped.Add(r.tr.Dropped())
	}
	j.mu.Lock()
	j.foldLocked(r)
	j.records++
	// Journaled jobs archive every emitted line (in emission order) so a
	// terminal job's stream can be replayed byte-identically — by a
	// reconnecting client or the chaos gate.
	if j.journaled {
		j.archive = append(j.archive, line)
	}
	if h != nil {
		now := h.NowNanos()
		j.hostBytes += uint64(len(out))
		if j.hostFirst == 0 {
			j.hostFirst = now
		}
		j.hostLast = now
		s.hostBytes.Add(uint64(len(out)))
	}
	// Partial aggregate snapshots fan out to /events subscribers every
	// SnapshotEvery records — a record count, not a timer, so cadence
	// is deterministic and the service stays wall-clock free.
	if len(j.subs) > 0 && j.records%uint64(s.cfg.SnapshotEvery) == 0 {
		s.publishLocked(j, "snapshot", mustJSON(j.aggregatesLocked()))
	}
	j.mu.Unlock()
	if w != io.Discard { // a detached job streams to no one
		s.recordsStreamed.Add(1)
	}
	return nil
}

// weights is the grid's per-point cost estimate, which balances shards.
func (j *Job) weights() []float64 {
	if j.campaignGrid != nil {
		return campaign.Weights(j.campaignGrid)
	}
	return sweep.Weights(j.sweepGrid)
}

// decode parses a given record line, the line of grid point index, into
// the job's record type for the fold. It is one json.Unmarshal, whose
// validity scan of the whole line is the only one the line gets: the
// merge that yielded it read only its leading index, and the journal acks
// it unchecked. It decodes every field except the nested per-window,
// per-core and per-firewall arrays, which the aggregates never read and
// which make up most of a recovery record's bytes: those are only checked
// to be arrays (or null) and come back nil. A line whose decoded index is
// not index is refused: the merge orders by the first "index" key, and
// encoding/json keeps the last one it matches. The line's bytes are what
// the client, the journal and the archive get; the decoded record only
// feeds foldLocked.
func (j *Job) decode(line []byte, index int) (rec any, err error) {
	var got int
	if j.campaignGrid != nil {
		var r foldedCampaign
		err = json.Unmarshal(line, &r)
		rec, got = r.Record, r.Index
	} else {
		var r foldedSweep
		err = json.Unmarshal(line, &r)
		rec, got = r.RunResult, r.Index
	}
	if err != nil {
		return nil, fmt.Errorf("decoding record: %w", err)
	}
	if got != index {
		return nil, fmt.Errorf("decoding record: grid point %d carries index %d", index, got)
	}
	return rec, nil
}

// foldedCampaign and foldedSweep are decode's targets: the record type,
// whose other fields decode as usual, with its nested arrays shadowed
// (a field of the outer struct wins over the embedded one of the same
// JSON name).
type foldedCampaign struct {
	campaign.Record
	Windows   skippedArray `json:"windows"`
	Cores     skippedArray `json:"cores"`
	Firewalls skippedArray `json:"firewalls"`
}

type foldedSweep struct {
	sweep.RunResult
	Cores     skippedArray `json:"cores"`
	Firewalls skippedArray `json:"firewalls"`
}

// skippedArray accepts a JSON array or null and keeps nothing of it.
// Anything else is a type error, to which encoding/json adds the name of
// the field.
type skippedArray struct{}

func (*skippedArray) UnmarshalJSON(data []byte) error {
	if data[0] == '[' || string(data) == "null" {
		return nil
	}
	return &json.UnmarshalTypeError{Value: fmt.Sprintf("%.20s", data), Type: reflect.TypeFor[[]any]()}
}

// foldLocked adds a record to the job's aggregates and, when it carries a
// tracer, its run to the job's trace; j.mu must be held.
func (j *Job) foldLocked(r record) {
	switch rec := r.rec.(type) {
	case campaign.Record:
		j.camp.Add(rec)
		if r.tr != nil {
			j.traces = append(j.traces, runTrace{pid: rec.Index + 1, name: rec.Name, tr: r.tr})
		}
	case sweep.RunResult:
		j.swp.Add(rec)
	}
}

// finish records the job's terminal state. A canceled context means the
// client went away (or the server is shutting down) — that is a canceled
// job, not a failed one, even when the surfaced error is a write error on
// the dead connection.
func (s *Server) finish(j *Job, ctx context.Context, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state = StateDone
	case ctx.Err() != nil:
		j.state = StateCanceled
		j.errMsg = context.Cause(ctx).Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	// Seal the journal — except for jobs canceled by a draining shutdown,
	// which are interruptions, not decisions: leaving their logs unsealed is
	// what makes the next life resume them.
	if j.journaled && !(j.state == StateCanceled && s.draining.Load()) {
		s.cfg.Journal.Term(j.id, j.state, j.errMsg)
	}
	if h := j.h; h != nil {
		f := hostobs.Fields{Job: j.id, Trace: j.traceID, Err: j.errMsg,
			Detail: fmt.Sprintf("records=%d", j.records)}
		switch j.state {
		case StateDone:
			h.Info("job done", f)
		case StateCanceled:
			h.Warn("job canceled", f)
		default:
			h.Error("job failed", f)
		}
	}
	// Terminal fan-out: the final aggregate snapshot, the terminal state,
	// then close every subscriber channel so /events handlers end their
	// streams. Later subscribers get an immediate replay instead.
	if len(j.subs) > 0 {
		snap := sseMsg{event: "snapshot", data: mustJSON(j.aggregatesLocked())}
		state := sseMsg{event: "state", data: mustJSON(j.statusLocked())}
		for _, sub := range j.subs {
			s.sendFinalLocked(sub.ch, snap)
			s.sendFinalLocked(sub.ch, state)
			close(sub.ch)
		}
		j.subs = nil
	}
}

// sendFinalLocked delivers one of a subscriber's closing messages even
// when its buffer is full, by dropping (and counting) the oldest queued
// message instead: a lagging feed may lose intermediate events, never its
// terminal snapshot and state. It never blocks: j.mu is held, so no other
// send can take the slot a drop frees.
func (s *Server) sendFinalLocked(ch chan sseMsg, m sseMsg) {
	for {
		select {
		case ch <- m:
			return
		default:
		}
		select {
		case <-ch:
			s.sseDropped.Add(1)
		default:
		}
	}
}

// publishLocked sends one event to every subscriber without ever blocking:
// a full channel drops the message and counts it. j.mu must be held.
func (s *Server) publishLocked(j *Job, event string, data []byte) {
	for _, sub := range j.subs {
		select {
		case sub.ch <- sseMsg{event: event, data: data}:
		default:
			s.sseDropped.Add(1)
		}
	}
}

// mustJSON marshals values whose types cannot fail to marshal.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"marshal failure"}`)
	}
	return data
}

// Aggregates is the /aggregates payload: job identity plus the online
// aggregate snapshot (agg.CampaignSnapshot or agg.SweepSnapshot).
type Aggregates struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Records uint64 `json:"records"`
	// Aggregates marshals the kind-specific snapshot; recomputing it
	// offline over the job's JSONL stream yields byte-identical JSON
	// (gated by make serve-determinism).
	Aggregates any `json:"aggregates"`
	// Host is the per-job host resource accounting (hostobs-enabled
	// nodes only). It rides next to — never inside — the Aggregates
	// field, which is the only part the serve-determinism gate compares,
	// so host timing can never leak into the byte-identity contract.
	Host *HostUsage `json:"host,omitempty"`
}

// aggregatesLocked builds the payload; j.mu must be held.
func (j *Job) aggregatesLocked() Aggregates {
	out := Aggregates{ID: j.id, State: j.state, Records: j.records}
	if j.h != nil {
		out.Host = j.hostUsageLocked()
	}
	if j.campaignGrid != nil {
		out.Aggregates = j.camp.Snapshot()
	} else {
		out.Aggregates = j.swp.Snapshot()
	}
	return out
}

func (s *Server) handleAggregates(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	out := j.aggregatesLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// terminal reports whether a state is a job's final one.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// handleEvents is the live job feed: a server-sent event stream carrying
// "state" events on every lifecycle transition and "snapshot" events (the
// /aggregates payload) every Config.SnapshotEvery records. Subscribing
// replays the current state and snapshot immediately; a terminal job's
// stream ends right after the replay. Sends to a slow subscriber drop
// rather than block, so a stalled dashboard can never stall a job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	j.mu.Lock()
	st := j.statusLocked()
	snap := j.aggregatesLocked()
	var ch chan sseMsg
	var id int
	if !terminal(st.State) {
		ch = make(chan sseMsg, sseBuf)
		j.nextSub++
		id = j.nextSub
		j.subs = append(j.subs, &subscriber{id: id, ch: ch})
	}
	j.mu.Unlock()

	writeSSE := func(event string, data []byte) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	if !writeSSE("state", mustJSON(st)) || !writeSSE("snapshot", mustJSON(snap)) {
		// fall through to unsubscribe below (ch may be registered)
	}
	if ch == nil {
		return
	}
	s.sseSubs.Add(1)
	defer s.sseSubs.Add(-1)
	defer func() {
		j.mu.Lock()
		for i, sub := range j.subs {
			if sub.id == id {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-ch:
			if !ok {
				return // job finished; terminal state already delivered
			}
			if !writeSSE(m.event, m.data) {
				return
			}
		}
	}
}

// handleTrace renders a traced job's runs as one Chrome trace_event JSON
// document — pid per run, in grid order. 404 unless the job was submitted
// with ?trace=N. Serving mid-run is fine: the document covers the runs
// emitted so far.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	limit := j.traceLimit
	traces := append([]runTrace(nil), j.traces...)
	j.mu.Unlock()
	if limit == 0 {
		httpError(w, http.StatusNotFound, fmt.Sprintf("job %s was not traced (submit with ?trace=N)", j.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	tw := obs.NewTraceWriter(w)
	for _, rt := range traces {
		if err := tw.Process(rt.pid, rt.name, rt.tr); err != nil {
			return // client went away mid-stream; nothing to salvage
		}
	}
	tw.Close()
}

// healthStatus is the /healthz body: the probe verdict plus, after a
// journaled restart, the replay summary (what Restore rebuilt).
type healthStatus struct {
	Status string         `json:"status"`
	Replay *ReplaySummary `json:"replay,omitempty"`
}

// handleHealthz is the readiness probe: 200 while accepting work, 503 once
// draining so load balancers stop routing new work here while in-flight
// streams finish. (A fleet coordinator does not probe: the draining
// daemon's submit refuses its shard.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	replay := s.replay
	s.mu.Unlock()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthStatus{Status: "draining", Replay: replay})
		return
	}
	writeJSON(w, http.StatusOK, healthStatus{Status: "ok", Replay: replay})
}

// handleLivez is the liveness probe: 200 until the process exits, draining
// or not — restarts are for dead processes, not draining ones.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// BeginDrain flips /healthz and new submits to 503. Call it before
// http.Server.Shutdown; jobs canceled after this point skip their terminal
// journal entry and stay resumable.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.cfg.Host.Warn("drain begun", hostobs.Fields{Detail: "healthz=503, submits refused; in-flight streams finishing"})
}

// Metrics is the one metrics registry: a single snapshot struct that both
// the JSON payload and the Prometheus text exposition (prom.go) render
// from, so the two views can never drift — the drift test counts this
// struct's numeric leaves against the Prometheus sample count.
type Metrics struct {
	Jobs struct {
		Pending  int `json:"pending"`
		Running  int `json:"running"`
		Done     int `json:"done"`
		Failed   int `json:"failed"`
		Canceled int `json:"canceled"`
	} `json:"jobs"`
	// ShardsInFlight is the number of grid points executing right now ==
	// held worker-pool slots.
	ShardsInFlight int64 `json:"shards_in_flight"`
	// RecordsComputed counts finished simulation runs; RecordsStreamed
	// counts records written to connected clients (detached jobs compute
	// without streaming). Computed can exceed streamed by at most the sum
	// of per-job reorder windows (2x workers each) plus detached work —
	// the backpressure bound.
	RecordsComputed uint64 `json:"records_computed"`
	RecordsStreamed uint64 `json:"records_streamed"`
	Workers         struct {
		Capacity    int     `json:"capacity"`
		Busy        int64   `json:"busy"`
		Utilization float64 `json:"utilization"`
	} `json:"workers"`
	// SSE covers the /events feeds: currently-connected subscribers and
	// messages dropped by the bounded non-blocking fan-out.
	SSE struct {
		Subscribers int64  `json:"subscribers"`
		Dropped     uint64 `json:"dropped"`
	} `json:"sse"`
	// Trace covers per-run incident tracers across traced jobs: events
	// emitted and events lost to per-run buffer bounds.
	Trace struct {
		EventsEmitted uint64 `json:"events_emitted"`
		EventsDropped uint64 `json:"events_dropped"`
	} `json:"trace"`
	// Shards covers the retry policy: attempts retried after a failure and
	// shards poisoned (emitted as error records) after RetryMax attempts.
	Shards struct {
		Retries  uint64 `json:"retries"`
		Poisoned uint64 `json:"poisoned"`
	} `json:"shards"`
	// Journal covers durability: committed appends, cumulative fsync time
	// (mean fsync latency = fsync_nanos_total / appends), jobs and records
	// resumed after a restart, and torn tail lines discarded by replay.
	Journal struct {
		Appends         uint64 `json:"appends"`
		FsyncNanosTotal uint64 `json:"fsync_nanos_total"`
		JobsResumed     uint64 `json:"jobs_resumed"`
		RecordsResumed  uint64 `json:"records_resumed"`
		LinesDiscarded  uint64 `json:"lines_discarded"`
	} `json:"journal"`
	// Coordinator covers fleet fan-out (zero on single-node daemons):
	// backend shard dispatches, dispatch retries, and failovers away from
	// dead or draining backends.
	Coordinator struct {
		Dispatches uint64 `json:"dispatches"`
		Retries    uint64 `json:"retries"`
		Failovers  uint64 `json:"failovers"`
	} `json:"coordinator"`
	// Host covers host resource accounting (zero unless the daemon runs
	// with host observability enabled): wall-clock shard execution time,
	// heap objects allocated during shard execution, record bytes
	// streamed to clients.
	Host struct {
		ExecNanosTotal     uint64 `json:"exec_nanos_total"`
		AllocsTotal        uint64 `json:"allocs_total"`
		BytesStreamedTotal uint64 `json:"bytes_streamed_total"`
	} `json:"host"`
	// Build identifies the binary: Info is the constant-1 gauge value
	// (Prometheus build_info convention); revision and dirty ride as
	// labels in the text exposition and as fields here.
	Build struct {
		Revision string `json:"revision"`
		Dirty    bool   `json:"dirty"`
		Info     int    `json:"info"`
	} `json:"build"`
}

// metricsSnapshot gathers the registry from the live counters.
func (s *Server) metricsSnapshot() Metrics {
	var m Metrics
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil { // evicted since the copy
			continue
		}
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case StatePending:
			m.Jobs.Pending++
		case StateRunning:
			m.Jobs.Running++
		case StateDone:
			m.Jobs.Done++
		case StateFailed:
			m.Jobs.Failed++
		case StateCanceled:
			m.Jobs.Canceled++
		}
	}
	m.ShardsInFlight = s.busy.Load()
	m.RecordsComputed = s.recordsComputed.Load()
	m.RecordsStreamed = s.recordsStreamed.Load()
	m.Workers.Capacity = s.cfg.Workers
	m.Workers.Busy = m.ShardsInFlight
	m.Workers.Utilization = float64(m.ShardsInFlight) / float64(s.cfg.Workers)
	m.SSE.Subscribers = s.sseSubs.Load()
	m.SSE.Dropped = s.sseDropped.Load()
	m.Trace.EventsEmitted = s.traceEmitted.Load()
	m.Trace.EventsDropped = s.traceDropped.Load()
	m.Shards.Retries = s.shardRetries.Load()
	m.Shards.Poisoned = s.shardsPoisoned.Load()
	if s.cfg.Journal != nil {
		m.Journal.Appends = s.cfg.Journal.Appends()
		m.Journal.FsyncNanosTotal = s.cfg.Journal.FsyncNanos()
	}
	m.Journal.JobsResumed = s.jobsResumed.Load()
	m.Journal.RecordsResumed = s.recordsResumed.Load()
	m.Journal.LinesDiscarded = s.linesDiscarded.Load()
	m.Coordinator.Dispatches = s.coordDispatches.Load()
	m.Coordinator.Retries = s.coordRetries.Load()
	m.Coordinator.Failovers = s.coordFailovers.Load()
	m.Host.ExecNanosTotal = s.hostExecNanos.Load()
	m.Host.AllocsTotal = s.hostAllocs.Load()
	m.Host.BytesStreamedTotal = s.hostBytes.Load()
	m.Build.Revision = s.cfg.Build.Revision
	if m.Build.Revision == "" {
		m.Build.Revision = "unknown"
	}
	m.Build.Dirty = s.cfg.Build.Dirty
	m.Build.Info = 1
	return m
}

// handleMetrics serves the registry. JSON by default (the original
// payload); the Prometheus text exposition with ?format=prometheus or an
// Accept header asking for text/plain or openmetrics (what scrapers send).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metricsSnapshot()
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	if format == "prometheus" ||
		(format == "" && (strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics"))) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		m.Prometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, m)
}
