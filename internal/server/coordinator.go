package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/faultpoint"
	"repro/internal/hostobs"
	"repro/internal/sweep"
)

// Fleet coordination. A Server with Config.Backends set simulates nothing
// itself: it accepts the same spec API, splits each job's grid into one
// cost-balanced sub-shard per configured backend (sweep.Shard.Slice weighs
// grid points by simulated work, so backends finish together), POSTs the
// spec with ?shard=i/n&mode=stream to each, and merges the shard streams
// back through sweep.MergeLines — producing the exact byte stream a
// single-node run of the same spec would have, which is what the chaos
// gate checks.
// Membership is decided at dispatch: a draining backend refuses the submit
// with 503 and a dead one refuses the connection, and either way the
// dispatch rotation moves that shard whole to the next backend.
//
// The merge is only a record source: it orders lines by the grid index
// each leads with and checks nothing else of them. Each merged line goes
// to the same deliver step as a locally computed record (server.go):
// decoded first, for the fold only (the nested windows, cores and
// firewalls arrays, most of a recovery record's bytes, are skipped), so
// that one decode is the line's one check and refuses a torn, mistyped or
// misindexed backend line before any byte of it reaches the client; then
// written and flushed to the client, acked to the journal verbatim, folded
// into the aggregates and archived — so /aggregates, /events, records
// counts and journal replay behave on a coordinator exactly as on a single
// node. A coordinator serves no per-run traces: it runs no simulation, so
// it rejects ?trace=N at submit.
//
// The design is goroutine-free (keeping the determinism lint clean): each
// backend stream is dispatched sequentially — cheap, because handleStream
// flushes response headers before running, so the dispatch returns as soon
// as the backend accepts — and the concurrency lives server-side in the
// backends. The merge then consumes the live bodies, holding at most one
// line per shard and passing each line on as soon as it is next in grid
// order, without waiting on the other shards. That bound is also the
// fleet's backpressure: a slow coordinator client stalls the merge, which
// stops reading backend streams, which stalls backend emission through
// their own credit gates.
//
// Failover is byte-offset resume: every backend stream is wrapped in a
// fleetStream that counts consumed bytes; when a backend dies mid-stream
// (read error — a clean EOF means the shard completed), the shard is
// re-dispatched to the next backend that takes it and the replacement
// stream's first `consumed` bytes are discarded. Skipping by byte count is
// sound for exactly one reason: shard streams are byte-identical across
// backends, the repo-wide determinism contract.

// runFleet is a coordinator's record source: it fans the job's grid across
// the configured backends and hands each merged line to deliver. Called
// from run() when Backends is set.
func (s *Server) runFleet(ctx context.Context, j *Job, deliver func(record) error) error {
	backends := s.cfg.Backends
	// One sub-shard per configured backend, never more shards than grid
	// points. A job submitted to the coordinator with its own ?shard=i/n
	// is already one slice of a larger partition, so it is forwarded whole
	// to a single backend (failover still applies).
	var shards []sweep.Shard
	if j.shard.Count > 1 {
		shards = []sweep.Shard{j.shard}
	} else {
		n := min(len(backends), j.gridSize())
		for i := 0; i < n; i++ {
			shards = append(shards, sweep.Shard{Index: i, Count: n})
		}
	}

	streams := make([]io.Reader, len(shards))
	closers := make([]io.Closer, 0, len(shards))
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i, sh := range shards {
		fs := &fleetStream{
			s: s, j: j, ctx: ctx, body: j.body, shard: sh.String(), workers: j.workers,
			backends: backends, next: i % len(backends),
		}
		// Dispatch now, sequentially: header-flushing backends make this
		// return as soon as the shard is accepted, so dispatch latency is
		// one round-trip per backend, not one grid slice.
		if err := fs.dispatch(); err != nil {
			return err
		}
		streams[i] = fs
		closers = append(closers, fs)
	}
	return sweep.MergeLines(streams, func(index int, line []byte) error {
		return deliver(record{index: index, line: line})
	})
}

// fleetStream is one sub-shard's merged input: a live backend response
// body with transparent re-dispatch. Read never surfaces a mid-stream
// backend death; it fails only when every backend has refused the shard.
type fleetStream struct {
	s        *Server
	j        *Job
	ctx      context.Context
	body     []byte
	shard    string
	workers  int
	backends []string
	next     int // rotation cursor into backends
	cur      io.ReadCloser
	consumed int64
}

func (f *fleetStream) Read(p []byte) (int, error) {
	for {
		n, err := f.cur.Read(p)
		f.consumed += int64(n)
		if err == nil || err == io.EOF {
			// A clean EOF is a completed shard: the backend's handler
			// returned normally and closed the chunked body properly. A
			// killed backend tears the connection instead, which is the
			// error branch below.
			return n, err
		}
		if f.ctx.Err() != nil {
			return n, err // our own client went away; no failover
		}
		f.cur.Close()
		f.s.coordFailovers.Add(1)
		h := f.s.cfg.Host
		h.Warn("backend failover", hostobs.Fields{Job: f.j.id, Trace: f.j.traceID,
			Err: err.Error(), Detail: fmt.Sprintf("shard %s died after %d bytes; re-dispatching", f.shard, f.consumed)})
		failStart := h.NowNanos()
		if derr := f.dispatch(); derr != nil {
			return n, derr
		}
		h.Span("failover", failStart, hostobs.Fields{Trace: f.j.traceID, Job: f.j.id,
			Err: err.Error(), Detail: "shard " + f.shard})
		if n > 0 {
			return n, nil
		}
	}
}

func (f *fleetStream) Close() error {
	if f.cur != nil {
		return f.cur.Close()
	}
	return nil
}

// dispatch submits the shard to the next backend in rotation that will
// take it, then fast-forwards the replacement stream past the bytes the
// merge already consumed (byte-identity makes the skip exact). Each
// refusal counts as a coordinator retry; when the rotation is exhausted
// the job fails.
func (f *fleetStream) dispatch() error {
	h := f.s.cfg.Host
	var lastErr error
	for try := 0; try < len(f.backends); try++ {
		backend := f.backends[f.next%len(f.backends)]
		f.next++
		dispStart := h.NowNanos()
		body, err := f.dispatchTo(backend)
		if err != nil {
			lastErr = fmt.Errorf("fleet: %s: %w", backend, err)
			f.s.coordRetries.Add(1)
			h.Warn("dispatch refused", hostobs.Fields{Job: f.j.id, Trace: f.j.traceID,
				Backend: backend, Err: err.Error(), Detail: "shard " + f.shard})
			continue
		}
		if f.consumed > 0 {
			if _, err := io.CopyN(io.Discard, body, f.consumed); err != nil {
				body.Close()
				lastErr = fmt.Errorf("fleet: %s: replaying %d consumed bytes: %w", backend, f.consumed, err)
				f.s.coordRetries.Add(1)
				continue
			}
		}
		f.cur = body
		f.s.coordDispatches.Add(1)
		h.Span("dispatch", dispStart, hostobs.Fields{Trace: f.j.traceID, Job: f.j.id,
			Backend: backend, Detail: "shard " + f.shard})
		h.Info("shard dispatched", hostobs.Fields{Job: f.j.id, Trace: f.j.traceID,
			Backend: backend, Detail: "shard " + f.shard})
		return nil
	}
	return fmt.Errorf("fleet: shard %s: every backend refused: %w", f.shard, lastErr)
}

// dispatchTo POSTs the spec as a shard job on one backend and opens its
// stream. The armed "coord.dispatch" faultpoint injects dispatch failures
// here — upstream of any backend I/O — to exercise the rotation.
func (f *fleetStream) dispatchTo(backend string) (io.ReadCloser, error) {
	if err := faultpoint.Hit("coord.dispatch"); err != nil {
		return nil, err
	}
	q := url.Values{"shard": {f.shard}, "mode": {"stream"}, "workers": {fmt.Sprint(f.workers)}}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodPost,
		backend+"/api/v1/jobs?"+q.Encode(), bytes.NewReader(f.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the fleet-wide trace ID: the backend's job adopts it, so
	// its execute/retry/journal-fsync spans stitch into the coordinator's
	// trace document.
	req.Header.Set(traceHeader, f.j.traceID)
	resp, err := f.s.cfg.FleetClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	sreq, err := http.NewRequestWithContext(f.ctx, http.MethodGet, backend+st.StreamURL, nil)
	if err != nil {
		return nil, err
	}
	sresp, err := f.s.cfg.FleetClient.Do(sreq)
	if err != nil {
		return nil, err
	}
	if sresp.StatusCode != http.StatusOK {
		sresp.Body.Close()
		return nil, fmt.Errorf("stream: status %d", sresp.StatusCode)
	}
	return sresp.Body, nil
}

// Backends reports the coordinator's configured backend list (empty on a
// single-node daemon).
func (s *Server) Backends() []string { return s.cfg.Backends }
