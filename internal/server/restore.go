package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hostobs"
	"repro/internal/journal"
	"repro/internal/spec"
)

// Restore rebuilds the job table from the configured journal — the boot
// step of a crash-safe daemon. Terminal jobs come back queryable: their
// aggregates are re-folded from the journaled records, and done jobs keep
// a stream archive so clients can re-read the byte-identical output.
// Interrupted jobs come back pending with a resume map (grid index -> the
// exact journaled record line); running them re-emits those lines verbatim
// and recomputes only the unacked shards, which reproduces the
// uninterrupted stream byte-for-byte because runs are deterministic.
// Interrupted aggregate-mode jobs restart detached immediately; stream-mode
// jobs wait for a client to claim the stream again.
//
// Restore returns the number of interrupted jobs resumed. A journal entry
// that no longer parses as a valid spec fails Restore — the journal was
// written by this server, so that is corruption, not input error — and so
// does a job whose acks are not its grid points in stream order (see
// checkAcks).
func (s *Server) Restore() (resumed int, err error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	logs, err := journal.Replay(s.cfg.Journal.Dir())
	if err != nil {
		return 0, err
	}
	if logs, err = s.retain(logs); err != nil {
		return 0, err
	}
	sum := &ReplaySummary{}
	var pending []*Job
	for _, lg := range logs {
		j, err := s.rebuild(lg)
		if err != nil {
			return resumed, fmt.Errorf("restore %s: %w", lg.ID, err)
		}
		s.linesDiscarded.Add(uint64(lg.Discarded))
		sum.JobsRestored++
		sum.RecordsRestored += len(lg.Acks)
		sum.LinesDiscarded += lg.Discarded

		s.mu.Lock()
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		// Keep fresh submissions from colliding with restored ids.
		if n, perr := strconv.Atoi(strings.TrimPrefix(j.id, "job-")); perr == nil && n > s.nextID {
			s.nextID = n
		}
		s.mu.Unlock()

		if j.state == StatePending {
			resumed++
			s.jobsResumed.Add(1)
			sum.JobsResumed++
			pending = append(pending, j)
		}
	}
	s.mu.Lock()
	s.replay = sum
	s.mu.Unlock()
	// The one structured startup summary: everything replay decided, in a
	// single line, before any resumed job starts producing events.
	s.cfg.Host.Info("journal replay complete", hostobs.Fields{
		Detail: fmt.Sprintf("jobs_restored=%d jobs_resumed=%d records_restored=%d lines_discarded=%d",
			sum.JobsRestored, sum.JobsResumed, sum.RecordsRestored, sum.LinesDiscarded)})
	for _, j := range pending {
		if j.mode == "aggregate" {
			s.startDetached(j)
		}
	}
	return resumed, nil
}

// retain keeps at most MaxJobs of the replayed logs: beyond that it drops
// the oldest finished jobs first, then the oldest interrupted ones, and
// deletes their journal files, as a full table's submit evicts a job.
func (s *Server) retain(logs []journal.JobLog) ([]journal.JobLog, error) {
	excess := len(logs) - s.cfg.MaxJobs
	if excess <= 0 {
		return logs, nil
	}
	drop := make([]bool, len(logs))
	for _, finished := range []bool{true, false} {
		for i, lg := range logs {
			if excess > 0 && !drop[i] && (lg.State != "") == finished {
				drop[i] = true
				excess--
			}
		}
	}
	kept := logs[:0]
	for i, lg := range logs {
		if !drop[i] {
			kept = append(kept, lg)
		} else if err := s.cfg.Journal.Remove(lg.ID); err != nil {
			return nil, err
		}
	}
	return kept, nil
}

// rebuild reconstructs one job from its journal log.
func (s *Server) rebuild(lg journal.JobLog) (*Job, error) {
	sp, err := spec.Parse(lg.Spec)
	if err != nil {
		return nil, err
	}
	j, err := s.newJob(sp, lg.Spec, lg.Opts)
	if err != nil {
		return nil, err
	}
	// traceLimit stays zero: trace buffers are in-memory only and do not
	// survive a restart (the journal deliberately does not persist them).
	j.id, j.journaled, j.traceID = lg.ID, true, "t-"+lg.ID
	if err := j.checkAcks(lg); err != nil {
		return nil, err
	}

	if lg.State != "" {
		// Terminal: fold the journaled records back into the aggregates and
		// keep the emitted lines as the replayable archive. The job is not
		// published yet, so folding needs no lock.
		j.state = lg.State
		j.errMsg = lg.ErrMsg
		for _, ack := range lg.Acks {
			rec, err := j.decode(ack.Record, ack.Index)
			if err != nil {
				return nil, err
			}
			j.foldLocked(record{rec: rec})
			j.records++
			j.archive = append(j.archive, ack.Record)
		}
		return j, nil
	}

	// Interrupted: pending with every acked shard staged for verbatim
	// re-emission. Aggregates rebuild as the resumed run re-emits.
	j.resume = make(map[int][]byte, len(lg.Acks))
	for _, ack := range lg.Acks {
		j.resume[ack.Index] = ack.Record
	}
	return j, nil
}

// checkAcks refuses a log whose acks are not the job's grid points in the
// order its stream emits them. deliver acks each point as it streams it,
// and a resumed run acks only the points after the ones it re-emits, so
// every life's acks continue a prefix of the shard's slice; a done job
// acked all of it. Anything else would archive or resume a stream that no
// run wrote.
func (j *Job) checkAcks(lg journal.JobLog) error {
	want := j.shard.Slice(j.gridSize(), j.weights())
	for k, ack := range lg.Acks {
		if k >= len(want) {
			return fmt.Errorf("ack %d is grid index %d, past the %d points of shard %s", k, ack.Index, len(want), j.shard)
		}
		if ack.Index != want[k] {
			return fmt.Errorf("ack %d is grid index %d, want %d (acks follow the grid order of shard %s)", k, ack.Index, want[k], j.shard)
		}
	}
	if lg.State == StateDone && len(lg.Acks) < len(want) {
		return fmt.Errorf("done after %d of %d acks: grid index %d was never acked", len(lg.Acks), len(want), want[len(lg.Acks)])
	}
	return nil
}
