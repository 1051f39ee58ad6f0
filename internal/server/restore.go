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
// written by this server, so that is corruption, not input error.
func (s *Server) Restore() (resumed int, err error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	logs, err := journal.Replay(s.cfg.Journal.Dir())
	if err != nil {
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

	if lg.State != "" {
		// Terminal: fold the journaled records back into the aggregates and
		// keep the emitted lines as the replayable archive. The job is not
		// published yet, so folding needs no lock.
		j.state = lg.State
		j.errMsg = lg.ErrMsg
		for _, ack := range lg.Acks {
			rec, _, err := j.decode(ack.Record)
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
