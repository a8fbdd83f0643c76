package engine

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/obs"
)

// Checkpoint compacts the journal. It snapshots the whole queue — every
// job in submission order, the ID counter, the SSE sequence high-water
// marks and the completed generations of running ga_search jobs — and
// rewrites the journal as that snapshot frame followed by the records
// appended while the snapshot was taken. The queue compacts on Drain
// and, after a terminal transition, once the journal has grown past its
// threshold (see compactFloor). A queue without a journal has nothing
// to compact.
func (q *Queue) Checkpoint() error {
	if q.opts.Journal == nil {
		return nil
	}
	// One compaction at a time: a mark is an offset into the file the
	// journal has open, and a concurrent compaction would swap it.
	q.compactMu.Lock()
	defer q.compactMu.Unlock()
	mark := q.opts.Journal.mark()
	snap := JournalRecord{T: recSnapshot}
	q.mu.Lock()
	snap.NextID = q.nextID
	snap.Jobs = make([]Job, 0, len(q.order))
	for _, id := range q.order {
		snap.Jobs = append(snap.Jobs, snapshotJob(q.jobs[id]))
	}
	if len(q.gaGens) > 0 {
		snap.GaGens = make(map[string][]GaGenRecord, len(q.gaGens))
		for id, gens := range q.gaGens {
			snap.GaGens[id] = append([]GaGenRecord(nil), gens...)
		}
	}
	q.mu.Unlock()
	snap.EventSeqs = q.opts.Events.Seqs()
	return q.opts.Journal.compact(mark, &snap)
}

// Recover installs a journal's state into a fresh queue: the last
// snapshot record first, then the records appended after it, replayed
// in order. Replay is idempotent, so records that overlap the snapshot
// (appended while it was taken) recover cleanly. Every non-terminal job
// is re-enqueued and the SSE broker seeded so Last-Event-ID resume
// works across the restart. Call before Start with the records
// returned by OpenJournal.
func (q *Queue) Recover(recs []JournalRecord) error {
	var snap *JournalRecord
	tail := recs
	for i := range recs {
		if recs[i].T == recSnapshot {
			snap, tail = &recs[i], recs[i+1:]
		}
	}
	if snap == nil {
		if err := checkUnsnapshotted(tail); err != nil {
			return err
		}
	}
	q.mu.Lock()
	if q.started || len(q.jobs) > 0 {
		q.mu.Unlock()
		return fmt.Errorf("engine: Recover on a started or non-empty queue")
	}
	var seqs map[string]int64
	if snap != nil {
		q.nextID = snap.NextID
		for i := range snap.Jobs {
			q.adoptJobLocked(snap.Jobs[i], "snapshot")
		}
		for id, gens := range snap.GaGens {
			if j, ok := q.jobs[id]; ok && j.State != JobCompleted && j.State != JobFailed {
				q.gaGens[id] = append([]GaGenRecord(nil), gens...)
			}
		}
		seqs = snap.EventSeqs
	}
	for i := range tail {
		q.applyRecordLocked(&tail[i])
	}
	pending := 0
	for _, j := range q.jobs {
		if j.State == JobQueued {
			pending++
		}
	}
	if pending > cap(q.work) {
		// Grow the pending buffer so every resumable job fits.
		q.work = make(chan string, pending)
	}
	for _, id := range q.order {
		if q.jobs[id].State == JobQueued {
			q.work <- id
		}
	}
	q.updateGaugesLocked()
	q.mu.Unlock()

	q.seedEvents(seqs, tail)
	return nil
}

// checkUnsnapshotted rejects a journal with no snapshot whose state or
// finish records name a job it never submitted. Such a journal was not
// written by this version: a journal is either headed by a snapshot or
// starts with the queue's first submit. It is the journal of a version
// that kept a separate checkpoint file and truncated the journal at
// each checkpoint. Replaying it would drop those jobs and restart the
// ID counter below IDs that clients already hold, so recovery refuses.
func checkUnsnapshotted(recs []JournalRecord) error {
	submitted := make(map[string]bool)
	for i := range recs {
		rec := &recs[i]
		switch rec.T {
		case recSubmit:
			if rec.Job != nil {
				submitted[rec.Job.ID] = true
			}
		case recState, recFinish:
			if !submitted[rec.JobID] {
				return fmt.Errorf("engine: journal has no snapshot but records a %s for unsubmitted job %q: "+
					"it was written alongside a separate checkpoint file, which is not imported; start on a fresh journal path",
					rec.T, rec.JobID)
			}
		}
	}
	return nil
}

// adoptJobLocked installs one recovered job unless its ID is already
// known. The same kind-safety validator that gates submission gates
// recovery: a record whose spec no longer validates (hand-edited file,
// or written by a version with laxer rules) must not resurrect as a
// runnable job. A job recorded mid-run re-runs from queued, and its
// distributed layout is dropped: the units are re-planned on the next
// run. Caller holds q.mu.
func (q *Queue) adoptJobLocked(j Job, source string) {
	if j.ID == "" {
		return
	}
	if _, exists := q.jobs[j.ID]; exists {
		return
	}
	if err := j.Spec.Validate(); err != nil {
		q.emitInvalidRecovered(source, j.ID, err)
		return
	}
	if j.State == JobRunning {
		j.State = JobQueued
	}
	j.Dist = nil
	q.jobs[j.ID] = &j
	q.order = append(q.order, j.ID)
	q.indexSubmitIDLocked(&j)
}

// applyRecordLocked replays one journal record onto the queue state.
// Idempotent by construction: submits skip existing IDs, everything
// else is an absolute assignment. Caller holds q.mu.
func (q *Queue) applyRecordLocked(rec *JournalRecord) {
	if rec.NextID > q.nextID {
		q.nextID = rec.NextID
	}
	switch rec.T {
	case recSubmit:
		if rec.Job != nil {
			q.adoptJobLocked(*rec.Job, "journal")
		}
	case recState:
		j, ok := q.jobs[rec.JobID]
		if !ok || j.State == JobCompleted || j.State == JobFailed {
			return
		}
		j.Attempts = rec.Attempts
		j.Error = rec.Error
		switch rec.State {
		case JobRunning:
			// The run itself did not survive the crash; what the record
			// proves is that an attempt started. Re-run from queued.
			j.State = JobQueued
			if !rec.At.IsZero() {
				t := rec.At
				j.Started = &t
			}
		default:
			j.State = JobQueued
		}
	case recProgress:
		if j, ok := q.jobs[rec.JobID]; ok && rec.Progress != nil {
			j.Progress = *rec.Progress
		}
	case recGaGen:
		if rec.Ga == nil {
			return
		}
		j, ok := q.jobs[rec.JobID]
		if !ok || j.State == JobCompleted || j.State == JobFailed {
			return
		}
		// Contiguous-append only: a record already covered by the
		// snapshot's GaGens replays as a no-op (idempotence), and a
		// gap means the history is unusable past this point anyway.
		if len(q.gaGens[rec.JobID]) == rec.Ga.Gen {
			q.gaGens[rec.JobID] = append(q.gaGens[rec.JobID], *rec.Ga)
		}
	case recFinish:
		j, ok := q.jobs[rec.JobID]
		if !ok {
			return
		}
		delete(q.gaGens, rec.JobID)
		j.State = rec.State
		j.Result = rec.Result
		j.Error = rec.Error
		if rec.Attempts > 0 {
			j.Attempts = rec.Attempts
		}
		if !rec.At.IsZero() {
			t := rec.At
			j.Finished = &t
		}
	case recLease:
		// Lease records only feed the SSE ring (seedEvents); the work
		// units themselves are re-planned when the job re-runs.
	}
}

// emitInvalidRecovered reports a recovered job record the shared spec
// validator rejected (dropped rather than resurrected). Caller holds
// q.mu or runs before Start.
func (q *Queue) emitInvalidRecovered(source, id string, err error) {
	obs.Emit(q.opts.Sink, obs.Event{
		Type: obs.EventPhase, Name: "queue",
		Fields: map[string]any{
			"event": "recovered_job_invalid", "source": source,
			"job": id, "error": err.Error(),
		},
	})
}

// seedEvents rebuilds the SSE broker's per-job state after recovery:
// journaled events are re-seeded with their original sequence numbers,
// then every job's numbering is advanced past both the snapshot's
// high-water mark and a slack gap covering async records lost in the
// crash, so no sequence number is ever reused for a different event.
func (q *Queue) seedEvents(snapSeqs map[string]int64, recs []JournalRecord) {
	if q.opts.Events == nil {
		return
	}
	last := make(map[string]int64, len(snapSeqs))
	for id, seq := range snapSeqs {
		last[id] = seq
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= 0 || rec.JobID == "" {
			continue
		}
		ev := api.JobEvent{Seq: rec.Seq, JobID: rec.JobID}
		q.mu.Lock()
		if j, ok := q.jobs[rec.JobID]; ok {
			ev.TraceID = j.Spec.TraceID
		}
		q.mu.Unlock()
		switch rec.T {
		case recSubmit, recState:
			ev.Type = api.JobEventState
			ev.State = rec.State
			if rec.T == recSubmit {
				ev.State = JobQueued
			}
		case recProgress:
			ev.Type = api.JobEventProgress
			ev.State = JobRunning
			ev.Progress = rec.Progress
		case recFinish:
			ev.Type = api.JobEventResult
			ev.State = rec.State
			ev.Result = rec.Result
			ev.Error = rec.Error
		case recLease:
			ev.Type = api.JobEventLease
			ev.State = JobRunning
			ev.Lease = rec.Lease
		default:
			continue
		}
		q.opts.Events.Seed(ev)
		if rec.Seq > last[rec.JobID] {
			last[rec.JobID] = rec.Seq
		}
	}
	for id, seq := range last {
		q.opts.Events.Advance(id, seq+journalSeqSlack)
	}
}
