package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
)

// mustFrames renders records into wire bytes the way Append would.
func mustFrames(t testing.TB, recs ...JournalRecord) []byte {
	t.Helper()
	var out []byte
	for i := range recs {
		frame, err := encodeFrame(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	return out
}

// TestJournalAppendReplay: records appended in one life come back in
// append order in the next, sync and async alike.
func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	want := []JournalRecord{
		{T: recSubmit, JobID: "job-0001", Seq: 1, At: at, NextID: 1,
			Job: &Job{ID: "job-0001", Spec: specN(100), State: JobQueued, Created: at}},
		{T: recState, JobID: "job-0001", Seq: 2, At: at.Add(time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0001", Seq: 3, Progress: &Progress{Done: 50, Total: 100}},
		{T: recFinish, JobID: "job-0001", Seq: 4, At: at.Add(2 * time.Second),
			State: JobCompleted, Result: &JobResult{Coverage: 0.5, Cycles: 100}, Attempts: 1},
	}
	for i, rec := range want {
		// Alternate sync/async: the close below must group-commit the
		// async stragglers.
		if err := j.Append(rec, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial frame; the
// reopen keeps every whole record, drops the tail, and truncates the
// file so the next append starts on a clean boundary.
func TestJournalTornTail(t *testing.T) {
	full := mustFrames(t,
		JournalRecord{T: recSubmit, JobID: "job-0001", Job: &Job{ID: "job-0001", Spec: specN(1), State: JobQueued}},
		JournalRecord{T: recState, JobID: "job-0001", State: JobRunning, Attempts: 1},
	)
	tornFrame := mustFrames(t, JournalRecord{T: recFinish, JobID: "job-0001", State: JobCompleted})
	cases := map[string][]byte{
		"short header":    append(append([]byte{}, full...), tornFrame[:5]...),
		"short payload":   append(append([]byte{}, full...), tornFrame[:len(tornFrame)-3]...),
		"flipped payload": append(append([]byte{}, full...), flipBit(tornFrame, 9)...),
		"flipped length":  append(append([]byte{}, full...), flipBit(tornFrame, 2)...),
		"zero garbage":    append(append([]byte{}, full...), make([]byte, 11)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[0].T != recSubmit || recs[1].T != recState {
				t.Fatalf("salvaged %d records (%+v), want the 2 whole ones", len(recs), recs)
			}
			// The torn bytes are physically gone: appending and reopening
			// yields 3 clean records.
			if err := j.Append(JournalRecord{T: recFinish, JobID: "job-0001", State: JobFailed}, true); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, recs2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(recs2) != 3 || recs2[2].State != JobFailed {
				t.Fatalf("post-truncate append replayed as %+v", recs2)
			}
		})
	}
}

func flipBit(frame []byte, i int) []byte {
	out := append([]byte{}, frame...)
	out[i] ^= 0x40
	return out
}

// TestJournalTruncate: compaction replaces exactly the prefix below
// the mark with the snapshot frame, keeps the tail byte-for-byte, and
// the journal stays appendable through the file swap.
func TestJournalTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(JournalRecord{T: recSubmit, JobID: "old", NextID: i,
			Job: &Job{ID: "old", Spec: specN(i), State: JobQueued}}, true); err != nil {
			t.Fatal(err)
		}
	}
	mark := j.mark()
	if err := j.Append(JournalRecord{T: recState, JobID: "old", State: JobRunning, Attempts: 1}, false); err != nil {
		t.Fatal(err)
	}
	snap := JournalRecord{T: recSnapshot, NextID: 3, Jobs: []Job{{ID: "old", Spec: specN(3), State: JobQueued}}}
	if err := j.compact(mark, &snap); err != nil {
		t.Fatal(err)
	}
	// The swapped-in file descriptor still appends correctly.
	if err := j.Append(JournalRecord{T: recFinish, JobID: "old", State: JobCompleted}, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 3 || recs[0].T != recSnapshot || recs[1].T != recState || recs[2].T != recFinish {
		t.Fatalf("compacted journal replays %+v, want the snapshot and the 2 tail records", recs)
	}

	// Compacting at the end leaves the snapshot alone, and a working
	// journal.
	if err := j2.compact(j2.mark(), &snap); err != nil {
		t.Fatal(err)
	}
	if got, want := j2.mark(), int64(len(mustFrames(t, snap))); got != want {
		t.Fatalf("fully compacted journal has %d logical bytes, want the %d-byte snapshot", got, want)
	}
}

// TestDecodeJournalPrefixStability is the replay contract in miniature:
// re-decoding the good prefix reproduces exactly the same records, so a
// journal whose torn tail was truncated replays like one never torn.
func TestDecodeJournalPrefixStability(t *testing.T) {
	data := mustFrames(t,
		JournalRecord{T: recSubmit, JobID: "a", Job: &Job{ID: "a", Spec: specN(1), State: JobQueued}},
		JournalRecord{T: recProgress, JobID: "a", Progress: &Progress{Done: 1, Total: 2}},
	)
	data = append(data, 0xde, 0xad) // torn tail
	recs, good := decodeJournal(data)
	recs2, good2 := decodeJournal(data[:good])
	if good2 != good || !reflect.DeepEqual(recs, recs2) {
		t.Fatalf("prefix re-decode diverged: %d/%d records, %d/%d bytes",
			len(recs), len(recs2), good, good2)
	}
}

// FuzzReplayJournal: decodeJournal must never panic, never read past
// the reported good offset, and always yield a stable prefix — whatever
// bytes a crash, bit rot, or an adversarial writer left behind — and
// OpenJournal must salvage the previous generation whenever the live
// file is not headed by a snapshot.
func FuzzReplayJournal(f *testing.F) {
	valid := mustFrames(f,
		JournalRecord{T: recSubmit, JobID: "job-0001", Seq: 1, NextID: 1,
			Job: &Job{ID: "job-0001", Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 64}}, State: JobQueued}},
		JournalRecord{T: recFinish, JobID: "job-0001", Seq: 2, State: JobCompleted,
			Result: &JobResult{Coverage: 1}},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-4])                       // torn tail
	f.Add(flipBit(valid, len(valid)/2))               // payload corruption
	f.Add(flipBit(valid, 0))                          // length corruption
	f.Add([]byte{})                                   // empty file
	f.Add(make([]byte, 64))                           // all zeros
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	// A frame whose payload is valid JSON but not a record (empty T).
	bogus, _ := json.Marshal(map[string]int{"x": 1})
	frame := make([]byte, 8+len(bogus))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(bogus)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(bogus, castagnoli))
	copy(frame[8:], bogus)
	f.Add(append(append([]byte{}, valid...), frame...))
	// A compacted journal: a snapshot frame heading the tail records,
	// whole, torn inside the snapshot, and with a snapshot whose job
	// table repeats an ID.
	snap := mustFrames(f, JournalRecord{T: recSnapshot, NextID: 2, Jobs: []Job{
		{ID: "job-0001", Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 64}}, State: JobCompleted,
			Result: &JobResult{Coverage: 1}},
		{ID: "job-0002", Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 32}}, State: JobRunning},
	}, EventSeqs: map[string]int64{"job-0001": 4}, GaGens: map[string][]GaGenRecord{
		"job-0002": {{Gen: 0, Coverage: []float64{0.5}, Cycles: []int{10}}},
	}})
	compacted := append(append([]byte{}, snap...), valid...)
	f.Add(compacted)
	f.Add(compacted[:len(snap)/2])
	f.Add(flipBit(compacted, len(snap)/2))
	f.Add(mustFrames(f, JournalRecord{T: recSnapshot, NextID: 1, Jobs: []Job{
		{ID: "job-0001", State: JobQueued}, {ID: "job-0001", State: JobQueued},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := decodeJournal(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		recs2, good2 := decodeJournal(data[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("prefix not stable: %d bytes/%d recs, re-decode %d bytes/%d recs",
				good, len(recs), good2, len(recs2))
		}
		for i := range recs {
			if recs[i].T == "" {
				t.Fatalf("record %d has empty type", i)
			}
		}
		// OpenJournal on the same bytes must agree with the pure decoder
		// and leave a cleanly truncated file behind.
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs3, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if len(recs3) != len(recs) {
			t.Fatalf("OpenJournal replayed %d records, decodeJournal %d", len(recs3), len(recs))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != good {
			t.Fatalf("truncated file is %d bytes (err %v), want %d", fi.Size(), err, good)
		}

		// Beside a valid previous generation the same bytes always open:
		// a live file headed by a snapshot is replayed as is, anything
		// else is left untouched and .prev salvaged.
		live := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(live, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(prevPath(live), valid, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs4, err := OpenJournal(live)
		if err != nil {
			t.Fatalf("open beside a valid .prev: %v", err)
		}
		defer j2.Close()
		if len(recs) > 0 && recs[0].T == recSnapshot {
			if len(recs4) != len(recs) {
				t.Fatalf("snapshot-headed journal replayed %d records, want %d", len(recs4), len(recs))
			}
			return
		}
		if len(recs4) != 2 || recs4[1].T != recFinish {
			t.Fatalf("salvage replayed %+v, want the .prev generation", recs4)
		}
		if got, _ := os.ReadFile(live); !bytes.Equal(got, data) {
			t.Fatal("salvage rewrote the live file")
		}
	})
}

// replayRecords is the journal from one deterministic little campaign:
// two submits, one finished, one mid-run at the crash.
func replayRecords() []JournalRecord {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	return []JournalRecord{
		{T: recSubmit, JobID: "job-0001", Seq: 1, At: at, NextID: 1,
			Job: &Job{ID: "job-0001", Spec: specN(100), State: JobQueued, Created: at}},
		{T: recSubmit, JobID: "job-0002", Seq: 1, At: at, NextID: 2,
			Job: &Job{ID: "job-0002", Spec: specN(200), State: JobQueued, Created: at}},
		{T: recState, JobID: "job-0001", Seq: 2, At: at.Add(time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0001", Seq: 3, Progress: &Progress{Done: 100, Total: 100, Coverage: 0.5}},
		{T: recFinish, JobID: "job-0001", Seq: 4, At: at.Add(2 * time.Second), State: JobCompleted,
			Result: &JobResult{Coverage: 0.5, Cycles: 100}, Attempts: 1},
		{T: recState, JobID: "job-0002", Seq: 2, At: at.Add(3 * time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0002", Seq: 3, Progress: &Progress{Done: 40, Total: 200}},
	}
}

func recoverInto(t *testing.T, recs []JournalRecord) []Job {
	t.Helper()
	q := NewQueue(QueueOptions{
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
	if err := q.Recover(recs); err != nil {
		t.Fatal(err)
	}
	return q.Jobs()
}

// TestReplayIdempotence: applying a journal twice (the overlap a crash
// between checkpoint write and journal truncation produces) must equal
// applying it once, record for record and job for job.
func TestReplayIdempotence(t *testing.T) {
	recs := replayRecords()
	once := recoverInto(t, recs)
	twice := recoverInto(t, append(append([]JournalRecord{}, recs...), recs...))
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("replaying twice diverged:\nonce  %+v\ntwice %+v", once, twice)
	}

	// And the replayed state itself is what the records say: job-0001
	// keeps its exactly-once result, job-0002 goes back to queued.
	if len(once) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(once))
	}
	j1, j2 := once[0], once[1]
	if j1.State != JobCompleted || j1.Result == nil || j1.Result.Cycles != 100 {
		t.Fatalf("finished job replayed as %+v", j1)
	}
	if j2.State != JobQueued || j2.Attempts != 1 || j2.Progress.Done != 40 {
		t.Fatalf("mid-run job replayed as %+v", j2)
	}
}

// TestRecoverCheckpointJournalOverlap is the compaction window: records
// appended while a snapshot was being taken follow it in the compacted
// journal even though the snapshot already covers some of them.
// Recovering from that snapshot plus the overlapping records must equal
// recovering from the plain journal.
func TestRecoverCheckpointJournalOverlap(t *testing.T) {
	recs := replayRecords()

	// Build the snapshot by recovering the prefix (through job-0001's
	// finish) and compacting that queue's journal — exactly the frame a
	// real compaction would have written.
	j1, _ := openJournal(t, filepath.Join(t.TempDir(), "journal.wal"))
	q1 := NewQueue(QueueOptions{Journal: j1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		}})
	if err := q1.Recover(recs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := q1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j1.Path())
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := decodeJournal(data)
	if len(snap) != 1 || snap[0].T != recSnapshot {
		t.Fatalf("compaction wrote %+v, want one snapshot record", snap)
	}

	got := recoverInto(t, append(snap, recs...))
	want := recoverInto(t, recs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+journal overlap diverged from journal-only:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRecoverSeedsEventRing: after recovery an SSE subscriber with a
// pre-crash Last-Event-ID gets the journaled tail replayed under the
// original sequence numbers, and live numbering restarts past the slack
// gap so no seq is ever reused.
func TestRecoverSeedsEventRing(t *testing.T) {
	recs := replayRecords()
	events := NewJobEventBroker()
	q := NewQueue(QueueOptions{Events: events,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		}})
	if err := q.Recover(recs); err != nil {
		t.Fatal(err)
	}
	replay, _, cancel := events.Subscribe("job-0001", 2)
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 3 || replay[1].Seq != 4 {
		t.Fatalf("Last-Event-ID=2 replay %+v, want seqs 3,4", replay)
	}
	if replay[1].Result == nil || replay[1].Result.Cycles != 100 {
		t.Fatalf("seeded result event %+v lost its payload", replay[1])
	}
	// Live numbering resumes beyond the recovered max plus slack.
	seq := events.Publish(api.JobEvent{JobID: "job-0001", Type: api.JobEventState, State: JobQueued})
	if seq <= 4+journalSeqSlack {
		t.Fatalf("post-recovery publish got seq %d, want > %d", seq, 4+journalSeqSlack)
	}
}

// TestSubmitIdempotency: a duplicate submit_id returns the original job
// instead of enqueueing a second campaign — live and across recovery.
func TestSubmitIdempotency(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &JobResult{Coverage: 1}, nil
	}
	q := NewQueue(QueueOptions{Workers: 1, Exec: exec})
	q.Start()
	spec := specN(100)
	spec.SubmitID = "cli/retry-abc"
	first, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submit created %s, want %s", dup.ID, first.ID)
	}
	other := specN(100)
	other.SubmitID = "cli/retry-def"
	second, err := q.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("distinct submit_id deduplicated")
	}
	if jobs := q.Jobs(); len(jobs) != 2 {
		t.Fatalf("%d jobs enqueued, want 2", len(jobs))
	}
	close(block)

	// The dedup index survives journal replay: a client retrying its
	// submit against the restarted coordinator still gets the same job.
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	recs := []JournalRecord{{T: recSubmit, JobID: "job-0001", Seq: 1, NextID: 1,
		Job: &Job{ID: "job-0001", Spec: spec, State: JobQueued, Created: at}}}
	q2 := NewQueue(QueueOptions{Exec: exec})
	if err := q2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	again, err := q2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != "job-0001" {
		t.Fatalf("post-recovery duplicate submit created %s, want job-0001", again.ID)
	}
}

// TestQueueJournalsLifecycle wires a real journal into a running queue
// and checks the full lifecycle lands on disk: submit (sync), start,
// progress, finish — enough for a cold replay to reconstruct the job
// with its result.
func TestQueueJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Workers: 1, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			update(Progress{Done: 1, Total: 2})
			return &JobResult{Coverage: 0.9, Cycles: spec.Vectors.Count}, nil
		}})
	q.Start()
	job, err := q.Submit(specN(64))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, job.ID, JobCompleted)
	// Close the journal once the synced finish record is on disk: the
	// drain after it must not compact the lifecycle away.
	for {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if recs, _ := decodeJournal(data); len(recs) > 0 && recs[len(recs)-1].T == recFinish {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	types := map[string]int{}
	for _, r := range recs {
		types[r.T]++
	}
	if types[recSubmit] != 1 || types[recState] == 0 || types[recFinish] != 1 {
		t.Fatalf("journal types %v, want 1 submit, ≥1 state, 1 finish", types)
	}
	q2 := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	if err := q2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	got, ok := q2.Get(job.ID)
	if !ok || got.State != JobCompleted || got.Result == nil || got.Result.Cycles != 64 {
		t.Fatalf("cold replay reconstructed %+v", got)
	}
}

// TestJournalCheckpointTruncates: compaction shrinks the journal to a
// snapshot frame plus the records appended after its mark, and that
// snapshot alone reconstructs the finished job.
func TestJournalCheckpointTruncates(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, jpath)
	q := NewQueue(QueueOptions{Workers: 1, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{Coverage: 1}, nil
		}})
	q.Start()
	job, _ := q.Submit(specN(32))
	waitState(t, q, job.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, good := decodeJournal(data)
	if len(recs) != 1 || recs[0].T != recSnapshot || good != int64(len(data)) || j.mark() != good {
		t.Fatalf("journal holds %d bytes, %d records (%+v) after compaction, want just the snapshot", len(data), len(recs), recs)
	}
	if got := recoverInto(t, recs); len(got) != 1 || got[0].State != JobCompleted {
		t.Fatalf("snapshot-only recovery got %+v", got)
	}
}
