package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

func integrityQueue(j *Journal) *Queue {
	return NewQueue(QueueOptions{
		Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
}

// recoverJournal opens the journal at path and recovers it into a fresh
// queue.
func recoverJournal(t *testing.T, path string) *Queue {
	t.Helper()
	j, recs := openJournal(t, path)
	q := integrityQueue(j)
	if err := q.Recover(recs); err != nil {
		t.Fatal(err)
	}
	return q
}

// writeGenerations compacts twice around three submits: the .prev
// generation holds two jobs (its snapshot and the record appended
// after it), the live file all three.
func writeGenerations(t *testing.T, path string) {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := integrityQueue(j)
	if _, err := q.Submit(specN(100)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(specN(200)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(specN(300)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prevPath(path)); err != nil {
		t.Fatalf("compaction rotation left no .prev: %v", err)
	}
}

// TestCheckpointDetectsCorruption: a bit flip in the live file's head
// snapshot fails its crc, and recovery salvages the previous generation
// instead of resuming garbage, truncating the file, or crashing.
func TestCheckpointDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	salvagedBefore := counter("queue.checkpoint_salvaged")
	q := recoverJournal(t, path)
	if d := counter("queue.checkpoint_salvaged") - salvagedBefore; d != 1 {
		t.Fatalf("queue.checkpoint_salvaged advanced by %d, want 1", d)
	}
	// The salvaged generation has two jobs, not three.
	if jobs := q.Jobs(); len(jobs) != 2 || jobs[1].Spec.Vectors.Count != 200 {
		t.Fatalf("salvaged queue has %+v, want the two previous-generation jobs", jobs)
	}
	// The corrupt file is evidence, not a torn tail: it stays as it was.
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("salvage rewrote the corrupt live file")
	}
}

// TestCheckpointTornWriteSalvaged: the engine.checkpoint.write chaos
// point tears the compaction mid-frame, exactly like a crash between
// write and fsync. Recovery detects the torn head and salvages .prev,
// which kept receiving the appends made after the tear.
func TestCheckpointTornWriteSalvaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, path)
	q := integrityQueue(j)
	if _, err := q.Submit(specN(100)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	armChaos(t, "engine.checkpoint.write=shortwrite", 9)
	if _, err := q.Submit(specN(200)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err) // the torn write itself reports success, like a real tear
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := decodeJournal(data); len(recs) != 0 {
		t.Fatalf("torn compaction decoded %d records, want none", len(recs))
	}
	if _, err := q.Submit(specN(300)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if jobs := recoverJournal(t, path).Jobs(); len(jobs) != 3 {
		t.Fatalf("salvaged %d jobs, want 3", len(jobs))
	}
}

// TestCheckpointBothGenerationsCorrupt: with no loadable generation,
// OpenJournal reports ErrJournalCorrupt rather than crashing or
// silently resuming nothing, and leaves both files as they were.
func TestCheckpointBothGenerationsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)
	for _, p := range []string{path, prevPath(path)} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := OpenJournal(path); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("open err %v, want ErrJournalCorrupt", err)
	}
	for _, p := range []string{path, prevPath(path)} {
		if got, _ := os.ReadFile(p); string(got) != "{torn" {
			t.Fatalf("%s rewritten to %q", p, got)
		}
	}

	// An empty .prev (the rotated first generation of a journal that had
	// no jobs) salvages nothing: beside a corrupt live file that is an
	// error too, while beside a missing live file the journal opens empty.
	if err := os.WriteFile(prevPath(path), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("open beside an empty .prev: err %v, want ErrJournalCorrupt", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{torn" {
		t.Fatalf("live file rewritten to %q", got)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if jobs := recoverJournal(t, path).Jobs(); len(jobs) != 0 {
		t.Fatalf("missing live file beside an empty .prev recovered %+v", jobs)
	}
}

// TestCheckpointMissingLiveFallsBackToPrev: a crash after rotation but
// before the rename leaves only .prev; recovery picks it up, and the
// next compaction writes a live file again.
func TestCheckpointMissingLiveFallsBackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	q := recoverJournal(t, path)
	if jobs := q.Jobs(); len(jobs) != 2 {
		t.Fatalf("salvaged %d jobs, want 2", len(jobs))
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := decodeJournal(data); len(recs) != 1 || recs[0].T != recSnapshot || len(recs[0].Jobs) != 2 {
		t.Fatalf("compaction after salvage wrote %+v, want one snapshot of two jobs", recs)
	}
}

// TestCheckpointMissingEntirely: no file, no .prev — a first boot. The
// journal starts empty and the queue recovers nothing.
func TestCheckpointMissingEntirely(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, recs := openJournal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	if _, err := os.Stat(prevPath(path)); !os.IsNotExist(err) {
		t.Fatalf("fresh journal has a .prev (err %v)", err)
	}
}

// TestCheckpointLargeSnapshot: a snapshot frame larger than 16 MiB
// compacts, reopens as the live file's head and recovers every job.
func TestCheckpointLargeSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 17 MiB snapshot in -short mode")
	}
	const jobs = 17
	genome := strings.Repeat("x", 1<<20)
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, path)
	q := NewQueue(QueueOptions{Workers: 1, MaxPending: jobs, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{Coverage: 1, Ga: &api.GaResult{BestGenome: genome}}, nil
		}})
	var last Job
	for i := 0; i < jobs; i++ {
		var err error
		if last, err = q.Submit(specN(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	q.Start()
	waitState(t, q, last.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4)
	_, err = f.Read(head)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(head); n <= 16<<20 {
		t.Fatalf("head snapshot frame is %d bytes, want over 16 MiB", n)
	}
	salvagedBefore := counter("queue.checkpoint_salvaged")
	got := recoverJournal(t, path).Jobs()
	if d := counter("queue.checkpoint_salvaged") - salvagedBefore; d != 0 {
		t.Fatalf("large snapshot was salvaged from .prev (%d)", d)
	}
	if len(got) != jobs {
		t.Fatalf("recovered %d jobs, want %d", len(got), jobs)
	}
	for _, job := range got {
		if job.State != JobCompleted || job.Result == nil || job.Result.Ga == nil || job.Result.Ga.BestGenome != genome {
			t.Fatalf("job %s recovered without its result", job.ID)
		}
	}
}

// TestRecoverRefusesCheckpointEraJournal: a journal from the version
// that kept a separate checkpoint file was truncated at each checkpoint,
// so it can hold state and finish records for jobs it never submitted.
// Recovery refuses it instead of dropping those jobs and reissuing
// their IDs.
func TestRecoverRefusesCheckpointEraJournal(t *testing.T) {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	legacy := mustFrames(t,
		JournalRecord{T: recState, JobID: "job-0001", Seq: 2, At: at, State: JobRunning, Attempts: 1},
		JournalRecord{T: recFinish, JobID: "job-0001", Seq: 3, At: at, State: JobCompleted,
			Result: &JobResult{Coverage: 1}, Attempts: 1},
	)
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := openJournal(t, path)
	defer j.Close()
	err := integrityQueue(j).Recover(recs)
	if err == nil || !strings.Contains(err.Error(), "job-0001") {
		t.Fatalf("recover err %v, want a refusal naming job-0001", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, legacy) {
		t.Fatal("refused journal was rewritten")
	}

	// The same records after their submit, or after a snapshot holding
	// the job, are an ordinary journal.
	submit := JournalRecord{T: recSubmit, JobID: "job-0001", Seq: 1, At: at, NextID: 1,
		Job: &Job{ID: "job-0001", Spec: specN(100), State: JobQueued, Created: at}}
	snap := JournalRecord{T: recSnapshot, NextID: 1, Jobs: []Job{*submit.Job}}
	for _, head := range []JournalRecord{submit, snap} {
		if jobs := recoverInto(t, append([]JournalRecord{head}, recs...)); len(jobs) != 1 || jobs[0].State != JobCompleted {
			t.Fatalf("after a %s: recovered %+v, want job-0001 completed", head.T, jobs)
		}
	}
}

// TestCheckpointVersion1Rejected: a JSON checkpoint from an earlier
// version is not a journal; opening it as one imports nothing.
func TestCheckpointVersion1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	v1 := []byte("{\n  \"version\": 1,\n  \"next_id\": 1,\n  \"jobs\": []\n}\n")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if jobs := recoverJournal(t, path).Jobs(); len(jobs) != 0 {
		t.Fatalf("legacy checkpoint imported as %+v", jobs)
	}
}

// TestCheckpointRejectsBadSnapshot: a snapshot frame whose crc is fine but
// whose job table repeats an ID, leaves one empty or names an unknown
// state does not decode; as the head of a compacted journal it sends
// recovery to the previous generation.
func TestCheckpointRejectsBadSnapshot(t *testing.T) {
	job := func(id string, state JobState) Job {
		return Job{ID: id, Spec: specN(10), State: state}
	}
	cases := map[string][]Job{
		"duplicate id":  {job("job-0001", JobQueued), job("job-0001", JobCompleted)},
		"empty id":      {job("", JobQueued)},
		"unknown state": {job("job-0001", "paused")},
	}
	for name, jobs := range cases {
		t.Run(name, func(t *testing.T) {
			bad := mustFrames(t, JournalRecord{T: recSnapshot, NextID: 1, Jobs: jobs})
			if recs, good := decodeJournal(bad); len(recs) != 0 || good != 0 {
				t.Fatalf("bad snapshot decoded as %d records, %d bytes", len(recs), good)
			}
			path := filepath.Join(t.TempDir(), "journal.wal")
			writeGenerations(t, path)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := recoverJournal(t, path).Jobs(); len(got) != 2 {
				t.Fatalf("recovered %d jobs, want the 2 from .prev", len(got))
			}
		})
	}
}

// TestJournalGrowthBounded: with nothing but terminal transitions to
// trigger it, compaction keeps the journal within twice its last
// snapshot plus compactFloor (plus the one record of the job starting
// when the size is sampled), and the compacted journal recovers exactly
// the queue that wrote it.
func TestJournalGrowthBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes several MiB of journal in -short mode")
	}
	const jobs = 400
	const inFlight = 1 << 10
	// Each result carries ~8 KiB, so the run journals several times
	// compactFloor.
	genome := strings.Repeat("x", 8<<10)

	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openJournal(t, path)
	var worst int64
	startCompactions := ctrJournalTruncate.Load()
	startFinishes := famJournalRecords.Counter(recFinish).Load()
	q := NewQueue(QueueOptions{Workers: 1, MaxPending: jobs, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			// One worker and every submit journaled before Start: by the
			// time this executor runs, the journal holds the previous
			// jobs' records, compactions included, plus this job's
			// running-state record.
			size := j.mark()
			j.mu.Lock()
			snap := j.snapBytes
			j.mu.Unlock()
			worst = max(worst, size-(2*snap+compactFloor+inFlight))
			return &JobResult{Coverage: 1, Ga: &api.GaResult{BestGenome: genome}}, nil
		}})
	var last Job
	for i := 0; i < jobs; i++ {
		var err error
		if last, err = q.Submit(specN(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	q.Start()
	waitState(t, q, last.ID, JobCompleted)
	if worst > 0 {
		t.Fatalf("journal exceeded 2×snapshot + floor by %d bytes", worst+inFlight)
	}
	compactions := ctrJournalTruncate.Load() - startCompactions
	if compactions == 0 {
		t.Fatal("no compaction ran")
	}

	// Close the journal once the last finish record is in, so the file
	// keeps [snapshot][tail] rather than the drain's final snapshot.
	for famJournalRecords.Counter(recFinish).Load()-startFinishes < jobs {
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(q.Jobs())
	got, _ := json.Marshal(recoverJournal(t, path).Jobs())
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered jobs differ from the queue that wrote the journal (%d compactions)", compactions)
	}
}
