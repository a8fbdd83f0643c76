package engine

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// openJournal opens a journal that the test's cleanup closes.
func openJournal(t *testing.T, path string) (*Journal, []JournalRecord) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

// fixedQueue builds the deterministic queue state behind the golden
// file: a completed, a failed, a still-queued and a panic-requeued job
// (attempts already spent, sitting out its retry backoff) with pinned
// timestamps.
func fixedQueue(t *testing.T, journalPath string) *Queue {
	t.Helper()
	clock := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	j, _ := openJournal(t, journalPath)
	q := NewQueue(QueueOptions{
		Journal: j,
		now:     func() time.Time { return clock },
		traceID: func() string { return "" },
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
	done, _ := q.Submit(JobSpec{Kind: JobFaultSim,
		Vectors: VectorSource{Kind: "bist", Count: 4096, Seed: 1}, Workers: 4})
	bad, _ := q.Submit(JobSpec{Kind: JobSeqATPG, Frames: 3, SampleEvery: 40})
	if _, err := q.Submit(JobSpec{Kind: JobNDetect, NDetect: 5,
		Vectors: VectorSource{Kind: "bist", Count: 2048}}); err != nil {
		t.Fatal(err)
	}
	retrying, _ := q.Submit(JobSpec{Kind: JobFaultSim,
		Vectors: VectorSource{Kind: "bist", Count: 512}, DeadlineSec: 30})
	// Hand-finish the first two without running the pool so the state
	// is fully deterministic.
	q.mu.Lock()
	started := clock.Add(time.Second)
	finished := clock.Add(3 * time.Second)
	j1 := q.jobs[done.ID]
	j1.State = JobCompleted
	j1.Attempts = 1
	j1.Started, j1.Finished = &started, &finished
	j1.Progress = Progress{Done: 4096, Total: 4096, Detected: 8800, Remaining: 520, Coverage: 0.9442}
	j1.Result = &JobResult{Faults: 9320, Detected: 8800, Cycles: 4096, Coverage: 0.9442, Seconds: 2}
	j2 := q.jobs[bad.ID]
	j2.State = JobFailed
	j2.Attempts = 2
	j2.Started, j2.Finished = &started, &finished
	j2.Error = "engine: job panic: simulated"
	// A job that panicked once and went back to queued: Attempts must
	// survive the snapshot round trip so a recovery keeps charging the
	// same retry budget.
	j4 := q.jobs[retrying.ID]
	j4.Attempts = 1
	j4.Error = "engine: job panic: simulated"
	q.mu.Unlock()
	return q
}

// TestCheckpointGoldenRoundTrip pins the snapshot frame's on-disk
// schema: a journal holding just the golden frame recovers into a
// queue whose own compaction writes it back byte for byte.
func TestCheckpointGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "snapshot.golden.wal")
	dir := t.TempDir()

	if *update {
		path := filepath.Join(dir, "gen.wal")
		q := fixedQueue(t, path)
		if err := q.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	path := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := openJournal(t, path)
	if len(recs) != 1 || recs[0].T != recSnapshot {
		t.Fatalf("golden journal replayed %+v, want one snapshot record", recs)
	}
	q := NewQueue(QueueOptions{Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		}})
	if err := q.Recover(recs); err != nil {
		t.Fatal(err)
	}
	// Satellite guarantee: a requeued job's spent attempts survive the
	// round trip, so retry budgets keep charging across restarts.
	if j, ok := q.Get("job-0004"); !ok || j.Attempts != 1 || j.State != JobQueued || j.Spec.DeadlineSec != 30 {
		t.Fatalf("requeued job did not survive recovery intact: %+v", j)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot round trip drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointResume is the restart story: drain a queue with work
// still pending, recover the journal into a fresh queue, and watch the
// pending job run to completion while finished results survive.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	release := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		if spec.Vectors.Count == 200 {
			// Blocks forever in the first life; a forced drain cancels
			// it back to queued, exactly like a long campaign cut short
			// by SIGTERM.
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ErrInterrupted
			}
		}
		return &JobResult{Coverage: 0.5, Cycles: spec.Vectors.Count}, nil
	}

	j1, _ := openJournal(t, path)
	q1 := NewQueue(QueueOptions{Workers: 1, Journal: j1, Exec: exec})
	q1.Start()
	first, _ := q1.Submit(specN(100))
	waitState(t, q1, first.ID, JobCompleted)
	second, _ := q1.Submit(specN(200))
	waitState(t, q1, second.ID, JobRunning)
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q1.Drain(drainCtx); err == nil {
		t.Fatal("forced drain of a blocked job reported no deadline error")
	}
	if j, _ := q1.Get(second.ID); j.State != JobQueued {
		t.Fatalf("interrupted job state %s, want queued", j.State)
	}

	close(release)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openJournal(t, path)
	q2 := NewQueue(QueueOptions{Workers: 1, Journal: j2, Exec: exec})
	if err := q2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if j, ok := q2.Get(first.ID); !ok || j.State != JobCompleted || j.Result == nil || j.Result.Cycles != 100 {
		t.Fatalf("completed job did not survive restart: %+v", j)
	}
	q2.Start()
	j := waitState(t, q2, second.ID, JobCompleted)
	if j.Result == nil || j.Result.Cycles != 200 {
		t.Fatalf("resumed job result %+v", j.Result)
	}
	// A third submission continues the ID sequence instead of reusing
	// job-0002.
	third, err := q2.Submit(specN(300))
	if err != nil {
		t.Fatal(err)
	}
	if third.ID != "job-0003" {
		t.Fatalf("post-recovery ID %s, want job-0003", third.ID)
	}
	waitState(t, q2, third.ID, JobCompleted)
	// Settle the pool before t.TempDir cleanup races its compactions.
	if err := q2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
