package engine

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

// tinyGaSpec is the shared fixture: small enough to fault-simulate a
// dozen phenotypes in seconds, big enough to breed.
func tinyGaSpec() JobSpec {
	return JobSpec{
		Kind: JobGaSearch,
		Ga: &api.GaSpec{
			Population: 4, Generations: 3, Seed: 7,
			Slots: 6, Iterations: 20,
		},
	}
}

// sameGaResult pins bit-identity between two GA results: best genome,
// best fitness, and the whole per-generation fitness trajectory.
func sameGaResult(t *testing.T, label string, a, b *JobResult) {
	t.Helper()
	if a.Ga == nil || b.Ga == nil {
		t.Fatalf("%s: missing GaResult (%v vs %v)", label, a.Ga, b.Ga)
	}
	if a.Ga.BestGenome != b.Ga.BestGenome {
		t.Fatalf("%s: best genome diverged:\n%s\n%s", label, a.Ga.BestGenome, b.Ga.BestGenome)
	}
	if a.Ga.BestFitness != b.Ga.BestFitness || a.Coverage != b.Coverage || a.Cycles != b.Cycles {
		t.Fatalf("%s: best fitness/coverage/cycles diverged: %v/%v/%d vs %v/%v/%d",
			label, a.Ga.BestFitness, a.Coverage, a.Cycles, b.Ga.BestFitness, b.Coverage, b.Cycles)
	}
	if len(a.Ga.Generations) != len(b.Ga.Generations) {
		t.Fatalf("%s: %d vs %d generations", label, len(a.Ga.Generations), len(b.Ga.Generations))
	}
	for i := range a.Ga.Generations {
		ga, gb := a.Ga.Generations[i], b.Ga.Generations[i]
		if ga.BestFitness != gb.BestFitness || ga.MeanFitness != gb.MeanFitness ||
			ga.BestCoverage != gb.BestCoverage || ga.BestCycles != gb.BestCycles {
			t.Fatalf("%s: generation %d diverged: %+v vs %+v", label, i, ga, gb)
		}
	}
}

// runGaLocal executes one ga_search spec through the production local
// executor, outside any queue.
func runGaLocal(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	exec := NewExecutor(ExecConfig{Workers: 2})
	res, err := exec(context.Background(), spec, func(Progress) {})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGaSearchDeterminism: the same seeded spec evolves the same best
// genome and fitness trajectory on repeat runs; the phenotype dedup
// cache only saves work, never changes answers.
func TestGaSearchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real fault-sim campaigns in -short mode")
	}
	a := runGaLocal(t, tinyGaSpec())
	b := runGaLocal(t, tinyGaSpec())
	sameGaResult(t, "repeat run", a, b)
	if a.Ga.BestGenome == "" || a.Coverage <= 0 {
		t.Fatalf("implausible GA result %+v", a.Ga)
	}
	if a.Ga.Evaluations+a.Ga.CacheHits != 4*3 {
		t.Fatalf("evaluations %d + cache hits %d, want %d total",
			a.Ga.Evaluations, a.Ga.CacheHits, 4*3)
	}
}

// TestGaSearchResume: a ga_search interrupted mid-search by a hard
// queue shutdown resumes — through recovery of the journal alone into a
// brand-new queue — and finishes bit-identically to an uninterrupted
// run, without re-evaluating the journaled generations.
func TestGaSearchResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real fault-sim campaigns in -short mode")
	}
	ref := runGaLocal(t, tinyGaSpec())

	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")

	j1, recs, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	q1 := NewQueue(QueueOptions{
		Workers: 1, Exec: NewExecutor(ExecConfig{Workers: 2}),
		Journal: j1,
	})
	q1.Start()
	job, err := q1.Submit(tinyGaSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first generation to be durably recorded, then yank
	// the queue mid-search — the drain context is already expired, so
	// running jobs are cancelled at the next generation boundary.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		q1.mu.Lock()
		gens := len(q1.gaGens[job.ID])
		q1.mu.Unlock()
		if gens >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no generation journaled in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q1.Drain(expired); err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	interrupted, _ := q1.Get(job.ID)
	if interrupted.State == JobCompleted {
		t.Skip("search finished before the drain landed; resume not exercised")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: the drain compacted the journal, so the generations
	// come back from its snapshot frame.
	j2, recs, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	q2 := NewQueue(QueueOptions{
		Workers: 1, Exec: NewExecutor(ExecConfig{Workers: 2}),
		Journal: j2,
	})
	if err := q2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	q2.mu.Lock()
	resumeGens := len(q2.gaGens[job.ID])
	q2.mu.Unlock()
	if resumeGens < 1 {
		t.Fatalf("recovered queue holds %d generation records, want >= 1", resumeGens)
	}
	q2.Start()
	defer q2.Drain(context.Background())

	deadline = time.Now().Add(2 * time.Minute)
	var got Job
	for {
		got, _ = q2.Get(job.ID)
		if got.State == JobCompleted {
			break
		}
		if got.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("resumed job state %s (error %q)", got.State, got.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sameGaResult(t, "resumed run", ref, got.Result)
	if got.Result.Ga.ResumedFrom != resumeGens {
		t.Fatalf("ResumedFrom = %d, want %d", got.Result.Ga.ResumedFrom, resumeGens)
	}
	// The resumed attempt re-evaluated only the tail generations.
	if reEvaluated := got.Result.Ga.Evaluations + got.Result.Ga.CacheHits; reEvaluated > (3-resumeGens)*4 {
		t.Fatalf("resumed run evaluated %d phenotypes, want <= %d", reEvaluated, (3-resumeGens)*4)
	}
	// Terminal jobs drop their generation history.
	q2.mu.Lock()
	left := len(q2.gaGens[job.ID])
	q2.mu.Unlock()
	if left != 0 {
		t.Fatalf("terminal job still holds %d generation records", left)
	}
}
