package worker

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/engine"
)

// gaE2ESpec is the shared ga_search fixture for the fleet tests.
func gaE2ESpec() api.JobSpec {
	return api.JobSpec{
		Kind: api.JobGaSearch,
		Ga: &api.GaSpec{
			Population: 4, Generations: 3, Seed: 11,
			Slots: 6, Iterations: 20,
		},
	}
}

// sameGa pins bit-identity between two GA results: best genome, best
// fitness, and every generation of the fitness trajectory.
func sameGa(t *testing.T, label string, a, b *api.JobResult) {
	t.Helper()
	if a.Ga == nil || b.Ga == nil {
		t.Fatalf("%s: missing GaResult", label)
	}
	if a.Ga.BestGenome != b.Ga.BestGenome {
		t.Fatalf("%s: best genome diverged:\n%s\n%s", label, a.Ga.BestGenome, b.Ga.BestGenome)
	}
	if a.Ga.BestFitness != b.Ga.BestFitness || a.Coverage != b.Coverage || a.Cycles != b.Cycles {
		t.Fatalf("%s: fitness/coverage/cycles diverged: %v/%v/%d vs %v/%v/%d",
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

// runGaFleet runs gaE2ESpec on an in-process coordinator whose
// generations fan out to a fleet of n workers over real HTTP.
func runGaFleet(t *testing.T, n int) *api.JobResult {
	t.Helper()
	pool := engine.NewLeasePool(engine.PoolOptions{
		TTL:          5 * time.Second,
		UnitAttempts: 3,
		RetryBase:    time.Millisecond,
		RetryMax:     5 * time.Millisecond,
	})
	defer pool.Close()
	q := engine.NewQueue(engine.QueueOptions{
		Workers:   1,
		Exec:      engine.NewDistExecutor(engine.ExecConfig{Workers: 1}, pool, engine.DistOptions{Units: 2}),
		DistState: pool.SnapshotJob,
	})
	q.Start()
	srv := httptest.NewServer(engine.NewServerWith(q, engine.ServerOptions{Pool: pool}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	fastClient := func() *client.Client {
		return client.New(srv.URL, client.Options{
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, MaxRetries: 4,
		})
	}
	c := fastClient()
	spec := gaE2ESpec()
	job, err := c.SubmitGA(ctx, spec.Design, *spec.Ga)
	if err != nil {
		t.Fatal(err)
	}

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := New(Options{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("w%d", i+1),
			Poll:        5 * time.Millisecond,
			Exec:        engine.ExecConfig{Workers: 1},
			Client:      fastClient(),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker %s: %v", w.ID(), err)
			}
		}()
	}

	res, err := c.WaitResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitResult (%d workers): %v", n, err)
	}
	stopWorkers()
	wg.Wait()
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := q.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return res
}

// TestGaFleetDeterminism: the same seeded GaSpec evolves a byte-
// identical best genome and fitness trajectory whether individuals are
// evaluated in-process, by a single worker, or raced across a
// four-worker fleet. Evaluation timing and unit interleaving must never
// leak into the search's random draws.
func TestGaFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed GA e2e in -short mode")
	}
	local, err := engine.NewExecutor(engine.ExecConfig{Workers: 2})(
		context.Background(), gaE2ESpec(), func(engine.Progress) {})
	if err != nil {
		t.Fatal(err)
	}
	solo := runGaFleet(t, 1)
	fleet := runGaFleet(t, 4)
	sameGa(t, "local vs 1 worker", local, solo)
	sameGa(t, "1 worker vs 4 workers", solo, fleet)
	if solo.Ga.BestGenome == "" || solo.Coverage <= 0 {
		t.Fatalf("implausible GA result %+v", solo.Ga)
	}
}

// gaGenerationsMetric scrapes sbst_ga_generations_total from the
// coordinator's Prometheus endpoint.
var gaGenRe = regexp.MustCompile(`(?m)^sbst_ga_generations_total\s+(\d+)`)

func gaGenerationsMetric(baseURL string) int {
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := gaGenRe.FindSubmatch(body)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// TestGaCrashRecoveryE2E is the kill -9 half of the GA determinism
// pin: a real sbstd coordinator (journaled) is SIGKILLed
// after at least one generation is durably journaled but before the
// search finishes, then restarted on the same state directory. The
// resumed search must replay the journaled generations instead of
// re-evaluating them and finish byte-identical to an uninterrupted
// in-process run of the same spec.
func TestGaCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("crash recovery e2e in -short mode")
	}
	spec := api.JobSpec{
		Kind:     api.JobGaSearch,
		SubmitID: "crash-e2e/ga-1",
		Ga: &api.GaSpec{
			Population: 4, Generations: 6, Seed: 11,
			Slots: 6, Iterations: 20,
		},
	}
	ref, err := engine.NewExecutor(engine.ExecConfig{Workers: 2})(
		context.Background(), spec, func(engine.Progress) {})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin := buildSbstd(t, dir)
	port := freePort(t)
	baseURL := fmt.Sprintf("http://127.0.0.1:%d", port)
	logPath := filepath.Join(dir, "sbstd.log")

	startCoordinator := func() *exec.Cmd {
		t.Helper()
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-distributed",
			"-units", "2",
			"-lease-ttl", "2s",
			"-queue-workers", "1",
			"-journal", filepath.Join(dir, "journal.wal"),
		)
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		logf.Close() // the child holds its own descriptor
		return cmd
	}
	fastClient := func() *client.Client {
		return client.New(baseURL, client.Options{
			RetryBase: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond, MaxRetries: 4,
		})
	}
	waitHealthy := func(c *client.Client) {
		t.Helper()
		for {
			if _, err := c.Health(ctx); err == nil {
				return
			}
			if ctx.Err() != nil {
				log, _ := os.ReadFile(logPath)
				t.Fatalf("coordinator never became healthy; log:\n%s", log)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	coord := startCoordinator()
	c := fastClient()
	waitHealthy(c)

	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		w := New(Options{
			Coordinator: baseURL,
			ID:          id,
			Poll:        10 * time.Millisecond,
			Exec:        engine.ExecConfig{Workers: 1},
			Client:      fastClient(),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx) // transport errors during the outage are expected
		}()
	}

	// Kill once at least one generation has been journaled (the
	// generations counter increments only after the journal append) but
	// while the search is still running.
	for {
		if gaGenerationsMetric(baseURL) >= 1 {
			break
		}
		if j, jerr := c.Job(ctx, job.ID); jerr == nil &&
			(j.State == api.JobCompleted || j.State == api.JobFailed) {
			t.Fatalf("search reached %s before the kill; grow the spec", j.State)
		}
		if ctx.Err() != nil {
			t.Fatal("no generation journaled before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := coord.Process.Kill(); err != nil { // SIGKILL: no drain, no final checkpoint
		t.Fatal(err)
	}
	_ = coord.Wait()

	coord2 := startCoordinator()
	defer func() {
		_ = coord2.Process.Kill()
		_ = coord2.Wait()
	}()
	waitHealthy(c)

	res, err := c.WaitResult(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		log, _ := os.ReadFile(logPath)
		t.Fatalf("WaitResult after restart: %v\ncoordinator log:\n%s", err, log)
	}
	stopWorkers()
	wg.Wait()

	sameGa(t, "crash-resumed vs uninterrupted", ref, res)
	if res.Ga.ResumedFrom < 1 {
		t.Fatalf("ResumedFrom = %d, want >= 1 (the journaled prefix was replayed)", res.Ga.ResumedFrom)
	}
	// The restarted process only evaluated the tail generations.
	if left := gaGenerationsMetric(baseURL); left >= 6 {
		t.Fatalf("restarted coordinator counted %d generations, want < 6", left)
	}
}
