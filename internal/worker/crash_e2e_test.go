package worker

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/client"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/fault"
)

// buildSbstd compiles the coordinator binary into dir.
func buildSbstd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "sbstd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sbstd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build sbstd: %v\n%s", err, out)
	}
	return bin
}

// freePort grabs an ephemeral TCP port and releases it for the
// coordinator to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestCoordinatorCrashRecoveryE2E is the kill -9 acceptance run: a real
// sbstd process (distributed mode, journaled) takes a
// campaign_matrix job, gets SIGKILLed while a matrix cell is mid-lease,
// and is restarted on the same state directory. The restarted
// coordinator must (a) serve the same job for a retried submit_id, (b)
// keep the worker fleet and an SSE follower attached across the
// restart, and (c) finish the campaign with every cell bit-identical
// to a serial single-process oracle — exactly what an uninterrupted
// run would have served.
func TestCoordinatorCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("crash recovery e2e in -short mode")
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
			"-units", "4",
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
	fastClient := func() *client.Client {
		return client.New(baseURL, client.Options{
			RetryBase: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond, MaxRetries: 4,
		})
	}

	coord := startCoordinator()
	c := fastClient()
	waitHealthy(c)

	// Two cells: the instruction-driven DSP core (the slow one — it is
	// still mid-flight at the kill) and a bundled .bench netlist.
	designIDs := []string{"dsp", "bench/s27"}
	schemes := []api.VectorSource{{Kind: api.VecBIST, Count: 240, Seed: 7}}
	spec := api.JobSpec{
		Kind:     api.JobCampaignMatrix,
		SubmitID: "crash-e2e/matrix-1",
		Matrix:   &api.MatrixSpec{Designs: designIDs, Schemes: schemes},
	}
	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A client retrying its acked submit gets the same job back.
	if dup, err := c.SubmitJob(ctx, spec); err != nil || dup.ID != job.ID {
		t.Fatalf("duplicate submit: %v, %v; want the original job %s", dup, err, job.ID)
	}

	// The follower rides the SSE stream through the crash: a patient
	// retry budget bridges the coordinator's downtime, and Last-Event-ID
	// resume picks the stream back up on the restarted process.
	followC := client.New(baseURL, client.Options{
		RetryBase: 50 * time.Millisecond, RetryMax: 300 * time.Millisecond, MaxRetries: 200,
	})
	type followOut struct {
		res *api.JobResult
		err error
	}
	followCh := make(chan followOut, 1)
	go func() {
		res, err := followC.Follow(ctx, job.ID, 0, nil)
		followCh <- followOut{res, err}
	}()

	// The worker fleet outlives the coordinator: lease-acquire errors
	// idle-and-retry, so the same two processes serve both lives.
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

	// Kill -9 once the campaign is demonstrably mid-lease: a worker
	// currently holds a work unit (healthz lease occupancy; matrix cells
	// lease under derived cell IDs, so the job's own Dist is not the
	// signal here).
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Leases != nil && h.Leases.Leased > 0 {
			break
		}
		if j, jerr := c.Job(ctx, job.ID); jerr == nil &&
			(j.State == api.JobCompleted || j.State == api.JobFailed) {
			t.Fatalf("campaign reached %s before the kill; grow the spec", j.State)
		}
		if ctx.Err() != nil {
			t.Fatal("campaign never went mid-lease before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := coord.Process.Kill(); err != nil { // SIGKILL: no drain, no final checkpoint
		t.Fatal(err)
	}
	_ = coord.Wait()

	// Second life: same binary, same flags, same state directory.
	coord2 := startCoordinator()
	defer func() {
		_ = coord2.Process.Kill()
		_ = coord2.Wait()
	}()
	waitHealthy(c)

	// The journal-replayed queue still knows the job; the retried submit
	// is served idempotently instead of double-running the campaign.
	again, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID {
		t.Fatalf("post-restart duplicate submit created %s, want %s", again.ID, job.ID)
	}

	res, err := c.WaitResult(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		log, _ := os.ReadFile(logPath)
		t.Fatalf("WaitResult after restart: %v\ncoordinator log:\n%s", err, log)
	}

	// Serial oracle per cell: the recovered, re-run campaign must serve
	// numbers bit-identical to a single uninterrupted process.
	if len(res.Matrix) != len(designIDs)*len(schemes) {
		t.Fatalf("served %d matrix cells, want %d", len(res.Matrix), len(designIDs)*len(schemes))
	}
	var sumF, sumD, sumC int
	for _, cell := range res.Matrix {
		d, err := engine.GetDesign(cell.Design)
		if err != nil {
			t.Fatal(err)
		}
		scheme := schemes[cell.SchemeIndex]
		var vecs fault.Vectors
		if d.InstructionDriven() {
			vecs = bist.PseudorandomVectors(scheme.Count, uint64(scheme.Seed))
		} else {
			vecs = designs.PseudorandomVectors(len(d.Netlist.Inputs()), scheme.Count, uint64(scheme.Seed))
		}
		want, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: d.Faults})
		if err != nil {
			t.Fatal(err)
		}
		if cell.Faults != len(want.DetectedAt) || cell.Detected != want.Detected() || cell.Cycles != want.Cycles {
			t.Fatalf("cell %s/s%d served %d/%d in %d cycles; oracle %d/%d in %d",
				cell.Design, cell.SchemeIndex, cell.Detected, cell.Faults, cell.Cycles,
				want.Detected(), len(want.DetectedAt), want.Cycles)
		}
		sumF += cell.Faults
		sumD += cell.Detected
		sumC += cell.Cycles
	}
	if res.Faults != sumF || res.Detected != sumD || res.Cycles != sumC {
		t.Fatalf("headline %d/%d/%d != cell sums %d/%d/%d",
			res.Faults, res.Detected, res.Cycles, sumF, sumD, sumC)
	}

	// The SSE follower crossed the restart and saw the same terminal
	// result the polled route served.
	select {
	case out := <-followCh:
		if out.err != nil {
			t.Fatalf("follower: %v", out.err)
		}
		if out.res.Faults != res.Faults || out.res.Detected != res.Detected || out.res.Cycles != res.Cycles {
			t.Fatalf("follower result %+v != polled result %+v", out.res, res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE follower never reached the result frame")
	}

	stopWorkers()
	wg.Wait()
}
