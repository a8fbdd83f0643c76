package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
)

// E13's ga_search configuration (E13_GA.json): population, instruction
// slots and loop iterations. One generation keeps the fleet probe
// inside a traced run's time budget.
const (
	gaPopulation  = 12
	gaSlots       = 10
	gaIterations  = 60
	gaGenerations = 1
)

// setupReps is how many times a run launches the system from scratch;
// setup_s is their median.
const setupReps = 5

// workload is one closed-loop traffic mix. Every job input derives
// from the run seed and the job index, never from which client ran it.
//
// Each workload keeps one compute thread busy at a time: one client,
// one queue worker, single-shard jobs, one single-shard sbst-worker.
// On a host of a few shared cores, a job split over every core is set
// by its slowest shard and reads several times noisier than the same
// job on one core; sharding is timed in-process by the traced run
// (engine.simulate_s, engine.shard_imbalance).
type workload struct {
	name, why    string
	clients      int
	journal      bool
	queueWorkers int // 0 keeps the coordinator default
	// workers is the sbst-worker fleet size; a workload with workers
	// runs a -distributed coordinator.
	workers int
	// rssJobs is how many jobs of a segment finish before the
	// coordinator's peak RSS is read. The artifact store keeps every new
	// vector set's good trace up to its byte budget, so a peak read at
	// the window's end would grow with throughput; a fixed job count
	// keeps the memory metric on the same work however fast jobs run.
	rssJobs int
	warmup  func(seed int64, rep int) api.JobSpec
	job     func(seed int64, i int) api.JobSpec
	// oracle checks completed jobs outside the timed window.
	oracle func(ctx context.Context, seed int64, jobs []*jobRecord) error
}

var workloads = map[string]*workload{
	"small_jobs": {
		name:         "small_jobs",
		why:          "latency floor: 64-vector journaled fault_sim jobs from one client; per-job costs and a short kernel pass",
		clients:      1,
		journal:      true,
		queueWorkers: 1,
		rssJobs:      50,
		warmup:       func(seed int64, rep int) api.JobSpec { return bistJob(64, 1, deriveSeed(seed, -1-rep)) },
		job:          func(seed int64, i int) api.JobSpec { return bistJob(64, 1, deriveSeed(seed, i)) },
		oracle:       checkFaultSimJobs(12),
	},
	"seq_atpg": {
		name:    "seq_atpg",
		why:     "sequential ATPG on every 400th fault at executor frames and backtracks: nearly all time in atpg.Generate, no fault-sim kernel",
		clients: 1,
		rssJobs: 1,
		// A seq_atpg job has no seeded input: every job is the same
		// campaign. The warm-up targets every 4000th fault: it builds the
		// design and exercises the ATPG path without paying a full one.
		warmup: func(int64, int) api.JobSpec { return api.JobSpec{Kind: api.JobSeqATPG, SampleEvery: 4000} },
		job: func(int64, int) api.JobSpec {
			return api.JobSpec{Kind: api.JobSeqATPG, SampleEvery: seqATPGSampleEvery}
		},
		oracle: checkSeqATPGJobs,
	},
}

// seqATPGSampleEvery is the seq_atpg workload's fault sample. At the
// executor default (every 40th fault, 233 targets) a job takes seconds
// and a run times a handful of them; every 400th fault gives tens of
// jobs a run, whose fastest holds still between runs. The traced run's
// atpg layer metrics keep the default sample.
const seqATPGSampleEvery = 400

// gaFleet is the fleet the traced run probes with one E13 ga_search:
// a -distributed, journaled coordinator with one single-shard
// sbst-worker. It is the only system that runs the lease pool, the
// workers and the phenotype reuse path. It is not a timed workload: a
// ga_search job takes 10-16 s, so a run would time a handful, and the
// fastest of a handful moves with the host's load (see gatedE2E).
var gaFleet = &workload{
	name:    "ga_search_fleet",
	clients: 1,
	journal: true,
	workers: 1,
	job:     func(seed int64, i int) api.JobSpec { return gaJob(gaPopulation, deriveSeed(seed, i)) },
	oracle:  checkGaJobs,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func bistJob(count, workers int, seed int64) api.JobSpec {
	return api.JobSpec{
		Kind:    api.JobFaultSim,
		Vectors: api.VectorSource{Kind: api.VecBIST, Count: count, Seed: seed},
		Workers: workers,
	}
}

func gaJob(population int, seed int64) api.JobSpec {
	return api.JobSpec{Kind: api.JobGaSearch, Ga: &api.GaSpec{
		Population: population, Generations: gaGenerations, Seed: seed,
		Slots: gaSlots, Iterations: gaIterations,
	}}
}

// deriveSeed maps (run seed, job index) to a positive 31-bit seed with
// splitmix64, so neighbouring run seeds share no job inputs.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(i))*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z&0x7FFFFFFF) | 1
}

// jobRecord is one closed-loop job as the client saw it.
type jobRecord struct {
	idx      int
	spec     api.JobSpec
	id       string
	traced   bool
	submitS  float64 // POST /v1/jobs round trip
	latencyS float64 // submit start to terminal SSE frame
	done     time.Time
	res      *api.JobResult
	err      error  // failed, refused or lost
	mismatch string // oracle disagreement, when checked
	// Server timestamps, fetched for traced jobs only.
	queueWaitS, sseLagS float64
}

// e2eRun is everything the end-to-end measurement produced.
type e2eRun struct {
	setupS    []float64
	jobs      []*jobRecord
	windowS   float64
	rssMB     float64 // median over segments of the coordinator's VmHWM after rssJobs jobs
	attempted int
	failed    int
	checkErr  error
}

// measure launches the system setupReps times, timing each launch to
// the end of its warm-up job. The measured window is split over all
// launches, so one unlucky process cannot set a run's figures; each
// launch is stopped before the next starts. The oracle checks the jobs
// once every process has exited.
func measure(ctx context.Context, cfg config, w *workload, dir string, tr *tracer) (*e2eRun, error) {
	r := &e2eRun{}
	window := time.Duration(cfg.seconds) * time.Second / setupReps
	var rss []float64
	tr.fleetDelta = map[string]float64{}
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		f, err := startFleet(ctx, cfg.bin, filepath.Join(dir, fmt.Sprintf("fleet%d", rep)), w, cfg.trace)
		if err != nil {
			return nil, err
		}
		warm := runJob(ctx, f.client, w.warmup(cfg.seed, rep), -1, false)
		if warm.err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up job: %w", warm.err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		before := scrapeFleet(ctx, f, cfg.trace)
		var (
			peak    float64
			peakErr error
			read    bool
		)
		readRSS := func() { read = true; peak, peakErr = f.peakRSSMB() }
		jobs, secs := closedLoop(ctx, f.client, w, cfg, tr, len(r.jobs), rep, window, readRSS)
		r.jobs = append(r.jobs, jobs...)
		r.windowS += secs
		if !read { // the segment ended before w.rssJobs jobs
			readRSS()
		}
		if peakErr != nil {
			f.stop()
			return nil, peakErr
		}
		rss = append(rss, peak)
		for k, v := range diffScrape(before, scrapeFleet(ctx, f, cfg.trace)) {
			tr.fleetDelta[k] += v
		}
		f.stop()
	}
	r.rssMB = median(rss)

	completed := make([]*jobRecord, 0, len(r.jobs))
	for _, j := range r.jobs {
		if j.err == nil {
			completed = append(completed, j)
		}
	}
	r.checkErr = w.oracle(ctx, cfg.seed, completed)
	r.attempted, r.failed = tally(r.jobs)
	for _, j := range r.jobs {
		if j.err != nil {
			fmt.Printf("job %d failed: %v\n", j.idx, j.err)
		} else if j.mismatch != "" {
			fmt.Printf("job %d (%s) oracle mismatch: %s\n", j.idx, j.id, j.mismatch)
		}
	}
	return r, nil
}

// closedLoop runs the workload's clients for one window segment; each
// client submits its next job only after its previous one finished.
// Job indices continue from first, so every job of a run has its own
// inputs. In traced runs every other job is traced, so the traced and
// untraced jobs can be compared; the parity flips with each segment so
// neither set holds only the early jobs of a fresh process.
// atRSSJobs runs once, when the segment's w.rssJobs-th job has finished.
func closedLoop(ctx context.Context, c *client.Client, w *workload, cfg config, tr *tracer,
	first, segment int, window time.Duration, atRSSJobs func()) ([]*jobRecord, float64) {

	var (
		mu   sync.Mutex
		next int
		jobs []*jobRecord
		lat  []float64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := next
				// A job starts only if at least half of the median
				// latency so far fits in what is left of the window: a
				// segment holds the window's length in jobs, rounded, and
				// ends within half a job of the window's end.
				expectedEnd := time.Since(start) + time.Duration(median(lat)*float64(time.Second)/2)
				if (n > 0 && expectedEnd > window) || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				i := first + n
				traced := cfg.trace && (n+segment)%2 == 1
				j := runJob(ctx, c, w.job(cfg.seed, i), i, traced)
				if traced && j.err == nil {
					tr.recordJob(ctx, c, j)
				}
				mu.Lock()
				jobs = append(jobs, j)
				if j.err == nil {
					lat = append(lat, j.latencyS)
				}
				mark := len(jobs) == w.rssJobs
				mu.Unlock()
				if mark {
					atRSSJobs()
				}
			}
		}()
	}
	wg.Wait()
	end := start
	for _, j := range jobs {
		if j.done.After(end) {
			end = j.done
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].idx < jobs[b].idx })
	return jobs, end.Sub(start).Seconds()
}

// runJob submits one job and follows its SSE stream to the terminal
// frame. A refused submit (4xx/5xx after the client's retries) or a
// failed job is recorded in err.
func runJob(ctx context.Context, c *client.Client, spec api.JobSpec, idx int, traced bool) *jobRecord {
	j := &jobRecord{idx: idx, spec: spec, traced: traced}
	start := time.Now()
	sub, err := c.SubmitJob(ctx, spec)
	j.submitS = time.Since(start).Seconds()
	if err != nil {
		j.err, j.done = fmt.Errorf("submit: %w", err), time.Now()
		return j
	}
	j.id = sub.ID
	res, err := c.Follow(ctx, sub.ID, 0, nil)
	j.done = time.Now()
	j.latencyS = j.done.Sub(start).Seconds()
	var apiErr *api.Error
	switch {
	case errors.As(err, &apiErr):
		j.err = fmt.Errorf("job %s: %s: %s", sub.ID, apiErr.Code, apiErr.Message)
	case err != nil:
		j.err = fmt.Errorf("follow %s: %w", sub.ID, err)
	default:
		j.res = res
	}
	return j
}
