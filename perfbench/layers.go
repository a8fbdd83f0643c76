package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/artifacts"
	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/obs"
)

// layerReps is how many times a cheap layer call is repeated; its
// metric is the median.
const layerReps = 5

// workCounters are the deterministic obs.Default() counters a traced
// run records per workload and requires to repeat exactly.
var workCounters = []string{
	"faultsim.gate_evals", "faultsim.good_cycles",
	"engine.sim.program_builds", "engine.sim.trace_prefills",
	"podem.implications", "podem.backtracks",
}

// layerRun is the traced run's per-layer result.
type layerRun struct {
	metrics  map[string]metric
	checkErr error
}

// layerSet accumulates per-layer metrics.
type layerSet struct {
	m  map[string]metric
	tr *tracer
}

func (l *layerSet) set(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

// timeReps runs fn layerReps times as spans and returns the median.
func (l *layerSet) timeReps(name string, fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < layerReps; i++ {
		s, err := l.tr.timed(name, "layers", fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d = append(d, s)
	}
	return median(d), nil
}

// measureLayers times the public calls into every layer from the
// benchmark's own code, derives the client, queue and journal layer
// metrics from the traced window and the lease, worker and artifact
// ones from a fleet probe, replays one job of the workload twice to pin
// the work counters, and reports the tracing overhead.
func measureLayers(ctx context.Context, cfg config, w *workload, e2e *e2eRun, tr *tracer) (*layerRun, error) {
	l := &layerSet{m: map[string]metric{}, tr: tr}
	out := &layerRun{metrics: l.m}
	steps := []func() error{
		func() error { return setupLayers(l) },
		func() error { return kernelLayers(l, cfg.seed) },
		func() error { return smallJobLayers(l, cfg) },
		func() error { return gaLayers(ctx, l, cfg.seed) },
		func() error { return atpgLayers(l) },
	}
	_, err := tr.timed("layers", "", func() error {
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	windowLayers(l, e2e, tr.fleetDelta)
	probe, probeDelta, err := probeFleet(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	fleetLayers(l, probeDelta)

	// Work counters: replay one job of this workload twice; the deltas
	// must repeat exactly. The first replay also samples the peak heap.
	first, peak, err := replayCounted(w.name, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	second, _, err := replayCounted(w.name, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	for _, name := range workCounters {
		l.set("counter."+name, "count", float64(first[name]))
		if first[name] != second[name] {
			out.checkErr = fmt.Errorf("counter %s: %d then %d on identical replays", name, first[name], second[name])
		}
	}
	l.set("runtime.heap_peak_mb", "MB", peak)

	if err := gaFleet.oracle(ctx, cfg.seed, []*jobRecord{probe}); err != nil {
		return nil, err
	}
	if probe.mismatch != "" {
		out.checkErr = fmt.Errorf("fleet probe %s: %s", probe.id, probe.mismatch)
	} else if out.checkErr == nil {
		out.checkErr = checkGaTrajectory(ctx, probe)
	}
	return out, nil
}

func setupLayers(l *layerSet) error {
	d, err := l.timeReps("designs.build", func() error {
		_, err := designs.Build(designs.DefaultID)
		return err
	})
	if err != nil {
		return err
	}
	l.set("designs.build_s", "s", d)
	design, err := defaultDesign()
	if err != nil {
		return err
	}
	c, err := l.timeReps("logic.compile", func() error {
		logic.Compile(design.Netlist)
		return nil
	})
	l.set("logic.compile_s", "s", c)
	return err
}

// primedArtifacts returns the compiled program and the complete good
// trace for vecs from a fresh private store, as engine.Simulate's
// artifact path would hand them to the kernel.
func primedArtifacts(d *designs.Design, vecs fault.VectorSeq) (*logic.Compiled, *logic.GoodTrace, func()) {
	store := artifacts.NewStore(0)
	h := store.Lease(artifacts.Key{Design: d.Hash, Vectors: artifacts.HashVectors(vecs.Len(), vecs.At)})
	prog := h.Program(func() *logic.Compiled { return logic.Compile(d.Netlist) })
	tr := h.Trace(d.Netlist.NumNets(), vecs.Len(), func(tr *logic.GoodTrace) {
		fault.FillGoodTrace(d.Netlist, prog, vecs, tr, vecs.Len())
	})
	return prog, tr, h.Release
}

// kernelLayers measures the Table-1 path: the serial kernel with its
// program and trace pre-supplied, the sharded engine.Simulate as a
// coordinator runs it, and BENCH_4's best configuration on this host.
func kernelLayers(l *layerSet, seed int64) error {
	d, err := defaultDesign()
	if err != nil {
		return err
	}
	vecs := bist.PseudorandomVectors(8192, uint64(deriveSeed(seed, 0)))
	prog, trace, release := primedArtifacts(d, vecs)
	evals := obs.Default().Counter("faultsim.gate_evals")
	e0 := evals.Load()
	var kres *fault.Result
	k, err := l.tr.timed("fault.kernel", "layers", func() error {
		var err error
		kres, err = fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: d.Faults, Program: prog, Trace: trace})
		return err
	})
	release()
	if err != nil {
		return err
	}
	l.set("fault.kernel_s", "s", k)
	l.set("fault.gate_evals_per_cycle", "count", float64(evals.Load()-e0)/float64(kres.Cycles))

	good := obs.Default().Counter("faultsim.good_cycles")
	g0 := good.Load()
	shards := &shardClock{first: map[string]time.Time{}, last: map[string]time.Time{}}
	var sres *fault.Result
	s, err := l.tr.timed("engine.simulate", "layers", func() error {
		var err error
		sres, err = engine.Simulate(d.Netlist, vecs, engine.SimOptions{
			SimOptions: fault.SimOptions{Faults: d.Faults, Sink: shards},
			Workers:    runtime.NumCPU(),
			DesignHash: d.Hash,
			Artifacts:  artifacts.NewStore(0),
		})
		return err
	})
	if err != nil {
		return err
	}
	if sres.Detected() != kres.Detected() {
		return fmt.Errorf("engine.Simulate detected %d, serial kernel %d", sres.Detected(), kres.Detected())
	}
	l.set("engine.simulate_s", "s", s)
	l.set("fault.good_cycles_per_job", "count", float64(good.Load()-g0))
	l.set("engine.shard_imbalance", "ratio", shards.imbalance())

	// BENCH_4's best entry: serial, W=8, warm artifact store, 8,192
	// vectors of LFSR seed 1.
	b4vecs := bist.PseudorandomVectors(8192, 1)
	store := artifacts.NewStore(0)
	b4 := func() error {
		_, err := engine.Simulate(d.Netlist, b4vecs, engine.SimOptions{
			SimOptions: fault.SimOptions{Faults: d.Faults, LaneWords: 8},
			Workers:    1, DesignHash: d.Hash, Artifacts: store,
		})
		return err
	}
	if err := b4(); err != nil {
		return err
	}
	b, err := l.tr.timed("bench4.warm_serial_w8", "layers", b4)
	if err != nil {
		return err
	}
	l.set("fault.kernel_bench4_warm_vectors_per_s", "1/s", float64(b4vecs.Len())/b)
	return nil
}

// shardClock records when each engine.Simulate shard emitted its first
// and last event; a shard's span between them is its busy time.
type shardClock struct {
	mu          sync.Mutex
	first, last map[string]time.Time
}

func (s *shardClock) Emit(ev obs.Event) {
	rest, ok := strings.CutPrefix(ev.Name, "engine.sim/shard")
	if !ok {
		return
	}
	shard, _, _ := strings.Cut(rest, "/")
	now := time.Now()
	s.mu.Lock()
	if _, seen := s.first[shard]; !seen {
		s.first[shard] = now
	}
	s.last[shard] = now
	s.mu.Unlock()
}

// imbalance is the slowest shard's busy time over the mean.
func (s *shardClock) imbalance() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum, max float64
	for k, f := range s.first {
		d := s.last[k].Sub(f).Seconds()
		sum += d
		if d > max {
			max = d
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(s.first)))
}

// smallJobLayers prices a 64-vector job's fixed costs: simulator set-up
// (engine.Simulate minus the kernel's own cycles) and the fsync'd
// journal append.
func smallJobLayers(l *layerSet, cfg config) error {
	d, err := defaultDesign()
	if err != nil {
		return err
	}
	// The set-up share of a 64-vector job is small against its kernel
	// time, so it is the difference of two medians over more reps.
	var totals, kernels []float64
	for i := 0; i < 3*layerReps; i++ {
		vecs := bist.PseudorandomVectors(64, uint64(deriveSeed(cfg.seed, i)))
		total, err := l.tr.timed("engine.simulate_64", "layers", func() error {
			_, err := engine.Simulate(d.Netlist, vecs, engine.SimOptions{
				SimOptions: fault.SimOptions{Faults: d.Faults},
				Workers:    1, DesignHash: d.Hash, Artifacts: artifacts.NewStore(0),
			})
			return err
		})
		if err != nil {
			return err
		}
		prog, trace, release := primedArtifacts(d, vecs)
		kernel, err := l.tr.timed("fault.kernel_64", "layers", func() error {
			_, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: d.Faults, Program: prog, Trace: trace})
			return err
		})
		release()
		if err != nil {
			return err
		}
		totals = append(totals, total)
		kernels = append(kernels, kernel)
	}
	l.set("fault.setup_s", "s", median(totals)-median(kernels))

	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := engine.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	defer j.Close()
	spec := bistJob(64, 1, deriveSeed(cfg.seed, 0))
	n := 0
	a, err := l.timeReps("engine.journal_append", func() error {
		n++
		id := fmt.Sprintf("job-%04d", n)
		return j.Append(engine.JournalRecord{
			T: "submit", JobID: id, At: time.Now(), NextID: n + 1,
			Job: &api.Job{ID: id, Spec: spec, State: api.JobQueued, Created: time.Now()},
		}, true)
	})
	l.set("engine.journal_append_s", "s", a)
	return err
}

// gaLayers measures the GA layers in-process: breeding, phenotype
// expansion, and one individual evaluated through the lease protocol
// (Register, then nproc goroutines acquiring and running its units
// with engine.RunWorkUnit, as sbst-worker does without the HTTP hop).
func gaLayers(ctx context.Context, l *layerSet, seed int64) error {
	taps, err := lfsr.MaximalTaps(16, 4)
	if err != nil {
		return err
	}
	params := evolve.Params{Population: gaPopulation, Slots: gaSlots, Seed: deriveSeed(seed, 0), Taps: taps}
	search := evolve.New(params)
	pop := search.Population()
	fitness := make([]float64, len(pop))
	for i := range fitness {
		fitness[i] = float64((i*7)%len(pop)) / float64(len(pop))
	}
	b, err := l.timeReps("evolve.breed", func() error {
		evolve.New(params).Advance(fitness)
		return nil
	})
	if err != nil {
		return err
	}
	l.set("evolve.breed_s", "s", b)
	src := phenotypeSource(pop[0])
	e, err := l.timeReps("selftest.expand", func() error {
		_, err := phenotypeVectors(src)
		return err
	})
	if err != nil {
		return err
	}
	l.set("selftest.expand_s", "s", e)

	d, err := defaultDesign()
	if err != nil {
		return err
	}
	pool := engine.NewLeasePool(engine.PoolOptions{})
	defer pool.Close()
	const jobID, units = "bench/g00+i01", 8
	cell := api.JobSpec{Kind: api.JobFaultSim, Vectors: phenotypeSource(pop[1])}
	registered := time.Now()
	handle, err := pool.Register(jobID, cell, len(d.Faults), units, 0, 0, nil)
	if err != nil {
		return err
	}
	defer pool.Release(jobID)
	var (
		mu                   sync.Mutex
		acquire, wait, unitS []float64
		completed            int
		unitErr              error
		wg                   sync.WaitGroup
	)
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				lease, err := pool.Acquire(api.LeaseRequest{WorkerID: id})
				granted := time.Now()
				mu.Lock()
				finished := completed == units || unitErr != nil
				if err != nil {
					unitErr = err
				}
				mu.Unlock()
				if err != nil || finished {
					return
				}
				if lease == nil {
					time.Sleep(time.Millisecond) // units still leased elsewhere
					continue
				}
				res, err := engine.RunWorkUnit(ctx, id, lease.Unit, engine.ExecConfig{Workers: runtime.NumCPU()}, nil)
				ran := time.Since(granted).Seconds()
				if err == nil {
					err = pool.Complete(lease.ID, res)
				}
				l.tr.add(span{Name: "worker.unit", Parent: "layers", StartS: granted.Sub(l.tr.t0).Seconds(), DurS: ran})
				mu.Lock()
				acquire = append(acquire, granted.Sub(t0).Seconds())
				wait = append(wait, granted.Sub(registered).Seconds())
				unitS = append(unitS, ran)
				completed++
				if err != nil {
					unitErr = err
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("bench-inproc-%d", k))
	}
	wg.Wait()
	if unitErr != nil {
		return fmt.Errorf("in-process lease replay: %w", unitErr)
	}
	if _, err := handle.Wait(ctx); err != nil {
		return err
	}
	l.set("engine.lease_acquire_s", "s", median(acquire))
	l.set("engine.lease_wait_s", "s", median(wait))
	l.set("worker.unit_s", "s", median(unitS))
	return nil
}

func phenotypeSource(g evolve.Genome) api.VectorSource {
	return api.VectorSource{
		Kind: api.VecProgram, Program: g.Source(),
		Seed: int64(g.Seed1), Seed2: int64(g.Seed2), Taps: g.Taps1,
		ReseedEvery: g.ReseedEvery, Reseeds: g.Reseeds, Iterations: gaIterations,
	}
}

// atpgLayers runs the sequential-ATPG baseline at the executor
// defaults with a sink collecting each target's PODEM time, and times
// the time-frame unroll on its own.
func atpgLayers(l *layerSet) error {
	d, err := defaultDesign()
	if err != nil {
		return err
	}
	u, err := l.timeReps("bist.unroll", func() error {
		_, err := atpg.Unroll(d.Netlist, atpgFrames)
		return err
	})
	if err != nil {
		return err
	}
	l.set("bist.unroll_s", "s", u)
	sink := &targetClock{}
	var res *bist.ATPGBaselineResult
	_, err = l.tr.timed("bist.sequential_atpg", "layers", func() error {
		var err error
		res, err = bist.SequentialATPGOpts(d.Netlist, bist.SeqATPGOptions{
			Frames: atpgFrames, SampleEvery: atpgSampleEvery, MaxBacktracks: atpgMaxBacktracks, Sink: sink,
		})
		return err
	})
	if err != nil {
		return err
	}
	targets := float64(res.FaultsTried)
	l.set("atpg.generate_s", "s", sink.seconds/float64(sink.n))
	l.set("atpg.implications_per_target", "count", float64(res.Stats.Implications)/targets)
	l.set("atpg.backtracks_per_target", "count", float64(res.Stats.Backtracks)/targets)
	l.set("atpg.aborted_ratio", "ratio", float64(res.Aborted)/targets)
	return nil
}

// targetClock sums the per-target PODEM seconds bist reports.
type targetClock struct {
	mu      sync.Mutex
	seconds float64
	n       int
}

func (t *targetClock) Emit(ev obs.Event) {
	if ev.Type != obs.EventPhase {
		return
	}
	if s, ok := ev.Fields["seconds"].(float64); ok {
		t.mu.Lock()
		t.seconds += s
		t.n++
		t.mu.Unlock()
	}
}

// windowLayers derives the layer metrics only the live system shows
// from the traced window: client and queue timings of the traced jobs,
// the tracing overhead, and the journal's bytes per job (0 where the
// workload's coordinator keeps no journal).
func windowLayers(l *layerSet, e2e *e2eRun, d map[string]float64) {
	var submit, queue, lag, traced, untraced []float64
	for _, j := range e2e.jobs {
		if j.err != nil {
			continue
		}
		if !j.traced {
			untraced = append(untraced, j.latencyS)
			continue
		}
		traced = append(traced, j.latencyS)
		submit = append(submit, j.submitS)
		queue = append(queue, j.queueWaitS)
		lag = append(lag, j.sseLagS)
	}
	l.set("client.submit_s", "s", median(submit))
	l.set("engine.queue_wait_s", "s", median(queue))
	l.set("client.sse_lag_s", "s", median(lag))
	overhead := 0.0
	if len(traced) > 0 && len(untraced) > 0 {
		overhead = median(traced)/median(untraced) - 1
	}
	l.set("trace.job_latency_overhead_ratio", "ratio", overhead)
	completed := 0
	for _, j := range e2e.jobs {
		if j.err == nil {
			completed++
		}
	}
	l.set("engine.journal_bytes_per_job", "bytes", ratio(sampleSum(d, "coord:sbst_journal_bytes"), float64(completed)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fleetLayers derives the lease, worker and artifact layer metrics from
// the fleet probe's metric deltas.
func fleetLayers(l *layerSet, d map[string]float64) {
	granted := sampleSum(d, `coord:sbst_lease_events_total{event="granted"}`)
	lost := sampleSum(d, `coord:sbst_lease_events_total{event="failed"}`) +
		sampleSum(d, `coord:sbst_lease_events_total{event="expired"}`) +
		sampleSum(d, `coord:sbst_lease_events_total{event="bad_result"}`)
	registrations := sampleSum(d, "coord:dist_jobs")
	l.set("engine.lease_units_per_job", "count", ratio(granted, registrations))
	l.set("engine.lease_failed_ratio", "ratio", ratio(lost, granted))
	l.set("worker.good_cycles_per_individual", "count", ratio(sampleSum(d, "worker:faultsim_good_cycles"), registrations))
	hits := sampleSum(d, "coord:sbst_artifact_hits_total") + sampleSum(d, "worker:sbst_artifact_hits_total")
	misses := sampleSum(d, "coord:sbst_artifact_misses_total") + sampleSum(d, "worker:sbst_artifact_misses_total")
	l.set("artifacts.hit_ratio", "ratio", ratio(hits, hits+misses))
}

// replayCounted runs one job of the workload in-process, as the system
// runs it, and returns the work-counter deltas; with sampleHeap it also
// returns the peak Go heap seen while the job ran.
func replayCounted(workload string, seed int64, sampleHeap bool) (map[string]int64, float64, error) {
	d, err := defaultDesign()
	if err != nil {
		return nil, 0, err
	}
	var job func() error
	switch workload {
	case "small_jobs":
		spec := workloads[workload].job(seed, 0)
		workers := spec.Workers
		if workers == 0 {
			workers = runtime.NumCPU()
		}
		job = func() error {
			_, err := engine.Simulate(d.Netlist, bist.PseudorandomVectors(spec.Vectors.Count, uint64(spec.Vectors.Seed)),
				engine.SimOptions{
					SimOptions: fault.SimOptions{Faults: d.Faults},
					Workers:    workers, DesignHash: d.Hash, Artifacts: artifacts.NewStore(0),
				})
			return err
		}
	case "seq_atpg":
		job = func() error {
			_, err := seqATPGOracle(seqATPGSampleEvery)
			return err
		}
	default:
		return nil, 0, fmt.Errorf("no replay for workload %s", workload)
	}
	before := obs.Default().Snapshot()
	var peak float64
	var err2 error
	if sampleHeap {
		peak, err2 = peakHeapMB(job)
	} else {
		err2 = job()
	}
	if err2 != nil {
		return nil, 0, err2
	}
	after := obs.Default().Snapshot()
	delta := map[string]int64{}
	for _, name := range workCounters {
		delta[name] = after[name] - before[name]
	}
	return delta, peak, nil
}

// peakHeapMB runs fn while sampling the live Go heap every millisecond
// and returns the highest sample.
func peakHeapMB(fn func() error) (float64, error) {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64()) / (1 << 20)
	}
	peak := read()
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		p := peak
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				if v := read(); v > p {
					p = v
				}
				done <- p
				return
			case <-t.C:
				if v := read(); v > p {
					p = v
				}
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// checkGaTrajectory replays a fleet ga_search job through the
// in-process local executor: the fleet and the local run must give the
// same trajectory and the same best genome.
func checkGaTrajectory(ctx context.Context, j *jobRecord) error {
	local, err := engine.NewExecutor(engine.ExecConfig{})(ctx, j.spec, func(api.Progress) {})
	if err != nil {
		return fmt.Errorf("local ga_search replay: %w", err)
	}
	got, want := j.res.Ga, local.Ga
	if got.BestGenome != want.BestGenome || len(got.Generations) != len(want.Generations) {
		return fmt.Errorf("ga trajectory: fleet best %s over %d generations, local %s over %d",
			got.BestGenome, len(got.Generations), want.BestGenome, len(want.Generations))
	}
	for i := range got.Generations {
		if got.Generations[i] != want.Generations[i] {
			return fmt.Errorf("ga trajectory generation %d: fleet %+v, local %+v", i, got.Generations[i], want.Generations[i])
		}
	}
	return nil
}

// probeFleet launches gaFleet, runs one traced E13 ga_search on it and
// returns the job with the fleet's metric deltas across it. It prints
// the job's generation_s, the end-to-end metric its layers move.
func probeFleet(ctx context.Context, cfg config, tr *tracer) (*jobRecord, map[string]float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "probe-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(ctx, cfg.bin, dir, gaFleet, true)
	if err != nil {
		return nil, nil, err
	}
	before := scrapeFleet(ctx, f, true)
	j := runJob(ctx, f.client, gaFleet.job(cfg.seed, 0), 0, true)
	if j.err == nil {
		tr.recordJob(ctx, f.client, j)
	}
	delta := diffScrape(before, scrapeFleet(ctx, f, true))
	f.stop()
	if j.err != nil {
		return nil, nil, fmt.Errorf("fleet probe: %w", j.err)
	}
	if g := j.res.Ga; g != nil && len(g.Generations) > 0 {
		fmt.Printf("fleet probe %s: ga_search population %d, generation_s %.6g s\n",
			gaFleet.name, gaPopulation, j.latencyS/float64(len(g.Generations)))
	}
	return j, delta, nil
}
