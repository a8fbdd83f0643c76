// Package engine is the campaign layer above the single-threaded fault
// simulator: a sharded multi-core fault simulation front-end, a bounded
// job queue with panic recovery and journal-backed resume, and the job
// executor behind the sbstd HTTP server.
//
// The sharding model exploits the independence of single-stuck-at
// faults: each faulty machine evolves in its own bit lane and never
// observes its batch-mates, so partitioning the collapsed fault list
// into contiguous shards and simulating each shard on its own simulator
// produces per-fault results bit-identical to the serial fault.Simulate.
// Simulate merges the shard results back into one fault.Result by
// index, so every downstream consumer (coverage curves, region
// breakdowns, diagnosis presimulation) is oblivious to the parallelism.
//
// Each shard runs the kernel selected by the embedded
// fault.SimOptions.Kernel — the compiled event-driven kernel by default
// (see docs/PERFORMANCE.md); sharding composes with it because shards
// share one immutable compiled program via logic.CompiledFor.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifacts"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

var (
	ctrSimRuns      = obs.Default().Counter("engine.sim.runs")
	ctrSimShards    = obs.Default().Counter("engine.sim.shards")
	ctrShardRetries = obs.Default().Counter("engine.shard_retries")

	// gaugeVectorsPerSec is the most recent campaign's whole-run
	// throughput; also surfaced through /v1/meta.
	gaugeVectorsPerSec = obs.Default().GaugeFamily("sbst_sim_vectors_per_second",
		"Most recent sharded simulation's vectors-per-second throughput.").Gauge()
	// histShardRate distributes per-shard throughput, exposing slow-core
	// or contended shards a whole-run average would hide.
	histShardRate = obs.Default().HistogramFamily("sbst_shard_vectors_per_second",
		"Per-shard vectors-per-second throughput of sharded simulations.",
		[]float64{1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}).Histogram()
)

// shardAttempts is the per-shard run budget: a shard that panics or
// returns a transient error (including chaos-injected ones) is retried
// from scratch once before the whole campaign fails. Fault simulation
// is deterministic, so a retried shard reproduces the identical result.
const shardAttempts = 2

// SimOptions extend fault.SimOptions with the shard count and the
// shadow cross-checking knobs.
type SimOptions struct {
	fault.SimOptions
	// Workers is the number of simulation shards, each with its own
	// simulator on its own goroutine. Zero selects runtime.NumCPU(); one
	// takes the exact serial fault.Simulate path.
	Workers int
	// ShadowSample is the fraction of each shard's faults re-simulated
	// through the serial reference kernel (fault.KernelReference) after
	// the shard completes, as a cross-check on the compiled kernel. On
	// divergence the compiled kernel is quarantined for that shard: the
	// shard falls back to a full reference re-run, the kernel.divergence
	// counter advances, and a diagnostic bundle is emitted. Zero selects
	// the default (0.005 ≈ <5% overhead); negative disables shadow
	// checking. Ignored when Kernel is already KernelReference or on the
	// Workers<=1 exact-serial path.
	ShadowSample float64
	// ShadowSeed seeds the deterministic shadow sample selection
	// (0 = 1).
	ShadowSeed int64
	// DiagDir, when non-empty, receives a JSON diagnostic bundle per
	// kernel divergence (shard, sampled faults, expected vs observed
	// detection cycles). Divergences are always reported through the
	// Sink and counters regardless.
	DiagDir string
	// DesignHash, when non-empty, enables the cross-job artifact cache:
	// the compiled program and the fault-free good trace are resolved
	// from (and published to) the artifact store under
	// (DesignHash, hash of the expanded vectors), so a repeated
	// submission of the same design and vector source performs zero
	// compiles and zero good-machine cycles. Use designs.Design.Hash —
	// the caller owns the guarantee that the hash matches the netlist.
	DesignHash string
	// Artifacts overrides the process-wide artifact store; nil selects
	// artifacts.Default(). Tests and benchmarks inject private stores.
	Artifacts *artifacts.Store
	// NoArtifacts disables artifact resolution even with a DesignHash
	// set — the cold path, for benchmarks that price compilation and
	// the good machine.
	NoArtifacts bool
}

// Simulate runs the vector sequence against the netlist with the fault
// list split into Workers contiguous shards simulated concurrently. The
// merged Result's DetectedAt and Detections are bit-identical to the
// serial fault.Simulate on the same fault list for every worker count.
//
// Progress (when set) receives aggregated snapshots: the cycle frontier
// every shard has passed, and detected/remaining summed over shards.
// The Sink (when set) receives each shard's own event stream under
// engine.sim/shard<k>/ plus aggregate segment and summary events under
// engine.sim. Ctx cancellation stops every shard at its next segment
// boundary; the merged result carries Interrupted and the highest cycle
// count any shard reached.
func Simulate(n *logic.Netlist, vecs fault.VectorSeq, opts SimOptions) (*fault.Result, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("engine: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	faults := opts.Faults
	if faults == nil {
		faults, _ = fault.Collapse(n, fault.AllFaults(n))
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	start := time.Now()
	// Artifact resolution (no-op without a DesignHash): shares the
	// compiled program and the completed good trace across jobs keyed by
	// content, and holds the store lease until every shard is done.
	release := resolveArtifacts(n, vecs, &opts)
	defer release()
	if workers <= 1 {
		serial := opts.SimOptions
		serial.Faults = faults
		res, err := fault.Simulate(n, vecs, serial)
		if err == nil && res != nil {
			recordRunRate(res.Cycles, start)
		}
		return res, err
	}

	ctrSimRuns.Add(1)
	ctrSimShards.Add(int64(workers))
	span := obs.NewSpan(opts.Sink, "engine.sim")
	span.Add("workers", int64(workers))
	span.Add("faults", int64(len(faults)))

	agg := newAggregator(span, opts.Progress, workers, vecs.Len())
	shardRes := make([]*fault.Result, workers)
	shardErr := make([]error, workers)
	var wg sync.WaitGroup
	// Seed every shard's remaining count before any shard goroutine
	// starts: emitLocked scans the full per-shard arrays.
	for s := 0; s < workers; s++ {
		agg.init(s, (s+1)*len(faults)/workers-s*len(faults)/workers)
	}
	for s := 0; s < workers; s++ {
		lo := s * len(faults) / workers
		hi := (s + 1) * len(faults) / workers
		shard := opts.SimOptions
		shard.Faults = faults[lo:hi]
		shard.Progress = agg.progressFn(s)
		if opts.Sink != nil {
			shard.Sink = prefixSink{prefix: fmt.Sprintf("engine.sim/shard%d/", s), sink: opts.Sink}
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Shard supervisor: a panicking or transiently failing shard
			// is retried once from scratch (simulation is deterministic,
			// so the retry reproduces the identical result) instead of
			// taking down the whole campaign — or, without the recover,
			// the whole process.
			for attempt := 1; ; attempt++ {
				shardStart := time.Now()
				res, err := runShard(n, vecs, shard, opts, s)
				if err == nil || attempt >= shardAttempts ||
					(opts.Ctx != nil && opts.Ctx.Err() != nil) {
					if err == nil && res != nil {
						if secs := time.Since(shardStart).Seconds(); secs > 0 {
							histShardRate.Observe(float64(res.Cycles) / secs)
						}
					}
					shardRes[s], shardErr[s] = res, err
					break
				}
				ctrShardRetries.Add(1)
				obs.Emit(opts.Sink, obs.Event{
					Type: obs.EventPhase,
					Name: fmt.Sprintf("engine.sim/shard%d", s),
					Fields: map[string]any{
						"event":   "shard_retry",
						"attempt": attempt,
						"error":   err.Error(),
					},
				})
			}
			agg.finish(s)
		}(s)
	}
	wg.Wait()

	res := &fault.Result{
		Faults:     faults,
		DetectedAt: make([]int32, len(faults)),
		Cycles:     vecs.Len(),
	}
	if opts.NDetect > 1 {
		res.Detections = make([]int32, len(faults))
	}
	for s := 0; s < workers; s++ {
		if shardErr[s] != nil {
			span.End()
			return nil, shardErr[s]
		}
	}
	applied := 0
	for s := 0; s < workers; s++ {
		lo := s * len(faults) / workers
		copy(res.DetectedAt[lo:lo+len(shardRes[s].DetectedAt)], shardRes[s].DetectedAt)
		if res.Detections != nil {
			copy(res.Detections[lo:lo+len(shardRes[s].Detections)], shardRes[s].Detections)
		}
		if shardRes[s].Interrupted {
			res.Interrupted = true
		}
		if shardRes[s].Cycles > applied {
			applied = shardRes[s].Cycles
		}
	}
	if res.Interrupted {
		res.Cycles = applied
	}
	span.Event(obs.EventSummary, map[string]any{
		"cycles":      res.Cycles,
		"faults":      len(faults),
		"detected":    res.Detected(),
		"coverage":    res.Coverage(),
		"workers":     workers,
		"interrupted": res.Interrupted,
	})
	span.End()
	recordRunRate(res.Cycles, start)
	return res, nil
}

// recordRunRate publishes the run's whole-campaign throughput gauge.
func recordRunRate(cycles int, start time.Time) {
	if secs := time.Since(start).Seconds(); secs > 0 {
		gaugeVectorsPerSec.Set(float64(cycles) / secs)
	}
}

// aggregator folds per-shard progress callbacks into global snapshots.
// Detected/remaining are summed over shards; the reported cycle count is
// the frontier every shard has passed (finished shards count as having
// reached the end of the sequence).
type aggregator struct {
	span     *obs.Span
	progress func(cycles, detected, remaining int)
	total    int

	mu        sync.Mutex
	cycles    []int
	detected  []int
	remaining []int
	done      []bool
}

func newAggregator(span *obs.Span, progress func(cycles, detected, remaining int), workers, total int) *aggregator {
	return &aggregator{
		span:      span,
		progress:  progress,
		total:     total,
		cycles:    make([]int, workers),
		detected:  make([]int, workers),
		remaining: make([]int, workers),
		done:      make([]bool, workers),
	}
}

func (a *aggregator) init(s, shardFaults int) {
	a.remaining[s] = shardFaults
}

func (a *aggregator) progressFn(s int) func(cycles, detected, remaining int) {
	if a.progress == nil && a.span == nil {
		return nil
	}
	return func(cycles, detected, remaining int) {
		a.mu.Lock()
		a.cycles[s] = cycles
		a.detected[s] = detected
		a.remaining[s] = remaining
		a.emitLocked()
		a.mu.Unlock()
	}
}

func (a *aggregator) finish(s int) {
	a.mu.Lock()
	a.done[s] = true
	a.emitLocked()
	a.mu.Unlock()
}

func (a *aggregator) emitLocked() {
	frontier := a.total
	detected, remaining := 0, 0
	for s := range a.cycles {
		c := a.cycles[s]
		if a.done[s] {
			c = a.total
		}
		if c < frontier {
			frontier = c
		}
		detected += a.detected[s]
		remaining += a.remaining[s]
	}
	if a.progress != nil {
		a.progress(frontier, detected, remaining)
	}
	a.span.Event(obs.EventSegment, map[string]any{
		"done":      frontier,
		"total":     a.total,
		"detected":  detected,
		"remaining": remaining,
		"coverage":  safeRatio(detected, detected+remaining),
	})
}

func safeRatio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// prefixSink namespaces a shard's event stream under the engine span so
// traces from concurrent shards stay distinguishable.
type prefixSink struct {
	prefix string
	sink   obs.Sink
}

func (p prefixSink) Emit(ev obs.Event) {
	ev.Name = p.prefix + ev.Name
	p.sink.Emit(ev)
}
