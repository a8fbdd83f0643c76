package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
)

// dist.go turns the executor into a coordinator: instead of simulating
// fault-sim campaigns in-process, it registers their fault lists with
// the LeasePool as work units and waits for the worker fleet to merge
// them. The sequential-ATPG kind (whose inner loop does not partition
// over faults the same way) keeps running locally; experiment jobs
// distribute both of their sub-campaigns. RunWorkUnit is the other half
// of the protocol: the exact per-unit computation a worker performs,
// kept in this package so coordinator and worker share the fixtures,
// the n-detect defaulting and the shard arithmetic that make merged
// results bit-identical to a single-process run.

// DistOptions configure NewDistExecutor.
type DistOptions struct {
	// Units is the number of work units each fault-sim campaign is
	// split into (default 8). More units than workers keeps the fleet
	// busy and shrinks the re-run cost of a lost lease.
	Units int
	// ShadowSample/ShadowSeed forward the shadow cross-checking policy
	// into every unit, so workers guard their compiled kernel exactly
	// like the in-process path does (see docs/RESILIENCE.md).
	ShadowSample float64
	ShadowSeed   int64
	// OnMerged, when set, receives each distributed campaign's merged
	// fault.Result before it is summarized into a JobResult — a
	// diagnostics hook, and the lever the e2e tests use to pin
	// bit-identity against the serial oracle.
	OnMerged func(jobID string, res *fault.Result)
}

// jobIDKey carries the queue's job ID through the executor context, so
// a distributed executor can register lease-pool work under the same ID
// the HTTP surface and the journal use.
type jobIDKey struct{}

func withJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey{}, id)
}

// JobIDFromContext returns the queue job ID the executor is running
// under, or "" outside a queue.
func JobIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// traceIDKey carries the job's campaign trace ID the same way.
type traceIDKey struct{}

func withTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFromContext returns the campaign trace ID the executor is
// running under, or "" outside a traced queue job.
func TraceIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

var anonCampaignID atomic.Int64

// campaignID resolves the ID a job's campaigns register under: the
// queue's job ID when running under a queue, a fresh synthetic ID
// otherwise.
func campaignID(ctx context.Context) string {
	if id := JobIDFromContext(ctx); id != "" {
		return id
	}
	return fmt.Sprintf("dist-%04d", anonCampaignID.Add(1))
}

// NewDistExecutor returns the coordinator Executor: every fault-sim
// campaign — a fault_sim or n_detect job, both halves of an experiment,
// each matrix cell, each GA individual — is split into work units on
// the lease pool and executed by the worker fleet; seq_atpg and
// online_burst run on the coordinator.
func NewDistExecutor(cfg ExecConfig, pool *LeasePool, opts DistOptions) Executor {
	if opts.Units <= 0 {
		opts.Units = 8
	}
	return newExecutor(cfg, distSim(pool, cfg, opts), true)
}

// distSim registers one campaign's units on the pool, waits for the
// fleet to merge them, and hands the merged result to opts.OnMerged.
func distSim(pool *LeasePool, cfg ExecConfig, opts DistOptions) campaignSim {
	return func(ctx context.Context, id string, d *designs.Design, spec JobSpec, update func(Progress)) (*fault.Result, error) {
		faults := d.Faults
		span := obs.NewSpan(obs.WithTrace(cfg.Sink, spec.TraceID), "engine.dist")
		span.Add("units", int64(opts.Units))
		span.Add("faults", int64(len(faults)))
		defer span.End()

		h, err := pool.Register(id, spec, len(faults), opts.Units,
			opts.ShadowSample, opts.ShadowSeed, update)
		if err != nil {
			return nil, err
		}
		merge, err := h.Wait(ctx)
		if err != nil {
			switch {
			case ctx.Err() != nil:
				return nil, fmt.Errorf("%w: distributed campaign cancelled", ErrInterrupted)
			case api.IsRetryable(err):
				// Pool shutdown or withdrawal: the environment, not the
				// spec, failed — the queue may retry within the job's
				// budget.
				return nil, fmt.Errorf("%w: %v", ErrTransient, err)
			default:
				return nil, err
			}
		}
		span.Event(obs.EventSummary, map[string]any{
			"cycles": merge.Cycles,
			"faults": len(faults),
		})
		res := &fault.Result{
			Faults:     faults,
			DetectedAt: merge.DetectedAt,
			Detections: merge.Detections,
			Cycles:     merge.Cycles,
		}
		if opts.OnMerged != nil {
			opts.OnMerged(id, res)
		}
		return res, nil
	}
}

// RunWorkUnit executes one leased unit: the worker-side half of the
// protocol. It resolves the unit's design through the registry cache,
// refuses units whose fault-list length disagrees with its own build
// (version skew would silently mis-index the merge), simulates the
// unit's fault slice with the same sharded engine and shadow
// cross-checking as a local campaign, and packs the detection bitmaps
// with their checksum.
func RunWorkUnit(ctx context.Context, workerID string, u api.WorkUnit,
	cfg ExecConfig, progress func(api.Progress)) (*api.UnitResult, error) {

	// Chaos point: a worker whose unit crashes, stalls, or fails with a
	// transient environment error before simulating.
	if f := chaos.Maybe("worker.unit"); f != nil {
		f.PanicNow()
		f.Sleep(ctx)
		if ierr := f.Err(); ierr != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransient, ierr)
		}
	}
	d, err := GetDesign(u.Spec.Design)
	if err != nil {
		return nil, err
	}
	faults := d.Faults
	if u.TotalFaults != len(faults) {
		return nil, fmt.Errorf("engine: unit %d of job %s expects %d faults, this build of design %s collapses %d — refusing mismatched design",
			u.Unit, u.JobID, u.TotalFaults, d.ID, len(faults))
	}
	if u.FaultLo < 0 || u.FaultHi > len(faults) || u.FaultLo >= u.FaultHi {
		return nil, fmt.Errorf("engine: unit %d of job %s has bad fault range [%d,%d)", u.Unit, u.JobID, u.FaultLo, u.FaultHi)
	}
	start := time.Now()
	res, err := simulateFaults(ctx, d, u.Spec, SimOptions{
		SimOptions: fault.SimOptions{
			Faults: faults[u.FaultLo:u.FaultHi],
			Sink:   obs.WithTrace(cfg.Sink, u.Spec.TraceID),
		},
		Workers:      cfg.Workers,
		ShadowSample: u.ShadowSample,
		ShadowSeed:   u.ShadowSeed,
	}, progress)
	if err != nil {
		return nil, err
	}
	out := api.NewUnitResult(workerID, res.DetectedAt, res.Detections, res.Cycles, time.Since(start).Seconds())
	// Chaos point: a result corrupted after checksumming (bad NIC, bad
	// RAM on the upload path) — the coordinator's checksum verification
	// must catch it and requeue the unit.
	if f := chaos.Maybe("worker.result"); f != nil {
		if corrupted, ok := corruptPacked(out.DetectedAt, f); ok {
			out.DetectedAt = corrupted
		}
	}
	return out, nil
}

// corruptPacked flips one seeded-random bit in a packed bitmap's first
// word (corrupt-kind fires only).
func corruptPacked(s string, f *chaos.Fire) (string, bool) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(buf) < 8 {
		return s, false
	}
	w := binary.LittleEndian.Uint64(buf)
	cw := f.CorruptWord(w)
	if cw == w {
		return s, false
	}
	binary.LittleEndian.PutUint64(buf, cw)
	return base64.StdEncoding.EncodeToString(buf), true
}

// IsTerminalUnitError reports whether a unit failure is worth retrying
// on another lease (environment trouble, interruption) or is inherent
// to the unit (bad spec, mismatched core) and should charge hard.
func IsTerminalUnitError(err error) bool {
	return err != nil && !errors.Is(err, ErrTransient) && !errors.Is(err, ErrInterrupted)
}
