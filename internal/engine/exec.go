package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/selftest"
)

// ExecConfig configures the standard executor.
type ExecConfig struct {
	// Workers is the default fault-simulation shard count for jobs that
	// leave Spec.Workers at zero (0 = all cores).
	Workers int
	// Sink receives each campaign's event stream.
	Sink obs.Sink
}

// The default metrics-driven self-test program is generated once on
// first use; built designs live in the designCache (designcache.go).
var (
	defProgOnce sync.Once
	defProg     *selftest.Program
)

// specNDetect resolves a spec's effective n-detect target: zero for
// plain campaigns, the spec's value (defaulted to the paper's n=5)
// for n_detect campaigns. Coordinator and workers must share this
// defaulting for unit results to merge bit-identically.
func specNDetect(spec JobSpec) int {
	if spec.Kind != JobNDetect {
		return 0
	}
	if spec.NDetect < 2 {
		return 5
	}
	return spec.NDetect
}

// campaignSim runs one fault-sim campaign — a fault_sim or n_detect
// spec on design d — and returns its per-fault result. id names the
// campaign: the queue job ID, or a matrix cell or GA individual ID
// derived from it. NewExecutor simulates in-process; NewDistExecutor
// registers the campaign on the lease pool and waits for the fleet.
// Every job kind built from fault-sim campaigns runs through one.
type campaignSim func(ctx context.Context, id string, d *designs.Design, spec JobSpec, update func(Progress)) (*fault.Result, error)

// NewExecutor returns the production Executor: it resolves the spec's
// design through the registry cache and runs every job kind against
// it, sharding fault simulation through Simulate.
func NewExecutor(cfg ExecConfig) Executor {
	return newExecutor(cfg, localSim(cfg), false)
}

// newExecutor dispatches a spec by kind. parallel lets a ga_search
// evaluate a generation's individuals concurrently; it suits a sim
// whose campaigns run elsewhere, not one that already spreads each
// campaign over every local core.
func newExecutor(cfg ExecConfig, sim campaignSim, parallel bool) Executor {
	return func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		// Chaos point: an executor that crashes, stalls, or fails with a
		// retryable environment error before the campaign starts.
		if f := chaos.Maybe("engine.exec"); f != nil {
			f.PanicNow()
			f.Sleep(ctx)
			if ierr := f.Err(); ierr != nil {
				return nil, fmt.Errorf("%w: %v", ErrTransient, ierr)
			}
		}
		id := campaignID(ctx)
		if spec.Kind == JobCampaignMatrix {
			return runMatrix(ctx, sim, id, spec, update)
		}
		d, err := GetDesign(spec.Design)
		if err != nil {
			return nil, err
		}
		switch spec.Kind {
		case JobFaultSim, JobNDetect:
			return runFaultSim(ctx, sim, id, d, spec, update)
		case JobSeqATPG:
			return runSeqATPG(ctx, cfg, d, spec, update)
		case JobExperiment:
			return runExperiment(ctx, sim, id, d, spec, update)
		case JobOnlineBurst:
			return runOnlineBurst(ctx, d, spec, update)
		case JobGaSearch:
			return runGaSearch(ctx, sim, parallel, id, d, spec, update)
		default:
			return nil, fmt.Errorf("engine: unknown job kind %q", spec.Kind)
		}
	}
}

// localSim simulates a campaign in-process, sharded across cfg.Workers
// cores unless the spec sets its own count.
func localSim(cfg ExecConfig) campaignSim {
	return func(ctx context.Context, _ string, d *designs.Design, spec JobSpec, update func(Progress)) (*fault.Result, error) {
		return simulateFaults(ctx, d, spec, SimOptions{
			SimOptions: fault.SimOptions{Faults: d.Faults, Sink: cfg.Sink},
			Workers:    cfg.Workers,
		}, update)
	}
}

// simulateFaults fault-simulates spec's stimulus on design d against
// opts.Faults: the simulation behind both a local campaign and a
// worker's unit. spec.Workers, when set, overrides opts.Workers; update
// may be nil.
func simulateFaults(ctx context.Context, d *designs.Design, spec JobSpec, opts SimOptions, update func(Progress)) (*fault.Result, error) {
	vecs, err := resolveVectors(d, spec.Vectors)
	if err != nil {
		return nil, err
	}
	if spec.Workers != 0 {
		opts.Workers = spec.Workers
	}
	total := vecs.Len()
	opts.NDetect = specNDetect(spec)
	opts.SegmentLen = spec.SegmentLen
	opts.Ctx = ctx
	opts.DesignHash = d.Hash
	opts.Progress = func(cycles, detected, remaining int) {
		if update != nil {
			update(Progress{
				Done: cycles, Total: total,
				Detected: detected, Remaining: remaining,
				Coverage: safeRatio(detected, detected+remaining),
			})
		}
	}
	res, err := Simulate(d.Netlist, vecs, opts)
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, fmt.Errorf("%w: %d/%d vectors applied", ErrInterrupted, res.Cycles, total)
	}
	return res, nil
}

// resolveVectors expands a VectorSource into the stimulus stream for a
// design. BIST vectors come from the 17-bit LFSR generator on the DSP
// core (bit-compatible with the paper's published coverage numbers)
// and from a width-matched LFSR on everything else. Program and
// self-test stimulus execute on the DSP template architecture, so they
// are refused for designs without the instruction port.
func resolveVectors(d *designs.Design, src VectorSource) (fault.Vectors, error) {
	switch src.Kind {
	case api.VecBIST:
		if d.InstructionDriven() {
			return bist.PseudorandomVectors(src.Count, uint64(src.Seed)), nil
		}
		return designs.PseudorandomVectors(len(d.Netlist.Inputs()), src.Count, uint64(src.Seed)), nil
	case api.VecProgram, api.VecSelfTest:
		if !d.InstructionDriven() {
			return nil, fmt.Errorf("engine: design %s has no instruction port; %s stimulus needs the dsp design", d.ID, src.Kind)
		}
		var prog *selftest.Program
		if src.Kind == api.VecProgram {
			loop, err := isa.Assemble(src.Program)
			if err != nil {
				return nil, err
			}
			prog = &selftest.Program{Loop: loop}
		} else {
			prog = generatedProgram(src)
		}
		return selftest.Expand(prog, selftest.ExpandOptions{
			Iterations: orDefault(src.Iterations, 1000), Seed1: uint64(src.Seed), Seed2: uint64(src.Seed2),
			Taps1: src.Taps, ReseedEvery: src.ReseedEvery, Reseeds: src.Reseeds,
		}), nil
	default:
		return nil, fmt.Errorf("engine: unknown vector source %q", src.Kind)
	}
}

// generatedProgram runs the metrics-driven generator. The default
// configuration is generated once and shared; explicit CTrials/OGoodRuns
// produce a fresh program.
func generatedProgram(src VectorSource) *selftest.Program {
	if src.CTrials == 0 && src.OGoodRuns == 0 {
		defProgOnce.Do(func() {
			eng := metrics.NewEngine(metrics.Config{CTrials: 8000, OGoodRuns: 6, Seed: 1})
			defProg, _ = selftest.NewGenerator(eng).Generate()
		})
		return defProg
	}
	cfg := metrics.Config{CTrials: orDefault(src.CTrials, 8000), OGoodRuns: orDefault(src.OGoodRuns, 6), Seed: 1}
	prog, _ := selftest.NewGenerator(metrics.NewEngine(cfg)).Generate()
	return prog
}

// runFaultSim runs one fault-sim campaign and summarizes it.
func runFaultSim(ctx context.Context, sim campaignSim, id string, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	res, err := sim(ctx, id, d, spec, update)
	if err != nil {
		return nil, err
	}
	jr := &JobResult{
		Faults:   len(res.Faults),
		Detected: res.Detected(),
		Cycles:   res.Cycles,
		Coverage: res.Coverage(),
	}
	if ndet := specNDetect(spec); ndet > 1 {
		jr.NDetect = ndet
		jr.NDetectCoverage = res.NDetectCoverage(ndet)
	}
	return jr, nil
}

func runSeqATPG(ctx context.Context, cfg ExecConfig, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	res, err := bist.SequentialATPGOpts(d.Netlist, bist.SeqATPGOptions{
		Frames:        orDefault(spec.Frames, 3),
		SampleEvery:   orDefault(spec.SampleEvery, 40),
		MaxBacktracks: orDefault(spec.MaxBacktracks, 300),
		Sink:          cfg.Sink,
		Progress: func(done, total int) {
			update(Progress{Done: done, Total: total})
			// The ATPG loop has no cancellation hook; a drain deadline
			// surfaces as an interrupted job at the next fault boundary.
			if ctx != nil && ctx.Err() != nil {
				panic(ErrInterrupted)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Faults:     res.TotalFaults,
		Coverage:   res.Coverage(),
		TestsFound: res.TestsFound,
		Untestable: res.Untestable,
		Aborted:    res.Aborted,
	}, nil
}

// runExperiment is the composite campaign behind the paper's headline
// comparison: fault-simulate the requested stimulus, then a raw-LFSR
// BIST baseline of the same length, reporting both coverages side by
// side. The baseline's vector count is the first campaign's cycle
// count, so a coordinator never expands program or selftest stimuli
// itself.
func runExperiment(ctx context.Context, sim campaignSim, id string, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	sub := spec
	sub.Kind = JobFaultSim
	main, err := runFaultSim(ctx, sim, id, d, sub, update)
	if err != nil {
		return nil, err
	}
	seed := spec.Vectors.Seed
	if seed == 0 {
		seed = 1
	}
	base := sub
	base.Vectors = VectorSource{Kind: api.VecBIST, Count: main.Cycles, Seed: seed}
	baseline, err := runFaultSim(ctx, sim, id, d, base, update)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Faults:   main.Faults,
		Detected: main.Detected,
		Cycles:   main.Cycles,
		Coverage: main.Coverage,
		Sub: map[string]*JobResult{
			"stimulus":      main,
			"bist_baseline": baseline,
		},
	}, nil
}

// matrixCellScale is the per-cell width of a matrix job's progress
// axis: cell i occupies [i*scale, (i+1)*scale) of Progress.Done, so a
// dashboard sees smooth forward motion across cells of very different
// vector counts.
const matrixCellScale = 1000

// runMatrix fans spec.Matrix's designs × schemes cross product into
// independent fault-sim campaigns (designs-major order), rolling the
// per-cell results into the JobResult.Matrix table. Each cell runs
// under a derived campaign ID ("<job>/<design>+s<scheme>"), one cell
// at a time: on a fleet the parallelism lives inside each cell's work
// units, and sequential cells keep every worker's design cache hot on
// one design at a time.
func runMatrix(ctx context.Context, sim campaignSim, jobID string, spec JobSpec, update func(Progress)) (*JobResult, error) {
	m := spec.Matrix
	if m == nil || len(m.Designs) == 0 || len(m.Schemes) == 0 {
		return nil, fmt.Errorf("engine: campaign_matrix job needs matrix designs and schemes")
	}
	nCells := len(m.Designs) * len(m.Schemes)
	out := &JobResult{Matrix: make([]api.MatrixCell, 0, nCells)}
	ci := 0
	for _, id := range m.Designs {
		d, err := GetDesign(id)
		if err != nil {
			return nil, err
		}
		for si, scheme := range m.Schemes {
			cell := spec
			cell.Kind = JobFaultSim
			cell.Design = d.ID
			cell.Vectors = scheme
			cell.Matrix = nil
			base := ci * matrixCellScale
			cellID := fmt.Sprintf("%s/%s+s%d", jobID, d.ID, si)
			r, err := runFaultSim(ctx, sim, cellID, d, cell, func(p Progress) {
				frac := 0
				if p.Total > 0 {
					frac = p.Done * matrixCellScale / p.Total
				}
				update(Progress{
					Done: base + frac, Total: nCells * matrixCellScale,
					Detected: out.Detected + p.Detected, Remaining: p.Remaining,
					Coverage: safeRatio(out.Detected+p.Detected, out.Faults+len(d.Faults)),
				})
			})
			if err != nil {
				return nil, fmt.Errorf("engine: matrix cell %s × %s[%d]: %w", d.ID, scheme.Kind, si, err)
			}
			out.Matrix = append(out.Matrix, api.MatrixCell{
				Design: d.ID, Scheme: scheme.Kind, SchemeIndex: si,
				Faults: r.Faults, Detected: r.Detected, Cycles: r.Cycles, Coverage: r.Coverage,
			})
			out.Faults += r.Faults
			out.Detected += r.Detected
			out.Cycles += r.Cycles
			ci++
			update(Progress{
				Done: ci * matrixCellScale, Total: nCells * matrixCellScale,
				Detected: out.Detected,
				Coverage: safeRatio(out.Detected, out.Faults),
			})
		}
	}
	out.Coverage = safeRatio(out.Detected, out.Faults)
	return out, nil
}
