package main

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/selftest"
)

// The executor defaults a seq_atpg job runs at (engine.runSeqATPG).
const (
	atpgFrames        = 3
	atpgSampleEvery   = 40
	atpgMaxBacktracks = 300
)

// tally counts attempted jobs and the failed ones: failed, refused or
// lost jobs plus jobs whose result disagreed with the oracle.
func tally(jobs []*jobRecord) (attempted, failed int) {
	for _, j := range jobs {
		if j.err != nil || j.mismatch != "" {
			failed++
		}
	}
	return len(jobs), failed
}

// sample picks up to n jobs spread evenly over the run, starting at a
// seed-chosen offset so successive runs check different jobs.
func sample(jobs []*jobRecord, n int, seed int64) []*jobRecord {
	if len(jobs) <= n {
		return jobs
	}
	off := int(uint64(seed) % uint64(len(jobs)))
	out := make([]*jobRecord, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, jobs[(off+k*len(jobs)/n)%len(jobs)])
	}
	return out
}

func defaultDesign() (*designs.Design, error) { return engine.GetDesign(designs.DefaultID) }

// serialOracle is the reference every fault-sim result is checked
// against: the exact serial engine.Simulate path with no artifact store.
func serialOracle(d *designs.Design, vecs fault.VectorSeq) (*fault.Result, error) {
	return engine.Simulate(d.Netlist, vecs, engine.SimOptions{
		SimOptions:  fault.SimOptions{Faults: d.Faults},
		Workers:     1,
		NoArtifacts: true,
	})
}

// compareFaultSim reports how a fault_sim job result differs from the
// oracle's, or "" when they agree exactly.
func compareFaultSim(got *api.JobResult, want *fault.Result) string {
	switch {
	case got.Faults != len(want.Faults):
		return fmt.Sprintf("faults %d, oracle %d", got.Faults, len(want.Faults))
	case got.Detected != want.Detected():
		return fmt.Sprintf("detected %d, oracle %d", got.Detected, want.Detected())
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, oracle %d", got.Cycles, want.Cycles)
	case got.Coverage != want.Coverage():
		return fmt.Sprintf("coverage %v, oracle %v", got.Coverage, want.Coverage())
	}
	return ""
}

// checkFaultSimJobs re-simulates up to n of the run's fault_sim jobs
// serially and marks every disagreement on its job record.
func checkFaultSimJobs(n int) func(context.Context, int64, []*jobRecord) error {
	return func(_ context.Context, seed int64, jobs []*jobRecord) error {
		d, err := defaultDesign()
		if err != nil {
			return err
		}
		for _, j := range sample(jobs, n, seed) {
			v := j.spec.Vectors
			want, err := serialOracle(d, bist.PseudorandomVectors(v.Count, uint64(v.Seed)))
			if err != nil {
				return err
			}
			j.mismatch = compareFaultSim(j.res, want)
		}
		return nil
	}
}

// phenotypeVectors expands a GA phenotype exactly as the executor
// expands a program stimulus.
func phenotypeVectors(src api.VectorSource) (fault.Vectors, error) {
	prog, err := isa.Assemble(src.Program)
	if err != nil {
		return nil, err
	}
	return selftest.Expand(&selftest.Program{Loop: prog}, selftest.ExpandOptions{
		Iterations: src.Iterations, Seed1: uint64(src.Seed), Seed2: uint64(src.Seed2),
		Taps1: src.Taps, ReseedEvery: src.ReseedEvery, Reseeds: src.Reseeds,
	}), nil
}

// compareGa checks a ga_search result for internal consistency and
// against the oracle re-simulation of its best phenotype.
func compareGa(got *api.JobResult, generations int, want *fault.Result) string {
	g := got.Ga
	switch {
	case g == nil:
		return "no ga block"
	case len(g.Generations) != generations:
		return fmt.Sprintf("%d trajectory entries, want %d", len(g.Generations), generations)
	case g.BestCoverage != want.Coverage():
		return fmt.Sprintf("best coverage %v, phenotype re-simulates to %v", g.BestCoverage, want.Coverage())
	case g.BestCycles != want.Cycles:
		return fmt.Sprintf("best cycles %d, phenotype re-simulates to %d", g.BestCycles, want.Cycles)
	case g.BestFitness != evolve.Fitness(want.Coverage(), want.Cycles):
		return fmt.Sprintf("best fitness %v, re-simulated %v", g.BestFitness, evolve.Fitness(want.Coverage(), want.Cycles))
	case got.Detected != want.Detected():
		return fmt.Sprintf("detected %d, phenotype re-simulates to %d", got.Detected, want.Detected())
	}
	return ""
}

func checkGaJobs(_ context.Context, _ int64, jobs []*jobRecord) error {
	d, err := defaultDesign()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if j.res.Ga == nil {
			j.mismatch = "no ga block"
			continue
		}
		vecs, err := phenotypeVectors(j.res.Ga.Best)
		if err != nil {
			j.mismatch = fmt.Sprintf("best phenotype does not assemble: %v", err)
			continue
		}
		want, err := serialOracle(d, vecs)
		if err != nil {
			return err
		}
		j.mismatch = compareGa(j.res, j.spec.Ga.Generations, want)
	}
	return nil
}

// compareSeqATPG reports how a seq_atpg job differs from the
// in-process bist.SequentialATPGOpts run.
func compareSeqATPG(got *api.JobResult, want *bist.ATPGBaselineResult) string {
	switch {
	case got.Faults != want.TotalFaults:
		return fmt.Sprintf("faults %d, oracle %d", got.Faults, want.TotalFaults)
	case got.TestsFound != want.TestsFound:
		return fmt.Sprintf("tests found %d, oracle %d", got.TestsFound, want.TestsFound)
	case got.Untestable != want.Untestable:
		return fmt.Sprintf("untestable %d, oracle %d", got.Untestable, want.Untestable)
	case got.Aborted != want.Aborted:
		return fmt.Sprintf("aborted %d, oracle %d", got.Aborted, want.Aborted)
	case got.Coverage != want.Coverage():
		return fmt.Sprintf("coverage %v, oracle %v", got.Coverage, want.Coverage())
	}
	return ""
}

// seqATPGOracle runs the campaign a seq_atpg job with this fault
// sample runs (0 = the executor default).
func seqATPGOracle(sampleEvery int) (*bist.ATPGBaselineResult, error) {
	if sampleEvery == 0 {
		sampleEvery = atpgSampleEvery
	}
	d, err := defaultDesign()
	if err != nil {
		return nil, err
	}
	return bist.SequentialATPGOpts(d.Netlist, bist.SeqATPGOptions{
		Frames: atpgFrames, SampleEvery: sampleEvery, MaxBacktracks: atpgMaxBacktracks,
	})
}

func checkSeqATPGJobs(_ context.Context, _ int64, jobs []*jobRecord) error {
	if len(jobs) == 0 {
		return nil
	}
	want, err := seqATPGOracle(jobs[0].spec.SampleEvery)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		j.mismatch = compareSeqATPG(j.res, want)
	}
	return nil
}
