package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/evolve"
)

// The oracle is trusted only after a planted fault has been shown to
// trip it: each perturbed result below must be flagged and must count
// in failed_ratio, while the exact result passes.

func failedRatio(t *testing.T, jobs []*jobRecord) float64 {
	t.Helper()
	r := &e2eRun{jobs: jobs, windowS: 1}
	r.attempted, r.failed = tally(jobs)
	for _, m := range r.metrics() {
		if m.name == "failed_ratio" {
			return m.value
		}
	}
	t.Fatal("no failed_ratio metric")
	return 0
}

func TestPlantedFaultSimResultIsFlagged(t *testing.T) {
	d, err := defaultDesign()
	if err != nil {
		t.Fatal(err)
	}
	spec := bistJob(64, 1, deriveSeed(7, 0))
	want, err := serialOracle(d, bist.PseudorandomVectors(64, uint64(spec.Vectors.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	exact := &api.JobResult{Faults: len(want.Faults), Detected: want.Detected(), Cycles: want.Cycles, Coverage: want.Coverage()}
	planted := *exact
	planted.Detected--
	jobs := []*jobRecord{
		{idx: 0, spec: spec, res: exact},
		{idx: 1, spec: spec, res: &planted},
	}
	if err := checkFaultSimJobs(len(jobs))(context.Background(), 7, jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[0].mismatch != "" {
		t.Fatalf("exact result flagged: %s", jobs[0].mismatch)
	}
	if jobs[1].mismatch == "" {
		t.Fatal("detected-1 result passed the oracle")
	}
	if got := failedRatio(t, jobs); got != 0.5 {
		t.Fatalf("failed_ratio = %v, want 0.5", got)
	}
}

func TestPlantedSeqATPGResultIsFlagged(t *testing.T) {
	want := &bist.ATPGBaselineResult{TotalFaults: 9320, TestsFound: 1, Untestable: 208, Aborted: 24, DetectedTotal: 93}
	exact := &api.JobResult{Faults: 9320, Coverage: want.Coverage(), TestsFound: 1, Untestable: 208, Aborted: 24}
	if m := compareSeqATPG(exact, want); m != "" {
		t.Fatalf("exact result flagged: %s", m)
	}
	planted := *exact
	planted.Aborted++
	if compareSeqATPG(&planted, want) == "" {
		t.Fatal("aborted+1 result passed the oracle")
	}
}

func TestPlantedGaResultIsFlagged(t *testing.T) {
	d, err := defaultDesign()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialOracle(d, bist.PseudorandomVectors(64, 11))
	if err != nil {
		t.Fatal(err)
	}
	fit := evolve.Fitness(want.Coverage(), want.Cycles)
	exact := &api.JobResult{Detected: want.Detected(), Ga: &api.GaResult{
		Generations:  []api.GaGeneration{{BestFitness: fit, BestCoverage: want.Coverage(), BestCycles: want.Cycles}},
		BestFitness:  fit,
		BestCoverage: want.Coverage(),
		BestCycles:   want.Cycles,
	}}
	if m := compareGa(exact, 1, want); m != "" {
		t.Fatalf("exact result flagged: %s", m)
	}
	ga := *exact.Ga
	ga.BestCoverage -= 1.0 / float64(len(want.Faults))
	planted := *exact
	planted.Ga = &ga
	if compareGa(&planted, 1, want) == "" {
		t.Fatal("best coverage one fault low passed the oracle")
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark reports:
// the gated end-to-end metrics and every per-layer metric of
// layers.json, in the same units and directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"small_jobs", "seq_atpg"}) {
		t.Errorf("workloads %v", names)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: why differs from the benchmark's own", w.Name)
		}
	}
	names = names[:0]
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, gatedE2E) {
		t.Errorf("end_to_end %v, benchmark reports %v", names, gatedE2E)
	}
	targets, err := layerTargets()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != len(b.PerLayer) {
		t.Fatalf("per_layer has %d metrics, layers.json %d", len(b.PerLayer), len(targets))
	}
	for i, m := range b.PerLayer {
		tg := targets[i]
		if m.Name != tg.Name || m.Unit != tg.Unit || m.Better != tg.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json has %s %s %s", i, m, tg.Name, tg.Unit, tg.Better)
		}
	}
}
