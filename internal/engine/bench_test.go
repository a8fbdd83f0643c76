package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/artifacts"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
)

// benchWorkload is the Table-1-scale pseudorandom campaign on the
// gate-level DSP core: the full collapsed fault list against 8192 LFSR
// vectors, the same workload shape cmd/experiments runs for the paper
// tables. Compare BenchmarkSimulateSerial with the sharded variants:
//
//	go test -bench Simulate -benchtime 3x ./internal/engine
//
// The acceptance bar is ≥ 2× wall-clock speedup at 4+ workers.
const benchVectors = 8192

func benchSimulate(b *testing.B, workers int, kernel fault.Kernel) {
	core, faults := testCore(b)
	vecs := bist.PseudorandomVectors(benchVectors, 1)
	evals := obs.Default().Counter("faultsim.gate_evals")
	evals0 := evals.Load()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(core.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: faults, Kernel: kernel},
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		cov = res.Coverage()
	}
	b.ReportMetric(cov*100, "coverage%")
	if kernel == fault.KernelCompiled {
		// Default options auto-pick the stripe width; label the result
		// with the width that actually ran (8 on the full fault list).
		b.ReportMetric(float64(fault.EffectiveLaneWords(fault.SimOptions{}, len(faults))), "lane-words")
	}
	b.ReportMetric(float64(benchVectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
	// Gate evaluations per applied vector cycle, from the obs counter
	// delta over the timed runs (the saving the event-driven kernel's
	// whole point; the reference kernel counts whole gates, the compiled
	// kernel compiled instructions).
	b.ReportMetric(float64(evals.Load()-evals0)/(float64(benchVectors)*float64(b.N)), "gate-evals/cycle")
}

func BenchmarkSimulateSerial(b *testing.B) { benchSimulate(b, 1, fault.KernelCompiled) }

// BenchmarkSimulateLanes sweeps the compiled kernel's bitslice stripe
// width (fault.SimOptions.LaneWords) on the serial Table-1 workload;
// scripts/bench_kernel.sh records the sweep into BENCH_4.json. Coverage
// must be bit-identical at every width — the sub-benchmarks fail on any
// divergence from width 1, which is what CI's -race smoke asserts.
func BenchmarkSimulateLanes(b *testing.B) {
	core, faults := testCore(b)
	vecs := bist.PseudorandomVectors(benchVectors, 1)
	evals := obs.Default().Counter("faultsim.gate_evals")
	var covFirst float64
	haveFirst := false
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			evals0 := evals.Load()
			var cov float64
			for i := 0; i < b.N; i++ {
				res, err := Simulate(core.Netlist, vecs, SimOptions{
					SimOptions: fault.SimOptions{Faults: faults, LaneWords: w},
					Workers:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
				cov = res.Coverage()
			}
			// Parity across whichever widths actually ran (a -bench
			// filter may exclude w=1).
			if !haveFirst {
				covFirst, haveFirst = cov, true
			} else if cov != covFirst {
				b.Fatalf("coverage diverges across lane widths: %.6f vs %.6f at w=%d", covFirst, cov, w)
			}
			b.ReportMetric(cov*100, "coverage%")
			b.ReportMetric(float64(w), "lane-words")
			b.ReportMetric(float64(benchVectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
			b.ReportMetric(float64(evals.Load()-evals0)/(float64(benchVectors)*float64(b.N)), "gate-evals/cycle")
		})
	}
}

// BenchmarkSimulateArtifacts prices the content-addressed artifact
// cache on the serial Table-1 workload at the winning lane width:
// `cold` resolves through a fresh store every iteration, so each run
// pays the compile and the whole-trace good-machine prefill; `warm`
// resolves through a store primed once outside the timer, so every
// timed run performs zero compiles and zero good-machine cycles — the
// repeated-submission / matrix-cell path. The cold/warm gap is the
// per-job cost the cache retires; BENCH_4.json records both entries
// with their artifact state.
func BenchmarkSimulateArtifacts(b *testing.B) {
	d, err := GetDesign(designs.DefaultID)
	if err != nil {
		b.Fatal(err)
	}
	vecs := bist.PseudorandomVectors(benchVectors, 1)
	const lanes = 8
	run := func(b *testing.B, store *artifacts.Store) float64 {
		res, err := Simulate(d.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: d.Faults, LaneWords: lanes},
			Workers:    1,
			DesignHash: d.Hash,
			Artifacts:  store,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Coverage()
	}
	report := func(b *testing.B, cov float64) {
		b.ReportMetric(cov*100, "coverage%")
		b.ReportMetric(lanes, "lane-words")
		b.ReportMetric(float64(benchVectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
	}
	b.Run("cold", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			cov = run(b, artifacts.NewStore(0))
		}
		report(b, cov)
	})
	b.Run("warm", func(b *testing.B) {
		store := artifacts.NewStore(0)
		goodCycles := obs.Default().Counter("faultsim.good_cycles")
		run(b, store) // prime: compile + prefill land in the store
		good0 := goodCycles.Load()
		b.ResetTimer()
		var cov float64
		for i := 0; i < b.N; i++ {
			cov = run(b, store)
		}
		b.StopTimer()
		if g := goodCycles.Load() - good0; g != 0 {
			b.Fatalf("warm runs simulated %d good-machine cycles, want 0", g)
		}
		report(b, cov)
	})
}

func BenchmarkSimulateSharded(b *testing.B) {
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSimulate(b, workers, fault.KernelCompiled)
		})
	}
}

// BenchmarkSimulateKernels pits the kernels against each other on the
// serial path: `reference` is the pre-compiled-kernel WordSim full
// sweep, `compiled` the event-driven kernel with good-machine caching.
// scripts/bench_kernel.sh records both into BENCH_3.json; the acceptance
// bar is ≥ 3× wall-clock on `compiled` versus `reference`.
func BenchmarkSimulateKernels(b *testing.B) {
	b.Run("reference", func(b *testing.B) { benchSimulate(b, 1, fault.KernelReference) })
	b.Run("compiled", func(b *testing.B) { benchSimulate(b, 1, fault.KernelCompiled) })
}

// BenchmarkMetricsOverhead measures what the metric instrumentation on
// the compiled-kernel hot path costs: the same serial workload with the
// registry armed (default) versus disarmed via obs.SetArmed, which
// turns every Counter.Add and Histogram.Observe into a load-and-skip.
// The acceptance bar is ≤ 1% wall-clock difference — the per-segment
// counter adds must stay invisible next to the per-vector simulation
// work. Compare:
//
//	go test -bench MetricsOverhead -benchtime 3x ./internal/engine
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("armed", func(b *testing.B) {
		obs.SetArmed(true)
		benchSimulate(b, 1, fault.KernelCompiled)
	})
	b.Run("disarmed", func(b *testing.B) {
		obs.SetArmed(false)
		defer obs.SetArmed(true)
		benchSimulate(b, 1, fault.KernelCompiled)
	})
}
