package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/api"
)

// p90MinJobs is the sample count below which a p90 is not reported:
// a p90 needs at least ten samples beyond it.
const p90MinJobs = 100

// e2eMetric is one end-to-end metric of one run; ok is false where the
// metric does not apply to the workload.
type e2eMetric struct {
	name, unit string
	value      float64
	ok         bool
	note       string
}

// gatedE2E are the end-to-end metrics every workload reports in its
// result line (BENCHMARK.json "end_to_end"): the ones that apply to
// every workload, are never zero and hold still between runs of the
// same code on a shared host.
//
// The latency a result line carries is the fastest job's, not the
// median's. On a 2-vCPU VM of a shared Xeon host, neighbours' load
// slows the same job by up to two times in waves of tens of seconds;
// contention only ever adds time, so the fastest of a run's hundred or
// more short jobs tracks the program's own cost while the median and
// the throughput track the waves. Over ten 50 s runs per workload
// there, the fastest job's spread (quartile distance over median) was
// 6-8% and the median job's 20-21%. The median, p90 and throughput are
// still printed.
var gatedE2E = []string{"setup_s", "job_latency_min_s", "coordinator_peak_rss_mb"}

// metrics computes every end-to-end metric of the run.
func (r *e2eRun) metrics() []e2eMetric {
	var lat []float64
	var vectors, targets int
	var gens []float64
	completed := 0
	for _, j := range r.jobs {
		if j.err != nil || j.mismatch != "" {
			continue
		}
		completed++
		lat = append(lat, j.latencyS)
		switch j.spec.Kind {
		case api.JobFaultSim:
			vectors += j.res.Cycles
		case api.JobSeqATPG:
			targets += j.res.TestsFound + j.res.Untestable + j.res.Aborted
		case api.JobGaSearch:
			if n := len(j.res.Ga.Generations); n > 0 {
				gens = append(gens, j.latencyS/float64(n))
			}
		}
	}
	rate := func(n int) float64 {
		if r.windowS <= 0 {
			return 0
		}
		return float64(n) / r.windowS
	}
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	m := []e2eMetric{
		{name: "setup_s", unit: "s", value: median(r.setupS), ok: len(r.setupS) > 0},
		{name: "job_latency_min_s", unit: "s", value: quantile(lat, 0), ok: len(lat) > 0},
		{name: "job_latency_p50_s", unit: "s", value: median(lat), ok: len(lat) > 0},
		{name: "job_latency_p90_s", unit: "s", value: quantile(lat, 0.9), ok: len(lat) >= p90MinJobs,
			note: fmt.Sprintf("needs >= %d jobs, run has %d", p90MinJobs, len(lat))},
		{name: "jobs_per_s", unit: "1/s", value: rate(completed), ok: completed > 0},
		{name: "vectors_per_s", unit: "1/s", value: rate(vectors), ok: vectors > 0,
			note: "no fault_sim jobs in this workload"},
		{name: "generation_s", unit: "s", value: median(gens), ok: len(gens) > 0,
			note: "no ga_search jobs in this workload; the traced run's fleet probe prints it"},
		{name: "atpg_targets_per_s", unit: "1/s", value: rate(targets), ok: targets > 0,
			note: "no seq_atpg jobs in this workload"},
		{name: "failed_ratio", unit: "ratio", value: failedRatio, ok: r.attempted > 0},
		{name: "coordinator_peak_rss_mb", unit: "MB", value: r.rssMB, ok: r.rssMB > 0},
	}
	return m
}

// gated returns the result-line metrics of an untraced run.
func (r *e2eRun) gated() map[string]metric {
	out := map[string]metric{}
	for _, m := range r.metrics() {
		for _, g := range gatedE2E {
			if m.name == g {
				out[m.name] = metric{Value: m.value, Unit: m.unit}
			}
		}
	}
	return out
}

// printReport prints every end-to-end metric by name and unit.
func printReport(r *e2eRun) {
	fmt.Printf("jobs attempted=%d failed=%d window=%.3fs\n", r.attempted, r.failed, r.windowS)
	var lat []float64
	for _, j := range r.jobs {
		if j.err == nil {
			lat = append(lat, j.latencyS)
		}
	}
	if len(lat) > 0 {
		fmt.Printf("job latency n=%d min=%.4g p25=%.4g p50=%.4g p75=%.4g max=%.4g s\n", len(lat),
			quantile(lat, 0), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75), quantile(lat, 1))
	}
	for _, m := range r.metrics() {
		if m.ok {
			fmt.Printf("e2e %-24s %14.6g %s\n", m.name, m.value, m.unit)
		} else {
			fmt.Printf("e2e %-24s %14s %s (%s)\n", m.name, "n/a", m.unit, m.note)
		}
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
