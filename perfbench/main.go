// Command perfbench is the repository benchmark. It drives the shipped
// sbstd coordinator over /v1 with closed-loop clients, checks every job
// against an in-process oracle, and prints the end-to-end metrics; with
// -trace 1 it also times the public calls into each layer from its own
// code, probes a -distributed coordinator and sbst-worker with one
// ga_search, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload small_jobs --seed 3 --seconds 10 --trace 0
//
// Workloads, metrics and their layer mapping are listed in
// BENCHMARK.json at the repository root.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runDeadline bounds one invocation; the benchmark contract allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every job input derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; run files go under <root>/.bench_build")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the sbstd and sbst-worker binaries")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	w, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames()))
	}
	if cfg.bin == "" || cfg.seconds < 1 {
		fail(fmt.Errorf("need -bin and -seconds >= 1"))
	}
	// SIGINT/SIGTERM cancel the run; its deferred cleanup stops every
	// daemon before the process exits.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(sigCtx, runDeadline)
	out, err := run(ctx, cfg, w)
	cancel()
	stop()
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	root, bin string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerTarget is one per-layer metric of layers.json with the
// end-to-end metric, and the workload, it should move.
type layerTarget struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	EndToEnd string `json:"end_to_end"`
	Workload string `json:"workload"`
}

//go:embed layers.json
var layersJSON []byte

func layerTargets() ([]layerTarget, error) {
	var t []layerTarget
	if err := json.Unmarshal(layersJSON, &t); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return t, nil
}

// output is the final stdout line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is the host block every run records.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
}

func run(ctx context.Context, cfg config, w *workload) (*output, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return nil, fmt.Errorf("run dir: %w", err)
	}
	defer os.RemoveAll(dir)
	h := host{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Clients: w.clients,
	}
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s seed=%d seconds=%d trace=%v: %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.why)

	tr := newTracer(cfg.trace)
	e2e, err := measure(ctx, cfg, w, dir, tr)
	if err != nil {
		return nil, err
	}
	printReport(e2e)

	out := &output{
		Correct:   e2e.checkErr == nil && e2e.failed == 0,
		Attempted: e2e.attempted,
		Failed:    e2e.failed,
	}
	if e2e.checkErr != nil {
		fmt.Printf("oracle: %v\n", e2e.checkErr)
	}
	if !cfg.trace {
		out.Metrics = e2e.gated()
		return out, nil
	}
	layers, err := measureLayers(ctx, cfg, w, e2e, tr)
	if err != nil {
		return nil, err
	}
	if layers.checkErr != nil {
		fmt.Printf("layer check: %v\n", layers.checkErr)
		out.Correct = false
	}
	out.Metrics = layers.metrics
	targets, err := layerTargets()
	if err != nil {
		return nil, err
	}
	if len(targets) != len(out.Metrics) {
		return nil, fmt.Errorf("traced run produced %d layer metrics, layers.json lists %d", len(out.Metrics), len(targets))
	}
	for _, t := range targets {
		m, ok := out.Metrics[t.Name]
		if !ok || m.Unit != t.Unit {
			return nil, fmt.Errorf("layer metric %s (%s) missing or in another unit", t.Name, t.Unit)
		}
		fmt.Printf("layer %-40s %14.6g %-5s -> %s on %s\n", t.Name, m.Value, m.Unit, t.EndToEnd, t.Workload)
	}
	path := filepath.Join(cfg.root, ".bench_build", "traces",
		fmt.Sprintf("%s-seed%d.ndjson", w.name, cfg.seed))
	if err := tr.write(path, h); err != nil {
		return nil, err
	}
	fmt.Printf("trace %s (%d spans)\n", path, tr.len())
	return out, nil
}
