package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
)

// span is one timed call recorded by the benchmark's own code.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Job    string  `json:"job,omitempty"`
	Trace  string  `json:"trace_id,omitempty"`
	StartS float64 `json:"start_s"` // since the run started
	DurS   float64 `json:"dur_s"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// An untraced run's tracer records nothing.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// fleetDelta is the change in the fleet's /v1/metrics samples
	// across the traced window.
	fleetDelta map[string]float64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) add(s span) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// timed runs fn as a span under parent and returns its duration.
func (t *tracer) timed(name, parent string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	t.add(span{Name: name, Parent: parent, StartS: start.Sub(t.t0).Seconds(), DurS: d})
	return d, err
}

// recordJob fetches a traced job's server timestamps and records its
// client and server spans: submit, queue wait, run, and the lag from
// the job finishing to its terminal SSE frame reaching the client.
func (t *tracer) recordJob(ctx context.Context, c *client.Client, j *jobRecord) {
	job, err := c.Job(ctx, j.id)
	if err != nil || job.Started == nil || job.Finished == nil {
		return
	}
	j.queueWaitS = job.Started.Sub(job.Created).Seconds()
	j.sseLagS = j.done.Sub(*job.Finished).Seconds()
	submitStart := j.done.Add(-time.Duration(j.latencyS * float64(time.Second)))
	rel := func(at time.Time) float64 { return at.Sub(t.t0).Seconds() }
	root := "job:" + j.id
	t.add(span{Name: root, Job: j.id, Trace: job.Spec.TraceID, StartS: rel(submitStart), DurS: j.latencyS})
	t.add(span{Name: "client.submit", Parent: root, Job: j.id, StartS: rel(submitStart), DurS: j.submitS})
	t.add(span{Name: "engine.queue_wait", Parent: root, Job: j.id, StartS: rel(job.Created), DurS: j.queueWaitS})
	t.add(span{Name: "engine.run", Parent: root, Job: j.id, StartS: rel(*job.Started), DurS: job.Finished.Sub(*job.Started).Seconds()})
	t.add(span{Name: "client.sse_lag", Parent: root, Job: j.id, StartS: rel(*job.Finished), DurS: j.sseLagS})
}

// write stores the spans as NDJSON, led by the host block.
func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"type": "host", "host": h}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrapeFleet reads the coordinator's /v1/metrics and every worker's
// metrics listener into one sample map keyed "coord:<sample>" or
// "worker:<sample>" (worker samples summed over the fleet). A scrape
// that fails leaves its samples out; an untraced run scrapes nothing.
func scrapeFleet(ctx context.Context, f *fleet, traced bool) map[string]float64 {
	out := map[string]float64{}
	if !traced {
		return out
	}
	scrape(ctx, f.url+"/v1/metrics", "coord:", out)
	for _, addr := range f.workerAddrs {
		scrape(ctx, "http://"+addr+"/metrics", "worker:", out)
	}
	return out
}

func scrape(ctx context.Context, url, prefix string, out map[string]float64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[prefix+line[:i]] += v
	}
}

func diffScrape(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sampleSum sums the delta of every sample whose key starts with key.
func sampleSum(d map[string]float64, key string) float64 {
	var s float64
	for k, v := range d {
		if strings.HasPrefix(k, key) {
			s += v
		}
	}
	return s
}
