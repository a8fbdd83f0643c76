package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestServerDrainUnderLoad hammers POST /jobs from many goroutines
// while the queue drains mid-flight. The invariant: every job the
// server accepted (202) appears in the final snapshot exactly once —
// no accepted job is lost, none is duplicated — and a recovery sees the
// same set.
func TestServerDrainUnderLoad(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.wal")
	journal, _ := openJournal(t, jpath)
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		time.Sleep(time.Millisecond) // keep a few jobs in flight during drain
		return &JobResult{Coverage: 1}, nil
	}
	q := NewQueue(QueueOptions{Workers: 2, MaxPending: 256, Journal: journal, Exec: exec})
	q.Start()
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{MaxInflight: 64}))
	defer srv.Close()

	const clients, perClient = 8, 20
	var mu sync.Mutex
	accepted := make(map[string]bool)
	var wg sync.WaitGroup
	startDrain := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					close(startDrain) // drain begins mid-barrage
				}
				body := []byte(`{"kind":"fault_sim","vectors":{"kind":"bist","count":10}}`)
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var j Job
					if err := json.Unmarshal(data, &j); err != nil {
						t.Errorf("bad 202 body %q: %v", data, err)
						return
					}
					mu.Lock()
					if accepted[j.ID] {
						t.Errorf("job %s accepted twice", j.ID)
					}
					accepted[j.ID] = true
					mu.Unlock()
				case http.StatusServiceUnavailable:
					// Draining or full: the server must say when to retry.
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("503 without Retry-After: %s", data)
						return
					}
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}(c)
	}

	<-startDrain
	drainErr := make(chan error, 1)
	go func() { drainErr <- q.Drain(context.Background()) }()
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}
	if len(accepted) == 0 {
		t.Fatal("no job was accepted before the drain; test proves nothing")
	}

	// The final snapshot must hold exactly the accepted set.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openJournal(t, jpath)
	q2 := NewQueue(QueueOptions{Exec: exec})
	if err := q2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, j := range q2.Jobs() {
		seen[j.ID]++
	}
	for id := range accepted {
		if seen[id] != 1 {
			t.Errorf("accepted job %s appears %d times in the snapshot, want 1", id, seen[id])
		}
	}
	for id, n := range seen {
		if !accepted[id] {
			t.Errorf("snapshot holds job %s (%d times) that no client saw accepted", id, n)
		}
	}
}

// TestServerShedsLoad: with one inflight slot held by a chaos-stalled
// request, a concurrent request is shed with 503 + Retry-After and the
// sbstd.shed counter advances.
func TestServerShedsLoad(t *testing.T) {
	armChaos(t, "sbstd.request=delay:delay=300ms:times=1", 5)
	q := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{MaxInflight: 1, RetryAfter: 2 * time.Second}))
	defer srv.Close()

	shedBefore := counter("sbstd.shed")
	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the stalled request take the slot
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d under full inflight, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	if d := counter("sbstd.shed") - shedBefore; d != 1 {
		t.Fatalf("sbstd.shed advanced by %d, want 1", d)
	}
	if err := <-slow; err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
}

// TestServerRequestTimeout: a chaos-stalled request is cut off by the
// request timeout with a JSON 503 body instead of hanging the client.
func TestServerRequestTimeout(t *testing.T) {
	armChaos(t, "sbstd.request=delay:delay=5s:times=1", 5)
	q := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{RequestTimeout: 50 * time.Millisecond}))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d for timed-out request, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var msg map[string]any
	if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
		t.Fatalf("timeout body %q is not the JSON error shape", body)
	}
	if msg["code"] != "timeout" || msg["retryable"] != true {
		t.Fatalf("timeout body %q is not a retryable timeout envelope", body)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("request hung far past the timeout")
	}
}
