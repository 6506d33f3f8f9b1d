package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQueueBackpressureUnderConcurrentChurn storms an idle service's
// admission path from many goroutines: submits of a handful of
// configurations racing with cancels and resubmits of the same IDs.
// Pinned invariants: every submission resolves to exactly one of the
// documented outcomes (a full queue is always a 503 with Retry-After,
// never a hang or a silent drop), and the terminal bookkeeping stays
// consistent — runs under -race in CI.
func TestQueueBackpressureUnderConcurrentChurn(t *testing.T) {
	svc, ts := newIdleService(t, Config{QueueDepth: 2})

	bodies := make([]string, 6)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"workloads":["astar"],"schemes":["Baseline"],"seed":%d}`, i)
	}
	ids := make([]string, len(bodies)) // body index -> job ID, filled as accepts land
	var idsMu sync.Mutex

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := range 25 {
				n := (g + i) % len(bodies)
				resp, err := client.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bodies[n]))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					var sr submitResponse
					if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
						t.Errorf("decoding submit response: %v", err)
					}
					idsMu.Lock()
					ids[n] = sr.ID
					idsMu.Unlock()
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("503 without Retry-After")
					}
				default:
					t.Errorf("submit status %d", resp.StatusCode)
				}
				resp.Body.Close()
				// Interleave cancels of whatever job IDs exist so queued
				// slots churn: canceled jobs become resubmittable, keeping
				// the admission path busy in every branch.
				if i%3 == 0 {
					idsMu.Lock()
					id := ids[n]
					idsMu.Unlock()
					if id != "" {
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
						if resp, err := client.Do(req); err == nil {
							resp.Body.Close()
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Consistency after the storm: every retained job is in a coherent
	// state and the queue never exceeded its bound.
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if len(svc.pending) > 2 {
		t.Fatalf("queue depth %d exceeded its bound 2", len(svc.pending))
	}
	for id, j := range svc.jobs {
		switch j.state {
		case StateQueued, StateCanceled:
		default:
			t.Fatalf("idle-service job %s in impossible state %q", id, j.state)
		}
		if j.state == StateCanceled && j.report != nil {
			t.Fatalf("canceled job %s kept a report", id)
		}
	}
}

// TestConcurrentLifecycleOnLiveService races real executions: submits,
// status polls, and cancels against a running executor, then drains
// every observed job to a terminal state. The primary assertion is the
// absence of deadlock, panic, or data race (this test exists to run
// under -race); the end state must also be coherent.
func TestConcurrentLifecycleOnLiveService(t *testing.T) {
	svc, ts := newTestService(t, Config{QueueDepth: 32})

	bodies := make([]string, 4)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":%d}`, 100+i)
	}
	var wg sync.WaitGroup
	var idsMu sync.Mutex
	ids := map[string]bool{}
	for g := range 6 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := range 8 {
				resp, err := client.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bodies[(g+i)%len(bodies)]))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				var sr submitResponse
				if resp.StatusCode < 300 {
					if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
						t.Errorf("decoding submit response: %v", err)
					}
				}
				resp.Body.Close()
				if sr.ID != "" {
					idsMu.Lock()
					ids[sr.ID] = true
					idsMu.Unlock()
				}
				// Half the goroutines cancel aggressively; the executor and
				// supervisor must tolerate cancels at any stage of a run.
				if g%2 == 0 && sr.ID != "" {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sr.ID, nil)
					if resp, err := client.Do(req); err == nil {
						resp.Body.Close()
					}
				}
				if resp, err := client.Get(ts.URL + "/stats"); err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	idsMu.Lock()
	all := make([]string, 0, len(ids))
	for id := range ids {
		all = append(all, id)
	}
	idsMu.Unlock()
	for _, id := range all {
		st := waitTerminal(t, ts.URL, id)
		switch st.State {
		case StateDone, StateCanceled:
		default:
			t.Fatalf("job %s drained to %q (%s)", id, st.State, st.Error)
		}
		if st.State == StateDone && st.ReportURL == "" {
			t.Fatalf("done job %s without a report URL", id)
		}
	}
	stats := svc.StatsSnapshot()
	if stats.Running != 0 || stats.QueueDepth != 0 {
		t.Fatalf("service not drained: running %d queued %d", stats.Running, stats.QueueDepth)
	}
}
