package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ladder/internal/logging"
	"ladder/internal/metrics/promcheck"
)

// TestSSEKeepalive pins the fix for silent event streams: a queued job
// emits no progress events, but the stream must still carry comment
// frames so proxies don't reap the idle connection.
func TestSSEKeepalive(t *testing.T) {
	_, ts := newIdleService(t, Config{SSEKeepalive: 20 * time.Millisecond})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"]}`)

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// The job never runs (idle service), so after the initial status
	// event every subsequent frame is a keepalive comment.
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	sawStatus, sawKeepalive := false, false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			sawStatus = true
		case line == ": keepalive":
			sawKeepalive = true
		}
		if sawStatus && sawKeepalive {
			return
		}
	}
	t.Fatalf("stream ended without keepalive (status=%v keepalive=%v): %v", sawStatus, sawKeepalive, sc.Err())
}

// sseFrame is one id/data pair of a job's event stream.
type sseFrame struct {
	id string
	st Status
}

// readEvents reads a job's event stream to its end, resuming after
// lastID when set. A stream that does not close within the client
// timeout fails the test.
func readEvents(t *testing.T, url, lastID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var frames []sseFrame
	var id string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			f := sseFrame{id: id}
			if err := json.Unmarshal([]byte(v), &f.st); err != nil {
				t.Fatalf("frame %s is not a Status: %v", id, err)
			}
			frames = append(frames, f)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("event stream did not end cleanly: %v", err)
	}
	return frames
}

// TestEventStreamReplaysAndCloses pins the job stream as a replayable
// log: a subscriber arriving after the terminal state replays the whole
// lifecycle, ending in the done frame, and then the stream ends; one
// resuming from the terminal frame's ID gets no frame and an immediate
// end.
func TestEventStreamReplaysAndCloses(t *testing.T) {
	_, ts := newTestService(t, Config{})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar","lbm"],"schemes":["Baseline"],"instr":2000,"seed":7}`)
	events := ts.URL + "/jobs/" + sub.ID + "/events"
	live := readEvents(t, events, "")
	if len(live) == 0 || live[len(live)-1].st.State != StateDone {
		t.Fatalf("live stream did not end on the done frame: %+v", live)
	}

	frames := readEvents(t, events, "")
	var states []string
	for _, f := range frames {
		states = append(states, f.st.State)
	}
	want := []string{StateQueued, StateRunning, StateRunning, StateRunning, StateDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed states = %v, want %v", states, want)
	}
	last := frames[len(frames)-1]
	if last.st.Done != 2 || last.st.Total != 2 || last.st.ReportURL == "" {
		t.Fatalf("terminal frame incomplete: %+v", last.st)
	}
	if again := readEvents(t, events, last.id); len(again) != 0 {
		t.Fatalf("resume from the terminal frame replayed %+v, want nothing", again)
	}
}

// TestResubmittedJobStreamRestarts: resubmitting a canceled job opens a
// fresh stream, and a client resuming with an ID from the closed one
// replays the new stream from its queued frame.
func TestResubmittedJobStreamRestarts(t *testing.T) {
	_, ts := newIdleService(t, Config{SSEKeepalive: -1})
	body := `{"workloads":["astar"],"schemes":["Baseline"]}`
	_, sub := postJob(t, ts.URL, body)
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	events := ts.URL + "/jobs/" + sub.ID + "/events"
	old := readEvents(t, events, "")
	if len(old) != 2 || old[1].st.State != StateCanceled {
		t.Fatalf("canceled job's stream = %+v, want queued then canceled", old)
	}

	if resp, re := postJob(t, ts.URL, body); re.Outcome != "resubmitted" {
		t.Fatalf("resubmit = %d/%q", resp.StatusCode, re.Outcome)
	}
	req, _ = http.NewRequest(http.MethodGet, events, nil)
	req.Header.Set("Last-Event-ID", old[1].id)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var st Status
			if err := json.Unmarshal([]byte(v), &st); err != nil || st.State != StateQueued {
				t.Fatalf("first resumed frame = %s (%v), want the queued status", v, err)
			}
			return
		}
	}
	t.Fatalf("resumed stream ended without a frame: %v", sc.Err())
}

// TestPromEndpoint scrapes /metrics/prom after a full job lifecycle:
// the output must lint as exposition format 0.0.4 and carry both the
// registry counters and the per-job labeled progress series.
func TestPromEndpoint(t *testing.T) {
	_, ts := newTestService(t, Config{})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":7}`)

	var st Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, ts.URL+"/jobs/"+sub.ID, &st)
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatalf("GET /metrics/prom: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want exposition format 0.0.4", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	if err := promcheck.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"ladder_service_jobs_submitted_total 1",
		"ladder_service_jobs_completed_total 1",
		`ladder_service_job_cells{job="` + sub.ID + `",state="done"} 1`,
		`ladder_service_job_cells_done{job="` + sub.ID + `",state="done"} 1`,
		"ladder_service_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the service logs from its
// executor goroutine while the test reads from the main one.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobLifecycleLogging asserts structured records at each job state
// transition: queued, started, finished — each carrying the job ID.
func TestJobLifecycleLogging(t *testing.T) {
	var buf syncBuffer
	lg, err := logging.New(logging.FormatJSON, &buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Logger: lg})
	_, sub := postJob(t, ts.URL, `{"workloads":["astar"],"schemes":["Baseline"],"instr":2000,"seed":7}`)

	var st Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, ts.URL+"/jobs/"+sub.ID, &st)
		if st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	want := map[string]bool{"job queued": false, "job started": false, "job finished": false}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg string `json:"msg"`
			Job string `json:"job"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log record %q: %v", line, err)
		}
		if _, ok := want[rec.Msg]; ok {
			if rec.Job != sub.ID {
				t.Errorf("record %q has job=%q, want %q", rec.Msg, rec.Job, sub.ID)
			}
			want[rec.Msg] = true
		}
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("no %q record logged:\n%s", msg, buf.String())
		}
	}
}
