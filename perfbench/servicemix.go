package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladder"
	"ladder/internal/service"
	"ladder/internal/timing"
)

// Service-mix's job shapes. A fresh job is a small grid on read-leaning
// workloads; pool job k differs from the others only in its seed.
const (
	mixInstr = service.DefaultInstr
	// mixPool is how many distinct fresh configurations have reference
	// digests; a run that needs more reuses them from the start.
	mixPool = 1024
	// mixRecent bounds the completed configurations a resubmission picks
	// from: the most recent ones, well inside the service's 64-job LRU,
	// so resubmissions are cache hits.
	mixRecent = 32
	// minJobs is the fewest jobs a run starts, so that job_p90_s has at
	// least ten samples beyond it.
	minJobs = 100
)

var (
	mixWorkloads = []string{"astar", "mcf"}
	mixSchemes   = []string{ladder.SchemeBaseline, ladder.SchemeBasic}
)

// poolRequest is pool job k's request, with scheme names mapped by m.
func poolRequest(k int, m func(string) string) service.Request {
	schemes := make([]string, len(mixSchemes))
	for i, s := range mixSchemes {
		schemes[i] = m(s)
	}
	return service.Request{
		Workloads: append([]string(nil), mixWorkloads...),
		Schemes:   schemes,
		Instr:     mixInstr,
		Seed:      int64(k) + 1,
	}
}

// repeatSlot reports whether a client's k-th job (counting from 0)
// resubmits a completed configuration: one job in four.
func repeatSlot(k int) bool { return k%4 == 3 }

// mixPlan is the closed loop's shared schedule. Fresh jobs take pool
// indices in the order the workload seed chose; resubmissions pick among
// recently completed ones.
type mixPlan struct {
	order    []int
	deadline time.Time
	started  atomic.Int64
	fresh    atomic.Int64

	mu     sync.Mutex
	recent []int
}

func newMixPlan(seed int64, deadline time.Time) *mixPlan {
	return &mixPlan{order: rand.New(rand.NewSource(seed)).Perm(mixPool), deadline: deadline}
}

// freshIndex maps the n-th fresh job of the run onto the pool.
func (p *mixPlan) freshIndex(n int) int { return p.order[n%len(p.order)] }

// next schedules a client's k-th job. It returns the pool index, the
// fresh ordinal (-1 for a resubmission), and false once the loop is over.
func (p *mixPlan) next(k int, rng *rand.Rand) (pool, ordinal int, ok bool) {
	if !keepGoing(time.Now(), p.deadline, int(p.started.Load()), minJobs) {
		return 0, 0, false
	}
	p.started.Add(1)
	if repeatSlot(k) {
		p.mu.Lock()
		n := len(p.recent)
		if n > 0 {
			pool = p.recent[rng.Intn(n)]
		}
		p.mu.Unlock()
		if n > 0 {
			return pool, -1, true
		}
	}
	ordinal = int(p.fresh.Add(1) - 1)
	return p.freshIndex(ordinal), ordinal, true
}

// completed records a finished fresh job as a resubmission candidate.
func (p *mixPlan) completed(pool int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recent = append(p.recent, pool)
	if len(p.recent) > mixRecent {
		p.recent = p.recent[len(p.recent)-mixRecent:]
	}
}

// jobSample is one job as a client saw it.
type jobSample struct {
	pool, ordinal int
	outcome       string
	err           error
	// Client-side phases: POST, accepted → running event, running →
	// terminal event, report GET; total is POST to report in hand.
	submit, queueWait, exec, fetch, total time.Duration
	report                                []byte
}

// mixRun is one closed-loop run's outcome.
type mixRun struct {
	plan    *mixPlan
	samples []jobSample
	wall    time.Duration
	stats   service.Stats
}

// runServiceMix boots an in-process service with a durable state
// directory under tmp, serves it on loopback, and drives it with one
// closed-loop client per worker until the deadline. With rec non-nil
// the jobs run under the timing wrappers and each job records spans
// under parent.
func runServiceMix(ts *timing.TableSet, seed int64, seconds float64, jobs int, tmp string, rec *recorder, parent int) (*mixRun, error) {
	dir, err := os.MkdirTemp(tmp, "service-")
	if err != nil {
		return nil, fmt.Errorf("service state dir: %w", err)
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{Jobs: jobs, Tables: ts, StateDir: dir, SSEKeepalive: -1})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // the run's result is already decided
		<-served
	}()
	base := "http://" + ln.Addr().String()

	mapName := sameName
	if rec != nil {
		mapName = timedName
	}
	start := time.Now()
	plan := newMixPlan(seed, start.Add(time.Duration(seconds*float64(time.Second))))
	perClient := make([][]jobSample, jobs)
	var wg sync.WaitGroup
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &client{base: base, hc: &http.Client{Transport: tr}, rec: rec, parent: parent}
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
			for k := 0; ; k++ {
				pool, ordinal, ok := plan.next(k, rng)
				if !ok {
					return
				}
				s := cl.job(poolRequest(pool, mapName))
				s.pool, s.ordinal = pool, ordinal
				if s.err == nil && ordinal >= 0 {
					plan.completed(pool)
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	out := &mixRun{plan: plan, wall: time.Since(start), stats: svc.StatsSnapshot()}
	for _, ss := range perClient {
		out.samples = append(out.samples, ss...)
	}
	return out, nil
}

// client is one closed-loop client holding a single connection.
type client struct {
	base   string
	hc     *http.Client
	rec    *recorder
	parent int
}

// statusDoc is the part of a job status document the client reads.
type statusDoc struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Outcome string `json:"outcome"`
}

// job submits req, follows its events to a terminal state and fetches
// the report.
func (c *client) job(req service.Request) jobSample {
	var s jobSample
	body, err := json.Marshal(req)
	if err != nil {
		s.err = err
		return s
	}
	t0 := c.rec.now()
	begin := time.Now()
	st, err := c.submit(body)
	tSubmit := time.Now()
	if err != nil {
		s.err = err
		return s
	}
	s.outcome = st.Outcome
	tRunning, tTerminal, state, err := c.follow(st.ID)
	if err != nil {
		s.err = err
		return s
	}
	if state != service.StateDone {
		s.err = fmt.Errorf("job %s ended %s", st.ID, state)
		return s
	}
	s.report, err = c.get("/jobs/" + st.ID + "/report")
	end := time.Now()
	if err != nil {
		s.err = err
		return s
	}
	if tRunning.IsZero() {
		tRunning = tSubmit
	}
	s.submit = tSubmit.Sub(begin)
	s.queueWait = tRunning.Sub(tSubmit)
	s.exec = tTerminal.Sub(tRunning)
	s.fetch = end.Sub(tTerminal)
	s.total = end.Sub(begin)
	if c.rec != nil {
		off := func(t time.Time) time.Duration { return t0 + t.Sub(begin) }
		root := c.rec.reserve("service.job", c.parent, st.ID)
		c.rec.add("service.submit", root, st.ID, t0, off(tSubmit))
		c.rec.add("service.queue_wait", root, st.ID, off(tSubmit), off(tRunning))
		c.rec.add("service.exec", root, st.ID, off(tRunning), off(tTerminal))
		c.rec.add("service.fetch", root, st.ID, off(tTerminal), off(end))
		c.rec.finish(root, t0, off(end))
	}
	return s
}

func (c *client) submit(body []byte) (statusDoc, error) {
	var st statusDoc
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("submitting job: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("reading submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("decoding submit response: %w", err)
	}
	return st, nil
}

// follow reads the job's event stream until a terminal state and returns
// when the running and terminal events arrived.
func (c *client) follow(id string) (running, terminal time.Time, state string, err error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return running, terminal, "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, terminal, "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st statusDoc
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return running, terminal, "", fmt.Errorf("decoding event: %w", err)
		}
		switch st.State {
		case service.StateRunning:
			if running.IsZero() {
				running = time.Now()
			}
		case service.StateDone, service.StateFailed, service.StateCanceled:
			terminal = time.Now()
			// Drain the rest so the connection is reused.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
			return running, terminal, st.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, terminal, "", fmt.Errorf("reading events: %w", err)
	}
	return running, terminal, "", errors.New("event stream ended before a terminal state")
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// checkMix verifies every job: a fresh job's stripped report must match
// its pool reference, and a resubmission answered from the cache must
// return exactly the bytes first served for that configuration (one the
// service re-simulated is checked like a fresh job). It also returns the
// work counts of the first countJobs fresh jobs, which the seed fixes.
func checkMix(run *mixRun, pool []string, countJobs int) (tally, facts, int) {
	var t tally
	var f facts
	first := map[int][32]byte{}
	for _, s := range run.samples {
		if s.err == nil && s.ordinal >= 0 {
			first[s.pool] = sha256.Sum256(s.report)
		}
	}
	hits := 0
	for _, s := range run.samples {
		if s.err != nil {
			t.fail("job %d: %v", s.pool, s.err)
			continue
		}
		if s.ordinal < 0 && s.outcome == "cached" {
			hits++
			want, ok := first[s.pool]
			t.check(ok && sha256.Sum256(s.report) == want, "job %d: cache hit returned different bytes", s.pool)
			continue
		}
		d, jf, err := gridReportDigest(s.report)
		if err != nil {
			t.fail("job %d: %v", s.pool, err)
			continue
		}
		t.check(s.pool < len(pool) && d == pool[s.pool], "job %d: report digest %s, reference %s", s.pool, d, refAt(pool, s.pool))
		if s.ordinal >= 0 && s.ordinal < countJobs {
			f.add(jf)
		}
	}
	return t, f, hits
}

// requestOptions lowers a request the way the service does.
func requestOptions(r service.Request, jobs int, ts *timing.TableSet) (ladder.Options, []string) {
	return ladder.Options{
		Instr:     r.Instr,
		Seed:      r.Seed,
		Workloads: r.Workloads,
		Jobs:      jobs,
		Tables:    ts,
	}, r.Schemes
}

func refAt(pool []string, i int) string {
	if i < len(pool) {
		return pool[i]
	}
	return "none (index " + strconv.Itoa(i) + ")"
}
