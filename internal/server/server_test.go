package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/metrics"
	"prism/internal/server"
	"prism/internal/server/client"
	"prism/internal/testcase"
)

// startServer boots a ready-to-use gateway over httptest and returns
// its client. Every test gets an isolated server and cache.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	s.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return s, client.New(ts.URL)
}

func waitState(t *testing.T, c *client.Client, id string, want server.State) server.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s waiting for %s (error %q)", id, st.State, want, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return server.Status{}
}

var tinySpec = server.Spec{
	Size:     "mini",
	Apps:     []string{"fft"},
	Policies: []string{"SCOMA", "LANUMA"},
	Metrics:  true,
}

// The tentpole acceptance path: a fresh run and a cache-served rerun
// of the identical spec return byte-identical CSV and metrics.
func TestSubmitCacheByteIdentity(t *testing.T) {
	_, c := startServer(t, server.Config{})

	spec := tinySpec
	st, err := c.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Cached {
		t.Fatalf("first submission claims cached")
	}
	var logLines int
	err = c.Events(context.Background(), st.ID, func(e server.Event) error {
		if e.Type == server.EventLog {
			logLines++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if logLines == 0 {
		t.Errorf("no harness log lines streamed over SSE")
	}
	st, err = c.Job(st.ID)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("after events drained: state %s, err %v", st.State, err)
	}
	csv1, err := c.ResultCSV(st.ID)
	if err != nil {
		t.Fatalf("ResultCSV: %v", err)
	}
	if !strings.HasPrefix(string(csv1), "app,policy,") || strings.Count(string(csv1), "\n") != 3 {
		t.Fatalf("unexpected CSV shape:\n%s", csv1)
	}
	cell1, err := c.MetricsCell(st.ID, "fft_SCOMA")
	if err != nil {
		t.Fatalf("MetricsCell: %v", err)
	}
	ex, err := metrics.ReadExport(bytes.NewReader(cell1))
	if err != nil {
		t.Fatalf("metrics cell is not a valid export: %v", err)
	}
	if ex.Workload != "fft" || ex.Policy != "SCOMA" || len(ex.Points) == 0 {
		t.Errorf("export cell mislabeled: workload %q policy %q, %d points", ex.Workload, ex.Policy, len(ex.Points))
	}

	spec2 := tinySpec
	st2, err := c.Submit(&spec2)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.Cached || st2.State != server.StateDone {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}
	if st2.ID == st.ID {
		t.Errorf("cache hit reused the job ID")
	}
	if st2.Digest != st.Digest {
		t.Errorf("same spec, different digests: %s vs %s", st.Digest, st2.Digest)
	}
	csv2, err := c.ResultCSV(st2.ID)
	if err != nil {
		t.Fatalf("cached ResultCSV: %v", err)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("cached CSV differs from fresh run:\n--- fresh\n%s--- cached\n%s", csv1, csv2)
	}
	cell2, err := c.MetricsCell(st2.ID, "fft_SCOMA")
	if err != nil {
		t.Fatalf("cached MetricsCell: %v", err)
	}
	if !bytes.Equal(cell1, cell2) {
		t.Errorf("cached metrics cell differs from fresh run")
	}
}

// Concurrent submissions of an identical spec coalesce onto one job
// (single-flight): same ID everywhere, simulated once.
func TestConcurrentSubmitSingleFlight(t *testing.T) {
	// Workers deliberately not started: the job stays queued while the
	// submissions race, so none of them can be a post-completion cache
	// hit.
	s := server.New(server.Config{})
	t.Cleanup(s.Abort)

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := tinySpec
			job, err := s.Submit(&spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, want %s (not single-flight)", i, ids[i], ids[0])
		}
	}
	if got := len(s.Jobs()); got != 1 {
		t.Errorf("%d jobs created for %d identical submissions", got, n)
	}

	s.Start()
	job, _ := s.Job(ids[0])
	deadline := time.Now().Add(30 * time.Second)
	for job.Status(false).State != server.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("deduped job never finished: %+v", job.Status(false))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Result() == nil {
		t.Errorf("done job has no result")
	}
}

// waitTerminal blocks on the job's event log, without polling, until
// the job publishes a terminal state.
func waitTerminal(t *testing.T, job *server.Job) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		_, more, terminal := job.EventsFrom(0)
		if terminal {
			return
		}
		select {
		case <-more:
		case <-timeout:
			t.Fatalf("job %s never finished: %+v", job.ID, job.Status(false))
		}
	}
}

// stallAfterDone is a server log that parks the worker on its "job …
// done" line, which it writes after publishing StateDone, until the
// test hands it a token. Whatever bookkeeping the worker still owes at
// that point is visibly not done yet.
type stallAfterDone struct{ gate chan struct{} }

func (w stallAfterDone) Write(p []byte) (int, error) {
	line := string(p)
	if strings.Contains(line, " done (") && !strings.Contains(line, "cache hit") {
		select {
		case <-w.gate:
		case <-time.After(10 * time.Second):
		}
	}
	return len(p), nil
}

// A client that resubmits the instant it sees a job finish must get a
// new job served from the result cache, never be deduplicated onto the
// finished job. Each round is a cold spec (a distinct PIT access time)
// whose worker is held just after it publishes StateDone while the
// test resubmits.
func TestResubmitAfterDoneIsCacheHit(t *testing.T) {
	log := stallAfterDone{gate: make(chan struct{}, 1)}
	s := server.New(server.Config{Log: log})
	s.Start()
	t.Cleanup(s.Abort)
	for i := 0; i < 5; i++ {
		spec := server.Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, PITAccess: uint64(i + 1)}
		cold, err := s.Submit(&spec)
		if err != nil {
			t.Fatalf("round %d: Submit: %v", i, err)
		}
		if cold.Status(false).Cached {
			t.Fatalf("round %d: cold submission claims cached", i)
		}
		waitTerminal(t, cold)
		if st := cold.Status(false); st.State != server.StateDone {
			t.Fatalf("round %d: cold job ended %s (%s)", i, st.State, st.Error)
		}
		again := spec
		hit, err := s.Submit(&again)
		log.gate <- struct{}{}
		if err != nil {
			t.Fatalf("round %d: resubmit: %v", i, err)
		}
		if st := hit.Status(false); hit == cold || !st.Cached || st.State != server.StateDone {
			t.Fatalf("round %d: resubmission got job %s (state %s, cached %v), want a new cache hit after %s",
				i, hit.ID, st.State, st.Cached, cold.ID)
		}
	}
}

func TestCancelQueued(t *testing.T) {
	s := server.New(server.Config{}) // no workers: stays queued
	t.Cleanup(s.Abort)
	spec := tinySpec
	job, err := s.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, ok := s.Cancel(job.ID); !ok {
		t.Fatalf("Cancel lost the job")
	}
	if st := job.Status(false); st.State != server.StateCanceled {
		t.Fatalf("queued job not canceled immediately: %+v", st)
	}
	// The canceled digest must not block a fresh identical submission.
	spec2 := tinySpec
	job2, err := s.Submit(&spec2)
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if job2.ID == job.ID {
		t.Errorf("resubmission coalesced onto the canceled job")
	}
}

func TestCancelRunning(t *testing.T) {
	_, c := startServer(t, server.Config{})
	spec := server.Spec{Size: "mini"} // all 8 apps × 6 policies: long enough to catch mid-run
	st, err := c.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, c, st.ID, server.StateRunning)
	if _, err := c.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st = waitState(t, c, st.ID, server.StateCanceled)
	if st.Error == "" {
		t.Errorf("canceled job carries no error message")
	}
	if _, err := c.ResultCSV(st.ID); err == nil {
		t.Errorf("canceled job served a result")
	}
	// The worker survives to run the next job.
	spec2 := tinySpec
	st2, err := c.Submit(&spec2)
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if st2, err = c.Wait(context.Background(), st2.ID, nil); err != nil || st2.State != server.StateDone {
		t.Fatalf("job after cancel: state %s, err %v", st2.State, err)
	}
}

// A subscriber attaching after completion replays the identical event
// stream a live subscriber saw.
func TestSSELateSubscriberReplay(t *testing.T) {
	_, c := startServer(t, server.Config{})
	spec := server.Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}}
	st, err := c.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var live []server.Event
	if err := c.Events(context.Background(), st.ID, func(e server.Event) error {
		live = append(live, e)
		return nil
	}); err != nil {
		t.Fatalf("live Events: %v", err)
	}
	var replay []server.Event
	if err := c.Events(context.Background(), st.ID, func(e server.Event) error {
		replay = append(replay, e)
		return nil
	}); err != nil {
		t.Fatalf("replay Events: %v", err)
	}
	if len(replay) != len(live) {
		t.Fatalf("late subscriber saw %d events, live saw %d", len(replay), len(live))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Errorf("event %d diverged: live %+v, replay %+v", i, live[i], replay[i])
		}
	}
	last := replay[len(replay)-1]
	var sd server.StatusData
	if last.Type != server.EventStatus || json.Unmarshal([]byte(last.Data), &sd) != nil || sd.State != server.StateDone {
		t.Errorf("stream does not end with a terminal status event: %+v", last)
	}
}

func TestQueueFullAndDraining(t *testing.T) {
	s := server.New(server.Config{QueueDepth: 1}) // no workers: queue never drains
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Abort() })
	c := client.New(ts.URL)

	first := tinySpec
	if _, err := c.Submit(&first); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	second := server.Spec{Size: "mini", Apps: []string{"lu"}}
	_, err := c.Submit(&second)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusTooManyRequests)) {
		t.Fatalf("overflow submit: got %v, want HTTP %d", err, http.StatusTooManyRequests)
	}

	go s.Drain(context.Background()) //nolint:errcheck // drains forever; Abort in cleanup cuts it
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = c.Health(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still ok after Drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	third := server.Spec{Size: "mini", Apps: []string{"radix"}}
	if _, err := c.Submit(&third); err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusServiceUnavailable)) {
		t.Fatalf("draining submit: got %v, want HTTP %d", err, http.StatusServiceUnavailable)
	}
}

// Drain waits for queued and running work before returning.
func TestDrainFinishesInFlight(t *testing.T) {
	s := server.New(server.Config{})
	s.Start()
	t.Cleanup(s.Abort)
	spec := tinySpec
	job, err := s.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := job.Status(false); st.State != server.StateDone {
		t.Errorf("drain returned with job %s in state %s", job.ID, st.State)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, c := startServer(t, server.Config{})
	bad := []server.Spec{
		{Size: "huge"},
		{Apps: []string{"nosuch"}},
		{Policies: []string{"SCOMA", "SCOMA"}},
		{Faults: "drop=lots"},
	}
	for _, spec := range bad {
		s := spec
		if _, err := c.Submit(&s); err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusBadRequest)) {
			t.Errorf("bad spec %+v: got %v, want HTTP %d", spec, err, http.StatusBadRequest)
		}
	}
	if _, err := c.Job("j9999"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusNotFound)) {
		t.Errorf("missing job: got %v, want HTTP %d", err, http.StatusNotFound)
	}
	spec := server.Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}}
	st, err := c.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.MetricsCell(st.ID, "fft_SCOMA"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(http.StatusConflict)) {
		t.Errorf("result of a live job: got %v, want HTTP %d", err, http.StatusConflict)
	}
}

// The server's own registry exports through the same schema prismstat
// reads.
func TestServerMetricsExport(t *testing.T) {
	_, c := startServer(t, server.Config{})
	spec := tinySpec
	st, err := c.Submit(&spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(context.Background(), st.ID, nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	spec2 := tinySpec
	if _, err := c.Submit(&spec2); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	raw, err := c.ServerMetrics()
	if err != nil {
		t.Fatalf("ServerMetrics: %v", err)
	}
	ex, err := metrics.ReadExport(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("/metrics.json is not a valid export: %v", err)
	}
	want := map[string]float64{
		"server/jobs_submitted": 2,
		"server/jobs_completed": 2,
		"cache/hits":            1,
		"cache/misses":          1,
		"cache/entries":         1,
	}
	got := map[string]float64{}
	for _, p := range ex.Points {
		v := float64(p.Value)
		if p.Kind == "gauge" {
			v = p.Gauge
		}
		got[p.Component+"/"+p.Name] = v
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

// A .prismcase round-trips through the gateway: submit one as a job,
// export the finished cell back as a case.
func TestPrismcaseSubmitAndExport(t *testing.T) {
	_, c := startServer(t, server.Config{})
	orig := &testcase.Case{Name: "gateway-rt", Workload: "fft", Size: "mini", Policy: "SCOMA-70"}
	var buf bytes.Buffer
	if err := testcase.Write(&buf, orig); err != nil {
		t.Fatalf("testcase.Write: %v", err)
	}
	st, err := c.SubmitCase(&buf)
	if err != nil {
		t.Fatalf("SubmitCase: %v", err)
	}
	if st, err = c.Wait(context.Background(), st.ID, nil); err != nil || st.State != server.StateDone {
		t.Fatalf("case job: state %s, err %v", st.State, err)
	}
	raw, err := c.Case(st.ID, "fft_SCOMA-70")
	if err != nil {
		t.Fatalf("Case export: %v", err)
	}
	back, err := testcase.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("exported cell is not a readable case: %v", err)
	}
	if back.Workload != "fft" || back.Policy != "SCOMA-70" || back.Size != "mini" {
		t.Errorf("exported case lost identity: %+v", back)
	}
	if len(back.PageCacheCaps) == 0 {
		t.Errorf("exported capped-policy case carries no derived page-cache caps")
	}
}
