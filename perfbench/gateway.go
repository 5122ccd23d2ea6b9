package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/server"
	"prism/internal/server/client"
)

// gatewaySpecs are the gateway's single-cell ci specs: the kernels
// whose cells take well under a second, each under either the uncapped
// SCOMA policy (one cell) or the capped Dyn-LRU (a sizing cell, then
// the cell). Cold, they take about 2 s on the default
// one-job-at-a-time server; all thirty Figure 7 combinations take
// about 20 s, which would leave too few passes in a run for a steady
// median.
var gatewaySpecs = [][2]string{
	{"fft", "SCOMA"}, {"lu", "Dyn-LRU"}, {"mp3d", "SCOMA"}, {"water-nsq", "Dyn-LRU"}, {"water-spa", "SCOMA"},
}

const (
	// gatewayClients closed-loop callers share the server; each waits
	// for its job's result before sending the next, like
	// `prismd submit -wait`.
	gatewayClients = 2
	// hitRounds resubmissions of every spec make the hit phase: 100
	// hits per pass, enough for a p90 with ten samples beyond it.
	hitRounds = 20
)

// gateway drives prismd in-process over a loopback listener. A pass
// starts a fresh server with the default Config (set-up), runs every
// spec cold, then resubmits each hitRounds times; the hits must be
// served from the result cache, byte-identical to the cold results.
// The workload's request (wall.op_p50_ms) is the cold job, which runs the
// simulator.
//
// A cold job's latency includes waiting for the job the other client
// submitted, so it depends on the submission order. Each pass submits
// in a new order drawn from the seed, so that a run's median is taken
// over many orders rather than fixed by one.
type gateway struct {
	env   *env
	rng   *rand.Rand    // submission orders
	specs []server.Spec // in gatewaySpecs order
	rows  [][]string    // each spec's expected "app,policy" row keys, in CSV order
}

func newGateway(e *env) workload {
	g := &gateway{env: e, rng: rand.New(rand.NewSource(e.seed))}
	for _, s := range gatewaySpecs {
		app, pol := s[0], s[1]
		g.specs = append(g.specs, server.Spec{Size: "ci", Apps: []string{app}, Policies: []string{pol}, Metrics: true})
		// harness.Run always sizes an app with a SCOMA cell and
		// reports it, so a spec's CSV holds that row before its own.
		rows := []string{app + ",SCOMA"}
		if pol != "SCOMA" {
			rows = append(rows, app+","+pol)
		}
		g.rows = append(g.rows, rows)
	}
	return g
}

type gatewayRunner struct {
	g       *gateway
	golden  map[string]string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	clients []*client.Client
}

func (g *gateway) setUp() (runner, error) {
	golden, err := readGolden(g.env.ciGolden)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &gatewayRunner{g: g, golden: golden, srv: server.New(server.Config{}), served: make(chan error, 1)}
	r.srv.Start()
	r.hs = &http.Server{Handler: r.srv}
	// The listener is bound already, so a request sent before Serve
	// runs waits in its backlog; no readiness probe is needed.
	go func() { r.served <- r.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < gatewayClients; i++ {
		r.clients = append(r.clients, client.New(base))
	}
	return r, nil
}

// close drains the server's jobs, then stops the listener and waits
// for the serve loop to return.
func (r *gatewayRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := r.srv.Drain(ctx)
	serr := r.hs.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if derr != nil {
		return derr
	}
	return serr
}

// each runs fn over the spec indices in order on the closed-loop
// clients.
func (r *gatewayRunner) each(order []int, fn func(c *client.Client, i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(order) {
					return
				}
				fn(c, order[k])
			}
		}(c)
	}
	wg.Wait()
}

func (r *gatewayRunner) run(p *pass) error {
	cold := make([][]byte, len(r.g.specs))
	order := r.g.rng.Perm(len(r.g.specs))
	r.each(order, func(c *client.Client, i int) {
		csv, problem := r.job(c, p, i)
		cold[i] = csv
		p.done(problem)
	})
	t0 := time.Now()
	for round := 0; round < hitRounds; round++ {
		r.each(order, func(c *client.Client, i int) {
			if cold[i] == nil {
				return
			}
			p.done(r.hit(c, p, i, cold[i]))
			p.count("server.hits", 1)
		})
	}
	p.sample("hit_phase", time.Since(t0))

	raw, err := r.clients[0].ServerMetrics()
	if err != nil {
		return fmt.Errorf("server metrics: %w", err)
	}
	ex, err := metrics.ReadExport(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("server metrics: %w", err)
	}
	for _, pt := range ex.Points {
		if pt.Component == "cache" && (pt.Name == "hits" || pt.Name == "misses") {
			p.count("server.cache_"+pt.Name, float64(pt.Value))
		}
	}
	return nil
}

// job submits spec i to a cold server and follows it like a waiting
// caller: the job time runs from submit to the last byte of the result
// CSV. It returns the CSV and a problem ("" when the rows match).
func (r *gatewayRunner) job(c *client.Client, p *pass, i int) ([]byte, string) {
	spec := r.g.specs[i]
	op := p.tr.newOp()
	root := p.tr.begin("job", openSpan{}, op)
	defer root.end()
	t0 := time.Now()
	sp := p.tr.begin("client.Submit", root, op)
	st, err := c.Submit(&spec)
	sp.end()
	if err != nil {
		return nil, fmt.Sprintf("job %v: submit: %v", spec.Apps, err)
	}
	// Follow the event stream; the status events mark when the job
	// left the queue and when it finished.
	id := st.ID
	sp = p.tr.begin("client.Wait", root, op)
	submitted, started := time.Now(), time.Time{}
	err = c.Events(context.Background(), id, func(e server.Event) error {
		if e.Type != server.EventStatus {
			return nil
		}
		var sd server.StatusData
		if err := json.Unmarshal([]byte(e.Data), &sd); err != nil {
			return err
		}
		if sd.State == server.StateRunning && started.IsZero() {
			started = time.Now()
		}
		return nil
	})
	if err == nil {
		st, err = c.Job(id)
	}
	sp.end()
	finished := time.Now()
	if !started.IsZero() {
		p.sample("server.queue_wait", started.Sub(submitted))
		p.sample("server.run", finished.Sub(started))
	}
	if err != nil {
		return nil, fmt.Sprintf("job %s: wait: %v", id, err)
	}
	if st.State != server.StateDone {
		return nil, fmt.Sprintf("job %s: state %s: %s", id, st.State, st.Error)
	}
	sp = p.tr.begin("client.ResultCSV", root, op)
	csv, err := c.ResultCSV(id)
	sp.end()
	if err != nil {
		return nil, fmt.Sprintf("job %s: result: %v", id, err)
	}
	d := time.Since(t0)
	p.op(d)
	p.sample("job", d)
	problem := checkRows(csv, r.golden, r.g.rows[i])

	sp = p.tr.begin("client.MetricsBundle", root, op)
	bundle, err := c.MetricsBundle(id)
	sp.end()
	if err != nil {
		return csv, fmt.Sprintf("job %s: metrics: %v", id, err)
	}
	if err := r.bundleStats(p, bundle); err != nil {
		return csv, fmt.Sprintf("job %s: metrics: %v", id, err)
	}
	return csv, problem
}

// hit resubmits spec i; the server must answer from its cache with the
// cold result's bytes.
func (r *gatewayRunner) hit(c *client.Client, p *pass, i int, want []byte) string {
	spec := r.g.specs[i]
	op := p.tr.newOp()
	root := p.tr.begin("hit", openSpan{}, op)
	defer root.end()
	t0 := time.Now()
	sp := p.tr.begin("client.Submit", root, op)
	st, err := c.Submit(&spec)
	sp.end()
	if err != nil {
		return fmt.Sprintf("hit %v: submit: %v", spec.Apps, err)
	}
	id := st.ID
	sp = p.tr.begin("client.Wait", root, op)
	st, err = c.Wait(context.Background(), id, nil)
	sp.end()
	if err != nil {
		return fmt.Sprintf("hit %s: wait: %v", id, err)
	}
	sp = p.tr.begin("client.ResultCSV", root, op)
	csv, err := c.ResultCSV(id)
	sp.end()
	if err != nil {
		return fmt.Sprintf("hit %s: result: %v", id, err)
	}
	p.sample("hit", time.Since(t0))
	switch {
	case !st.Cached:
		return fmt.Sprintf("hit %s: not served from the cache", id)
	case !bytes.Equal(csv, want):
		return fmt.Sprintf("hit %s: %d bytes differ from the cold result's %d", id, len(csv), len(want))
	}
	return ""
}

// bundleStats reads a job's metrics bundle: its processors' references
// always, and every instrument when the pass gathers the digest.
func (r *gatewayRunner) bundleStats(p *pass, raw []byte) error {
	var b struct {
		Cells []struct {
			Cell   string          `json:"cell"`
			Export json.RawMessage `json:"export"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return err
	}
	for _, c := range b.Cells {
		ex, err := metrics.ReadExport(bytes.NewReader(c.Export))
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.Cell, err)
		}
		for _, pt := range ex.Points {
			if pt.Component == "proc" && (pt.Name == "reads" || pt.Name == "writes") {
				p.addRefs(pt.Value)
			}
		}
		p.addExport(ex)
	}
	return nil
}

// checkRows checks that a result CSV holds exactly the rows keyed want,
// in order, each equal to its golden row; "" means it does.
func checkRows(csv []byte, golden map[string]string, want []string) string {
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if lines[0] != harness.CSVHeader {
		return fmt.Sprintf("result is not a sweep CSV: %.80q", csv)
	}
	if len(lines)-1 != len(want) {
		return fmt.Sprintf("result has %d rows, want %d (%v)", len(lines)-1, len(want), want)
	}
	for i, ln := range lines[1:] {
		switch key := cellKey(ln); {
		case key != want[i]:
			return fmt.Sprintf("row %d is cell %s, want %s", i+1, key, want[i])
		case ln != golden[key]:
			return fmt.Sprintf("cell %s: got %q, golden %q", key, ln, golden[key])
		}
	}
	return ""
}
