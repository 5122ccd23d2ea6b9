package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/workloads"
)

// sweep is a policy sweep through harness.Run with default options
// (Workers = GOMAXPROCS, sequential engine), checked cell by cell
// against a committed golden CSV. One pass is one sweep, which is the
// workload's request (wall.op_p50_ms): a user waits for the whole sweep.
type sweep struct {
	env      *env
	golden   string // committed CSV the cells must match
	size     workloads.Size
	apps     []string
	policies []string // nil: the Figure 7 six
}

// splashApps are the ci-size SPLASH kernels of the fig7 grid that fit a
// pass into the run. radix and barnes take about 17 s each at the
// default worker count, more than a pass can spend; see README.md.
var splashApps = []string{"fft", "lu", "mp3d", "ocean", "water-nsq", "water-spa"}

func newSplashCI(e *env) workload {
	return &sweep{env: e, golden: e.ciGolden, size: workloads.CISize, apps: splashApps}
}

// dc64Apps is the committed 64-node golden grid (results_scale.csv).
var dc64Apps = []string{"kv:keys=8192;ops=128;shards=32", "pubsub:rounds=2;topics=64", "zipf:ops=512;pages=512"}

func newDC64Traffic(e *env) workload {
	return &sweep{env: e, golden: e.scaleGolden, size: workloads.DC64Size,
		apps: dc64Apps, policies: []string{"SCOMA", "Dyn-LRU"}}
}

// sweepRunner holds the golden rows one pass checks against.
type sweepRunner struct {
	s      *sweep
	golden map[string]string // "app,policy" → row
	want   []string          // expected cell keys, in CSV order
}

func (s *sweep) setUp() (runner, error) {
	golden, err := readGolden(s.golden)
	if err != nil {
		return nil, err
	}
	r := &sweepRunner{s: s, golden: golden}
	pols := s.policies
	if pols == nil {
		pols = harness.PolicyOrder
	}
	for _, app := range s.apps {
		canon, err := harness.CanonicalAppSpec(app)
		if err != nil {
			return nil, err
		}
		for _, pol := range pols {
			r.want = append(r.want, canon+","+pol)
		}
	}
	return r, nil
}

func (r *sweepRunner) close() error { return nil }

func (r *sweepRunner) run(p *pass) error {
	op := p.tr.newOp()
	root := p.tr.begin("pass", openSpan{}, op)
	defer root.end()
	opts := harness.Options{Size: r.s.size, Apps: r.s.apps, Policies: r.s.policies}
	if p.collect {
		dir, err := os.MkdirTemp(r.s.env.tmp, "metrics-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.MetricsDir = dir
	}
	t0 := time.Now()
	sp := p.tr.begin("harness.Run", root, op)
	runs, err := harness.Run(opts)
	sp.end()
	if err != nil {
		for _, key := range r.want {
			p.done(fmt.Sprintf("cell %s: %v", key, err))
		}
		return nil
	}
	sp = p.tr.begin("verify", root, op)
	got := map[string]string{}
	for _, ln := range strings.Split(strings.TrimRight(harness.CSVString(runs), "\n"), "\n")[1:] {
		got[cellKey(ln)] = ln
	}
	for _, key := range r.want {
		switch row, ok := got[key]; {
		case !ok:
			p.done(fmt.Sprintf("cell %s: missing from the sweep", key))
		case row != r.golden[key]:
			p.done(fmt.Sprintf("cell %s: got %q, golden %q", key, row, r.golden[key]))
		default:
			p.done("")
		}
		delete(got, key)
	}
	for key := range got {
		p.done(fmt.Sprintf("cell %s: not requested", key))
	}
	sp.end()
	p.op(time.Since(t0))

	for _, ar := range runs {
		for _, res := range ar.ByPol {
			p.addRefs(res.Refs)
			p.addResults(res)
		}
	}
	if p.collect {
		files, err := filepath.Glob(filepath.Join(opts.MetricsDir, "*.json"))
		if err != nil {
			return err
		}
		for _, f := range files {
			ex, err := metrics.ReadExportFile(f)
			if err != nil {
				return err
			}
			p.addExport(ex)
		}
	}
	return nil
}

// readGolden indexes a committed sweep CSV by cell key.
func readGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 || lines[0] != harness.CSVHeader {
		return nil, fmt.Errorf("%s: not a sweep CSV", path)
	}
	rows := map[string]string{}
	for _, ln := range lines[1:] {
		rows[cellKey(ln)] = ln
	}
	return rows, nil
}

// cellKey is a sweep CSV row's "app,policy" key.
func cellKey(row string) string {
	f := strings.SplitN(row, ",", 3)
	if len(f) < 3 {
		return row
	}
	return f[0] + "," + f[1]
}
