package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"prism/internal/testcase"
)

// replay drives the committed .prismcase corpus, every case with an
// embedded checkpoint. Read side: decode, build, restore, resume and
// check the recorded expectations. Write side: re-record each case
// (testcase.Create + testcase.Write) and check it decodes to the
// committed case, plus one chaos case under a lossy fabric built from
// the seed, which must pass Create's replay self-check. The workload's
// request (wall.op_p50_ms) is re-recording one corpus case, which runs the
// simulator from the start; the chaos case is left out of it, so that
// the seed's case does not move the median.
type replay struct {
	env   *env
	chaos testcase.Case
}

func newReplay(e *env) workload {
	return &replay{env: e, chaos: testcase.Case{
		Name:         fmt.Sprintf("chaos-seed%d", e.seed),
		Workload:     testcase.ChaosName,
		Seed:         e.seed,
		Policy:       "Dyn-LRU",
		HardwareSync: true,
		FaultSpec:    fmt.Sprintf("seed=%d,drop=0.02,dup=0.01,delay=0.05,delaymax=500", e.seed),
		CheckpointAt: chaosCheckpointAt,
	}}
}

// chaosCheckpointAt asks for the first quiescent barrier fill. The
// chaos workload's default length reaches three barriers; under this
// fault spec every seed from 1 to 120 had a quiescent fill among them.
const chaosCheckpointAt = 1

type replayRunner struct {
	r     *replay
	names []string
	raw   [][]byte
}

func (r *replay) setUp() (runner, error) {
	files, err := filepath.Glob(filepath.Join(r.env.corpusDir, "*.prismcase"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no cases", r.env.corpusDir)
	}
	rr := &replayRunner{r: r}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rr.names = append(rr.names, filepath.Base(f))
		rr.raw = append(rr.raw, b)
	}
	return rr, nil
}

func (rr *replayRunner) close() error { return nil }

func (rr *replayRunner) run(p *pass) error {
	var restore time.Duration
	for i, raw := range rr.raw {
		c, d, problem := rr.restoreAndResume(p, rr.names[i], raw)
		restore += d
		p.done(problem)
		if c != nil {
			d, problem := rr.record(p, c)
			p.op(d)
			p.done(problem)
		}
	}
	p.sample("restore", restore)
	chaos := rr.r.chaos
	_, problem := rr.record(p, &chaos)
	p.done(problem)
	return nil
}

// restoreAndResume is the read side of one case. It returns the decoded
// case (nil if it could not be decoded), the time to decode, build and
// restore it, and a problem, "" when every recorded expectation holds.
//
// testcase.RunReplay makes the verdict: it derives the expectation the
// way the case recorded it. It runs build, restore and resume as one
// call, so the benchmark makes the same calls once more itself, to time
// each (the restore time and the spans of a traced run), and checks
// that they produced RunReplay's results and metrics export.
func (rr *replayRunner) restoreAndResume(p *pass, name string, raw []byte) (*testcase.Case, time.Duration, string) {
	op := p.tr.newOp()
	root := p.tr.begin("case.replay", openSpan{}, op)
	defer root.end()
	t0 := time.Now()
	sp := p.tr.begin("testcase.Read", root, op)
	c, err := testcase.Read(bytes.NewReader(raw))
	sp.end()
	if err != nil {
		return nil, 0, fmt.Sprintf("%s: decode: %v", name, err)
	}
	if c.Checkpoint == nil || c.Expect == nil {
		return c, 0, fmt.Sprintf("%s: no embedded checkpoint or expectations", name)
	}
	sp = p.tr.begin("testcase.Build", root, op)
	m, w, err := testcase.Build(c)
	sp.end()
	if err != nil {
		return c, 0, fmt.Sprintf("%s: build: %v", name, err)
	}
	sp = p.tr.begin("RestoreSnapshot", root, op)
	err = m.RestoreSnapshot(w, c.Checkpoint)
	sp.end()
	if err != nil {
		return c, 0, fmt.Sprintf("%s: restore: %v", name, err)
	}
	restore := time.Since(t0)
	sp = p.tr.begin("Resume", root, op)
	res, err := m.Resume(w)
	sp.end()
	if err != nil {
		return c, restore, fmt.Sprintf("%s: resume: %v", name, err)
	}

	sp = p.tr.begin("testcase.RunReplay", root, op)
	o, err := c.RunReplay()
	sp.end()
	if err != nil {
		return c, restore, fmt.Sprintf("%s: replay: %v", name, err)
	}
	if o.Expect != *c.Expect {
		return c, restore, fmt.Sprintf("%s: replay gave %+v, recorded %+v", name, o.Expect, *c.Expect)
	}
	sp = p.tr.begin("ExportMetrics", root, op)
	ex := m.ExportMetrics(o.Export.Workload, o.Export.Policy)
	sp.end()
	if !reflect.DeepEqual(res, o.Results) || !reflect.DeepEqual(ex, o.Export) {
		return c, restore, fmt.Sprintf("%s: the timed restore and resume differ from RunReplay's", name)
	}
	p.addRefs(res.Refs)
	p.addResults(res)
	p.addExport(ex)
	return c, restore, ""
}

// record is the write side: re-create the case from its knobs, encode
// it, and check the encoding decodes to the original when there is
// one. It returns the time Create and Write took and a problem, ""
// when the case was recorded as expected.
func (rr *replayRunner) record(p *pass, orig *testcase.Case) (time.Duration, string) {
	fresh := *orig
	fresh.Checkpoint, fresh.Expect = nil, nil
	op := p.tr.newOp()
	root := p.tr.begin("case.record", openSpan{}, op)
	defer root.end()
	t0 := time.Now()
	sp := p.tr.begin("testcase.Create", root, op)
	err := testcase.Create(&fresh)
	sp.end()
	if err != nil {
		return 0, fmt.Sprintf("%s: create: %v", orig.Name, err)
	}
	var buf bytes.Buffer
	sp = p.tr.begin("testcase.Write", root, op)
	err = testcase.Write(&buf, &fresh)
	sp.end()
	if err != nil {
		return 0, fmt.Sprintf("%s: write: %v", orig.Name, err)
	}
	d := time.Since(t0)
	p.count("snapshot.bytes", float64(buf.Len()))
	if orig.Expect == nil {
		// The seeded case has nothing recorded to match; Create's
		// replay self-check is its verdict.
		return d, ""
	}
	back, err := testcase.Read(&buf)
	if err != nil {
		return d, fmt.Sprintf("%s: re-read: %v", orig.Name, err)
	}
	if !reflect.DeepEqual(back, orig) {
		return d, fmt.Sprintf("%s: re-recorded case differs from the committed one (expect %+v, committed %+v)",
			orig.Name, back.Expect, orig.Expect)
	}
	return d, ""
}
