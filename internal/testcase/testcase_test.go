package testcase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestChaosCaseCreateVerify exercises the full lifecycle on the chaos
// workload: create (with an embedded checkpoint and its replay
// self-check), serialize, reload, verify.
func TestChaosCaseCreateVerify(t *testing.T) {
	c := &Case{
		Name:         "chaos-lifecycle",
		Workload:     ChaosName,
		Policy:       "SCOMA",
		Seed:         1,
		Ops:          400,
		CheckpointAt: 1,
	}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	if c.Expect == nil || c.Expect.ResultsSHA256 == "" {
		t.Fatal("create recorded no expectations")
	}
	if c.Checkpoint == nil {
		t.Fatal("create embedded no checkpoint")
	}

	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("case serialization is not a byte-identical round trip")
	}

	if _, err := c2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSplashCaseCreateVerify runs the lifecycle on a real SPLASH
// kernel at mini size, checkpoint embedded.
func TestSplashCaseCreateVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPLASH lifecycle in -short mode")
	}
	c := &Case{
		Name:         "fft-mini",
		Workload:     "fft",
		Size:         "mini",
		Policy:       "Dyn-FCFS",
		CheckpointAt: 1,
	}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestExpectDivergenceDetected corrupts a recorded expectation and
// checks Verify reports it.
func TestExpectDivergenceDetected(t *testing.T) {
	c := &Case{Name: "chaos-diverge", Workload: ChaosName, Policy: "SCOMA", Seed: 3, Ops: 200}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	c.Expect.Cycles++
	if _, err := c.Verify(); err == nil {
		t.Fatal("verify accepted a corrupted expectation")
	}
}

// TestCorpusReplays is the regression gate over the committed corpus:
// every .prismcase under testdata/cases must verify — full rerun and,
// where a checkpoint is embedded, restore + resume — bit-identically.
func TestCorpusReplays(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "cases")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus directory: %v", err)
	}
	var n int
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".prismcase" {
			continue
		}
		n++
		path := filepath.Join(dir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			if testing.Short() && n > 1 {
				t.Skip("corpus subset in -short mode")
			}
			c, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n == 0 {
		t.Fatalf("no .prismcase files in %s", dir)
	}
}

// TestCorpusReRecordIdentical re-records every committed case from its
// knobs alone — Checkpoint and Expect cleared, then Create, Write and
// Read — and requires the result to equal the committed case exactly.
// Replaying (TestCorpusReplays) cannot see a change in what a
// checkpoint captures or in the order it lists it; re-recording can.
func TestCorpusReRecordIdentical(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "cases")
	paths, err := filepath.Glob(filepath.Join(dir, "*.prismcase"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no .prismcase files in %s (%v)", dir, err)
	}
	for i, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			if testing.Short() && i > 0 {
				t.Skip("corpus subset in -short mode")
			}
			orig, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			fresh := *orig
			fresh.Checkpoint, fresh.Expect = nil, nil
			if err := Create(&fresh); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, &fresh); err != nil {
				t.Fatal(err)
			}
			back, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, orig) {
				got, _ := json.Marshal(back)
				want, _ := json.Marshal(orig)
				t.Fatalf("re-recorded case differs from the committed one%s", firstDiff(got, want))
			}
		})
	}
}

// firstDiff describes where two JSON encodings first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	if i == len(got) && i == len(want) {
		return " (the encodings are identical)"
	}
	ctx := func(b []byte) []byte {
		lo, hi := max(i-80, 0), min(i+80, len(b))
		return b[lo:hi]
	}
	return fmt.Sprintf(" at byte %d:\n got: …%s…\nwant: …%s…", i, ctx(got), ctx(want))
}

// TestMinimizeShrinks drives the minimizer with a synthetic oracle so
// the shrink logic is tested without needing a real protocol bug: the
// "failure" persists whenever the seed survives and at least 100 ops
// run.
func TestMinimizeShrinks(t *testing.T) {
	c := &Case{
		Name:         "shrink-me",
		Workload:     ChaosName,
		Policy:       "Dyn-Both",
		Seed:         7,
		Ops:          1600,
		HardwareSync: true,
		DRAMPIT:      true,
		FaultSpec:    "seed=7,drop=0.05",
		SampleEvery:  1000,
	}
	fails := func(c *Case) bool { return c.Seed == 7 && c.Ops >= 100 }
	m := Minimize(c, fails)
	if m.Ops < 100 || m.Ops >= 200 {
		t.Errorf("ops not minimized: %d", m.Ops)
	}
	if m.FaultSpec != "" || m.HardwareSync || m.DRAMPIT || m.SampleEvery != 0 {
		t.Errorf("knobs not cleared: %+v", m)
	}
	if m.Policy != "SCOMA" {
		t.Errorf("policy not simplified: %s", m.Policy)
	}
	if m.Nodes != 2 || m.Procs != 1 {
		t.Errorf("shape not minimized: nodes=%d procs=%d", m.Nodes, m.Procs)
	}
	if m.Checkpoint != nil || m.Expect != nil {
		t.Error("stale checkpoint/expectations survived minimization")
	}
	// The minimized case must still fail under the oracle and the
	// original must be untouched.
	if !fails(m) {
		t.Error("minimized case no longer fails")
	}
	if c.Ops != 1600 || !c.HardwareSync {
		t.Error("minimize mutated its input")
	}
}

// TestMinimizeNonFailure: a passing case comes back (stripped) rather
// than being shrunk into something unrelated.
func TestMinimizeNonFailure(t *testing.T) {
	c := &Case{Name: "ok", Workload: ChaosName, Policy: "SCOMA", Seed: 1, Ops: 800}
	m := Minimize(c, func(*Case) bool { return false })
	if m.Ops != 800 {
		t.Errorf("non-failing case was shrunk: ops=%d", m.Ops)
	}
}
