package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism/internal/harness"
	"prism/internal/testcase"
)

// declared reads the metric lists BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func checkEmitted(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", what, m.name)
		case unit != m.unit:
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", what, m.name, m.unit, unit)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: does not emit %s", what, name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at its smallest length,
// untraced and traced, and checks every declared metric comes out with
// its unit and every output matches its golden.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			env := testEnv(t)
			for _, traced := range []bool{false, true} {
				res, err := measure(workloadsByName[name], env, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.failed, res.attempted, res.problems)
				}
				want := e2e
				if traced {
					want = layer
				}
				checkEmitted(t, name, res.metrics, want)
				for _, m := range res.metrics {
					if !traced && m.value <= 0 {
						t.Errorf("end-to-end %s = %g, want > 0", m.name, m.value)
					}
				}
			}
		})
	}
}

// corruptRow copies the golden CSV at path into dir with the cycles of
// the row keyed key changed, and returns the copy's path.
func corruptRow(t *testing.T, path, dir, key string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	found := false
	for i, ln := range lines {
		if cellKey(ln) == key {
			f := strings.Split(ln, ",")
			f[2] += "1" // cycles
			lines[i] = strings.Join(f, ",")
			found = true
		}
	}
	if !found {
		t.Fatalf("%s has no row %s", path, key)
	}
	out := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptGoldenRowFails: a workload checked against a golden with
// one row changed must count exactly the operation that reads it as
// failed — the sweep's cell, or the gateway's cold job.
func TestCorruptGoldenRowFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  string
	}{
		{"dc64_traffic", "zipf:ops=512;pages=512,Dyn-LRU"},
		{"splash_ci", "water-nsq,Dyn-LRU"},
		{"gateway", "water-nsq,Dyn-LRU"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t)
			if tc.name == "dc64_traffic" {
				env.scaleGolden = corruptRow(t, env.scaleGolden, t.TempDir(), tc.key)
			} else {
				env.ciGolden = corruptRow(t, env.ciGolden, t.TempDir(), tc.key)
			}
			res, err := measure(workloadsByName[tc.name], env, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 1 {
				t.Errorf("failed = %d of %d, want exactly the operation reading %s: %v", res.failed, res.attempted, tc.key, res.problems)
			}
		})
	}
}

// TestGatewayRowsMustMatchSpec: a result holding correct golden rows of
// another cell than the spec asked for must fail.
func TestGatewayRowsMustMatchSpec(t *testing.T) {
	golden, err := readGolden(testEnv(t).ciGolden)
	if err != nil {
		t.Fatal(err)
	}
	csv := func(keys ...string) []byte {
		s := harness.CSVHeader + "\n"
		for _, k := range keys {
			s += golden[k] + "\n"
		}
		return []byte(s)
	}
	want := []string{"lu,SCOMA", "lu,Dyn-LRU"}
	for _, tc := range []struct {
		name string
		csv  []byte
		ok   bool
	}{
		{"the spec's rows", csv(want...), true},
		{"another app's rows", csv("fft,SCOMA", "fft,Dyn-LRU"), false},
		{"another policy's row", csv("lu,SCOMA", "lu,LANUMA"), false},
		{"a row missing", csv("lu,SCOMA"), false},
		{"a row extra", csv("lu,SCOMA", "lu,LANUMA", "lu,Dyn-LRU"), false},
	} {
		if got := checkRows(tc.csv, golden, want); (got == "") != tc.ok {
			t.Errorf("%s: checkRows = %q, want ok=%v", tc.name, got, tc.ok)
		}
	}
}

// TestTamperedCaseFails: a corpus case whose recorded expectation was
// altered must fail both its replay check and its re-record check.
func TestTamperedCaseFails(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(env.corpusDir, "*.prismcase"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v", err)
	}
	for i, f := range files {
		c, err := testcase.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			c.Expect.Cycles++
		}
		if err := testcase.Save(filepath.Join(dir, filepath.Base(f)), c); err != nil {
			t.Fatal(err)
		}
	}
	env.corpusDir = dir
	res, err := measure(newReplay, env, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 2 {
		t.Errorf("failed = %d of %d, want the tampered case's replay and re-record: %v", res.failed, res.attempted, res.problems)
	}
}
