// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public packages for a fixed time,
// checks every output against the committed goldens or recorded
// expectations, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run measures half its time untraced and half with a
// CPU profile, benchmark spans and per-cell metric exports on, and
// reports the per-layer metrics. See README.md for the workloads, the
// metric → layer → workload table and how to read a traced run.
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload splash_ci --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes: result records, spans,
// profiles, digests and scratch files. It lies inside the checkout
// and is ignored by git.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 25, "measured time; every run makes at least one pass per phase")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	mk, ok := workloadsByName[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	env, err := newEnv(".", *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := measure(mk, env, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	stamp := hostStamp(env)
	if err := report(stdout, stderr, *name, env, stamp, res, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is one run's outcome: the attempt counts and the metrics of
// the requested kind, in emission order.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	digest            []string // simulated-statistics digest lines (traced runs)
	spans             []span   // traced runs
}

type metric struct {
	name  string
	value float64
	unit  string
}

// maxProblems bounds how many failure descriptions a run keeps.
const maxProblems = 8

// report prints every metric with its unit, writes the run's record
// under outDir, and ends stdout with the result JSON line.
func report(stdout, stderr io.Writer, name string, env *env, stamp map[string]string, res *result, traced bool) error {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "host %s=%s\n", k, stamp[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", name, p)
	}
	vals := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", m.name, m.value, m.unit)
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   vals,
	}
	if err := writeRecord(name, env, stamp, res, traced, line); err != nil {
		return err
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", buf)
	return err
}

// writeRecord keeps the run's host stamp, metrics, digest and spans
// beside the checkout, named by workload, seed and mode.
func writeRecord(name string, env *env, stamp map[string]string, res *result, traced bool, line map[string]any) error {
	dir := filepath.Join(env.root, outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, env.seed, mode))
	rec := map[string]any{"workload": name, "host": stamp, "result": line, "problems": res.problems}
	if traced {
		rec["digest"] = res.digest
	}
	buf, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	buf, err = json.Marshal(res.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", buf, 0o644)
}
