package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"prism"
	"prism/internal/metrics"
)

// env is what every workload is built from: where the checkout is, the
// seed, and the committed inputs it checks against. Tests point the
// golden and corpus paths at tampered copies.
type env struct {
	root        string
	seed        int64
	tmp         string // scratch directory inside the checkout
	ciGolden    string // results_ci.csv
	scaleGolden string // results_scale.csv
	corpusDir   string // testdata/cases
}

func newEnv(root string, seed int64) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:        root,
		seed:        seed,
		tmp:         filepath.Join(root, outDir, "tmp"),
		ciGolden:    filepath.Join(root, "results_ci.csv"),
		scaleGolden: filepath.Join(root, "results_scale.csv"),
		corpusDir:   filepath.Join(root, "testdata", "cases"),
	}
	for _, p := range []string{filepath.Join(root, "go.mod"), e.ciGolden, e.scaleGolden, e.corpusDir} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("not a checkout of the simulator: %w", err)
		}
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	// The gateway's per-job metric exports go to os.TempDir; keep them
	// inside the checkout.
	if err := os.Setenv("TMPDIR", e.tmp); err != nil {
		return nil, err
	}
	return e, nil
}

// workload is one benchmark workload. setUp prepares a pass — loads
// what the pass checks against, starts what it talks to — and is timed
// as set-up; the returned runner makes the timed pass.
type workload interface {
	setUp() (runner, error)
}

type runner interface {
	// run makes one pass of the workload's fixed work, checking every
	// output. Program failures are counted in p; an error means the
	// benchmark itself could not proceed.
	run(p *pass) error
	close() error
}

var workloadsByName = map[string]func(*env) workload{
	"splash_ci":    newSplashCI,
	"dc64_traffic": newDC64Traffic,
	"gateway":      newGateway,
	"replay":       newReplay,
}

func workloadNames() []string {
	var names []string
	for n := range workloadsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass collects one pass's samples and verdicts. Its methods are safe
// for concurrent use (the gateway's clients share one pass).
type pass struct {
	tr      *tracer // nil when untraced
	collect bool    // gather simulated statistics for the digest

	mu        sync.Mutex
	ops       []float64            // the workload's request latencies, ms
	lat       map[string][]float64 // other named latency samples, ms
	refs      uint64               // simulated memory references
	counts    map[string]float64   // other per-pass quantities
	attempted int
	failed    int
	problems  []string
	stats     simStats
}

func newPass(tr *tracer, collect bool) *pass {
	return &pass{tr: tr, collect: collect, lat: map[string][]float64{}, counts: map[string]float64{}, stats: simStats{}}
}

// done records one attempted operation; a non-empty problem marks it
// failed.
func (p *pass) done(problem string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if problem != "" {
		p.failed++
		if len(p.problems) < maxProblems {
			p.problems = append(p.problems, problem)
		}
	}
}

func (p *pass) op(d time.Duration) {
	p.mu.Lock()
	p.ops = append(p.ops, ms(d))
	p.mu.Unlock()
}

func (p *pass) sample(name string, d time.Duration) {
	p.mu.Lock()
	p.lat[name] = append(p.lat[name], ms(d))
	p.mu.Unlock()
}

func (p *pass) addRefs(n uint64) {
	p.mu.Lock()
	p.refs += n
	p.mu.Unlock()
}

func (p *pass) count(name string, v float64) {
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// addResults and addExport fold one cell's simulated statistics into
// the pass's digest when the pass gathers it.
func (p *pass) addResults(r prism.Results) {
	if !p.collect {
		return
	}
	p.mu.Lock()
	p.stats.addResults(r)
	p.mu.Unlock()
}

func (p *pass) addExport(e *metrics.Export) {
	if !p.collect {
		return
	}
	p.mu.Lock()
	p.stats.addExport(e)
	p.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is a sequence of passes run until its budget is spent.
type phase struct {
	walls  []float64 // seconds
	cpus   []float64 // process CPU seconds, all threads
	rss    []float64 // peak resident memory, MB
	passes []*pass
	rt     runtimeDelta
}

// The end-to-end timings are process CPU time, not wall time. The host
// is a shared VM whose hypervisor takes CPUs away in bursts: over six
// minutes of back-to-back passes on two vCPUs it stole 0 to 4.5 s of
// the 3.7–6.6 s a replay pass took, and the passes' wall times spread
// 0.11–0.21 (interquartile range over median) against 0.05–0.07 for
// their CPU times. Time the hypervisor keeps is not the program's, and
// CPU time does not count it.
const clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID

// processCPU is the CPU time all the process's threads have used.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

// setup_s is the median of setUpSamples samples. One set-up takes
// tens to hundreds of microseconds of process CPU time, so a single one
// is mostly timer and scheduler jitter. A sample times back-to-back
// set-ups (each torn down, untimed, before the next) on each CPU in
// turn, at least setUpsPerCPU of them and setUpTimePerCPU of set-up
// time per CPU, and is the mean over the CPUs of their mean set-up
// time. Each sample starts from a collected heap. The passes' own
// set-ups are not counted: they follow heavy passes with cold caches,
// and mixing the two populations would let the median jump between
// them.
const (
	setUpSamples    = 15
	setUpsPerCPU    = 50
	setUpTimePerCPU = 10 * time.Millisecond
)

// timeSetUps returns the samples of setup_s. Work this short depends
// on the CPU it runs on: on a shared 2-vCPU host one CPU took twice as
// long as the other, and since a thread stays on one CPU, a run's
// median depended on where the kernel had placed it. So each sample
// binds the timing thread to each CPU the process may use in turn.
func timeSetUps(w workload) (_ []float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask, cpus := onlineCPUs()
	if len(cpus) > 1 {
		defer func() {
			if rerr := setAffinity(&mask); err == nil {
				err = rerr
			}
		}()
	} else {
		cpus = []int{-1} // leave the thread where it is
	}
	var out []float64
	for i := 0; i < setUpSamples; i++ {
		runtime.GC()
		var sample float64
		for _, cpu := range cpus {
			if cpu >= 0 {
				one := cpuSet{}
				one[cpu/64] |= 1 << (cpu % 64)
				if err := setAffinity(&one); err != nil {
					return nil, fmt.Errorf("set-up timing: bind to CPU %d: %w", cpu, err)
				}
			}
			var sum time.Duration
			n := 0
			for ; n < setUpsPerCPU || sum < setUpTimePerCPU; n++ {
				c0 := processCPU()
				r, err := w.setUp()
				if err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
				sum += processCPU() - c0
				if err := r.close(); err != nil {
					return nil, err
				}
			}
			sample += sum.Seconds() / float64(n) / float64(len(cpus))
		}
		out = append(out, sample)
	}
	return out, nil
}

// cpuSet is the kernel's CPU affinity mask (cpu_set_t).
type cpuSet [16]uint64

// onlineCPUs returns the calling thread's affinity mask and the CPUs in
// it; no CPUs if the mask cannot be read.
func onlineCPUs() (cpuSet, []int) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, nil
	}
	var cpus []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return s, cpus
}

// setAffinity binds the calling thread to the CPUs in s.
func setAffinity(s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// runPhase makes passes until budget is spent. A pass starts only if
// it should end less than half a pass past the budget, going by the
// median wall time of the passes so far, so that a run ends within half
// a pass of its budget however long its passes take; the first pass
// always runs.
//
// Each pass starts from a collected heap with its free memory returned
// to the operating system, and samples its own peak resident memory.
// Without that, the peak depended on what earlier passes had left
// behind: dc64_traffic's grew from 110 to 156 MB over six passes of one
// process, and the process's high-water mark spread 0.16 (interquartile
// range over median) over ten runs.
func runPhase(w workload, budget time.Duration, tr *tracer, collect bool) (*phase, error) {
	ph := &phase{}
	rt0 := readRuntime()
	start := time.Now()
	for len(ph.passes) == 0 || time.Since(start)+time.Duration(median(ph.walls)*float64(time.Second)/2) <= budget {
		debug.FreeOSMemory()
		r, err := w.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p := newPass(tr, collect)
		stop := make(chan struct{})
		rss := sampleRSS(stop)
		t0, c0 := time.Now(), processCPU()
		err = r.run(p)
		wall, cpu := time.Since(t0).Seconds(), (processCPU() - c0).Seconds()
		close(stop)
		ph.rss = append(ph.rss, <-rss)
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		ph.walls = append(ph.walls, wall)
		ph.cpus = append(ph.cpus, cpu)
		ph.passes = append(ph.passes, p)
	}
	ph.rt = readRuntime().since(rt0)
	return ph, nil
}

func (ph *phase) tally(res *result) {
	for _, p := range ph.passes {
		res.attempted += p.attempted
		res.failed += p.failed
		for _, s := range p.problems {
			if len(res.problems) < maxProblems {
				res.problems = append(res.problems, s)
			}
		}
	}
}

// opLatencies returns each pass's mean request latency (wall time,
// ms); wall.op_p50_ms is their median. A pass's requests are of
// different kinds — the gateway's five specs, the replay's four cases —
// and a cold job also waits for the other client's job, by an amount
// that depends on the submission order. The median of all requests would fall between two
// kinds and jump with the few samples nearest to it; the mean over a
// pass weighs every kind the same in every pass, and with two
// closed-loop clients on a one-job-at-a-time server it does not depend
// on the order (about two run times each, by Little's law). The median
// over passes then drops a pass the host slowed.
func (ph *phase) opLatencies() []float64 {
	var out []float64
	for _, p := range ph.passes {
		if len(p.ops) == 0 {
			continue
		}
		var sum float64
		for _, d := range p.ops {
			sum += d
		}
		out = append(out, sum/float64(len(p.ops)))
	}
	return out
}

func (ph *phase) lat(name string) []float64 {
	var all []float64
	for _, p := range ph.passes {
		all = append(all, p.lat[name]...)
	}
	return all
}

func (ph *phase) count(name string) float64 {
	var t float64
	for _, p := range ph.passes {
		t += p.counts[name]
	}
	return t
}

func (ph *phase) refsPerSecond() float64 {
	var refs uint64
	var secs float64
	for i, p := range ph.passes {
		refs += p.refs
		secs += ph.walls[i]
	}
	return float64(refs) / secs
}

// measure runs a workload for budget. Untraced, it reports the
// end-to-end metrics; traced, the per-layer ones.
func measure(mk func(*env) workload, env *env, budget time.Duration, traced bool) (*result, error) {
	w := mk(env)
	if traced {
		return measureTraced(w, env, budget)
	}
	setups, err := timeSetUps(w)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(w, budget, nil, false)
	if err != nil {
		return nil, err
	}
	res := &result{}
	ph.tally(res)
	res.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"pass_cpu_s", median(ph.cpus), "s"},
		{"rss_peak_mb", median(ph.rss), "MB"},
	}
	return res, nil
}

// measureTraced runs the layer microbenchmarks, spends half the budget
// untraced and half with the CPU profile, spans and metrics exports
// on, and folds what it saw into the per-layer metrics.
func measureTraced(w workload, env *env, budget time.Duration) (*result, error) {
	micro, err := runMicro()
	if err != nil {
		return nil, err
	}
	res := &result{}
	plain, err := runPhase(w, budget/2, nil, false)
	if err != nil {
		return nil, err
	}
	plain.tally(res)

	profPath := filepath.Join(env.tmp, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tr := newTracer()
	traced, err := runPhase(w, budget/2, tr, true)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	traced.tally(res)
	self, total, err := foldProfile(env, profPath)
	if err != nil {
		return nil, fmt.Errorf("profile fold: %w", err)
	}
	n := float64(len(traced.passes))
	for k := range self {
		self[k] /= n
	}
	if share := self["other"] / (total / n); share > 0.05 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %.1f%% of profiled CPU is unattributed\n", 100*share)
	}

	// Simulated statistics are deterministic: every traced pass must
	// produce the same digest.
	stats := traced.passes[0].stats
	for i, p := range traced.passes[1:] {
		if !p.stats.equal(stats) {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("simulated statistics of traced pass %d differ from pass 1", i+2))
		}
	}
	res.digest = stats.lines()
	res.spans = tr.spans
	res.metrics = layerMetrics(layerInputs{
		micro:    micro,
		plain:    plain,
		traced:   traced,
		stats:    stats,
		self:     self,
		profiled: total / n,
		spans:    tr.medians(),
	})
	return res, nil
}

// rssEvery is how often a pass samples the process's resident memory.
const rssEvery = 10 * time.Millisecond

// sampleRSS samples the resident memory until stop is closed, then
// sends the peak, MB.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-stop:
				out <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return out
}

// residentMB reads the process's resident set size.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median and quantile use the same interpolation as Python's
// statistics.quantiles (the "exclusive" method) for p in (0, 1).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1)
	i := int(pos)
	switch {
	case i < 1:
		return s[0]
	case i >= len(s):
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}
