package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// layerOfDir maps a module directory (relative to the checkout root)
// to the layer its host time is charged to. Directories not listed,
// and samples with no frame from this module, count as "other".
var layerOfDir = map[string]string{
	"internal/sim":           "sim",
	"internal/pool":          "sim",
	"internal/node":          "node",
	"internal/timing":        "node",
	"internal/cache":         "cache",
	"internal/coherence":     "coherence",
	"internal/directory":     "directory",
	"internal/pit":           "pit",
	"internal/kernel":        "kernel",
	"internal/policy":        "kernel",
	"internal/migrate":       "kernel",
	"internal/ipc":           "kernel",
	"internal/network":       "network",
	"internal/fault":         "network",
	"internal/mem":           "mem",
	"workloads":              "workloads",
	"internal/harness":       "harness",
	"internal/server":        "server",
	"internal/server/client": "server",
	"internal/snapshot":      "snapshot",
	"internal/testcase":      "snapshot",
	"internal/metrics":       "metrics",
	"internal/core":          "core",
	".":                      "core",
	"perfbench":              "bench",
}

// coreFiles splits internal/core by file: checkpoint capture and
// restore belong to the snapshot layer, the chaos workload to
// workloads.
var coreFiles = map[string]string{
	"checkpoint.go": "snapshot",
	"msgcodec.go":   "snapshot",
	"chaos.go":      "workloads",
}

// Runtime leaf functions by bucket. A sample whose innermost frame is
// one of these is charged to the runtime bucket; any other runtime or
// standard-library leaf is charged to the innermost frame from this
// module.
var runtimeBuckets = []struct {
	bucket   string
	prefixes []string
}{
	{"runtime.map", []string{
		"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.aeshash",
		"runtime.strhash", "runtime.interhash", "runtime.nilinterhash", "runtime.f64hash", "runtime.c128hash",
	}},
	{"runtime.gc", []string{
		"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.markBits", "runtime.findObject",
		"runtime.scanblock", "runtime.scanstack", "runtime.scanframe", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.sweepone", "runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.markroot", "runtime.(*gcBits)",
		"runtime.typePointers", "runtime.(*mspan).typePointers", "runtime.spanOf", "runtime.pageIndexOf",
	}},
	{"runtime.alloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.newarray",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.memclrNoHeapPointers",
		"runtime.nextFreeFast", "runtime.heapSetType", "runtime.(*mspan).init", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.makemap", "runtime.(*pageAlloc)", "runtime.(*fixalloc)",
		"runtime.publicationBarrier", "runtime.deductAssistCredit",
	}},
	{"runtime.sched", []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.chan", "runtime.selectgo", "runtime.send", "runtime.recv", "runtime.lock",
		"runtime.unlock", "runtime.futex", "runtime.usleep", "runtime.osyield", "runtime.procyield",
		"runtime.mcall", "runtime.gogo", "runtime.execute", "runtime.stealWork", "runtime.runq",
		"runtime.note", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.netpoll",
		"runtime.checkTimers", "runtime.semacquire", "runtime.semrelease", "runtime.goschedImpl",
		"runtime.gosched", "runtime.casgstatus", "runtime.nanotime", "runtime.resetspinning", "runtime.handoff",
		"runtime.acquirep", "runtime.releasep", "runtime.(*timers)", "runtime.systemstack", "runtime.mstart",
		"runtime.newproc", "runtime.goexit", "runtime.epoll", "runtime.notewakeup", "runtime.pMask",
		"runtime.(*randomEnum)", "runtime.exitsyscall", "runtime.entersyscall", "runtime.reentersyscall",
		"runtime.runqsteal", "runtime.globrunq", "runtime.injectglist", "runtime.(*waitq)",
	}},
}

// gcRoots mark a background GC goroutine anywhere on the stack.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

type frame struct{ fn, file string }

// foldProfile charges every CPU sample of the profile to a layer and
// returns seconds per layer and the profile's total. It reads the
// profile through `go tool pprof -traces -lines`.
func foldProfile(env *env, path string) (map[string]float64, float64, error) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		gocmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(gocmd, "tool", "pprof", "-traces", "-lines", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	self := map[string]float64{}
	var total float64
	var stack []frame
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			self[classify(env.root, stack)] += value.Seconds()
			total += value.Seconds()
		}
		stack, value = nil, 0
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBlock := false
	for sc.Scan() {
		ln := sc.Text()
		if strings.HasPrefix(ln, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(ln) == "" {
			continue
		}
		f := strings.Fields(ln)
		if len(stack) == 0 && value == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof trace line %q: %v", ln, err)
			}
			value, f = d, f[1:]
		}
		if len(f) >= 2 {
			stack = append(stack, frame{fn: f[0], file: strings.SplitN(f[1], ":", 2)[0]})
		} else if len(f) == 1 {
			stack = append(stack, frame{fn: f[0]})
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return self, total, nil
}

// classify names the layer one sample's stack (innermost first) is
// charged to.
func classify(root string, stack []frame) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(f.fn, g) {
				return "runtime.gc"
			}
		}
	}
	leaf := stack[0].fn
	for _, b := range runtimeBuckets {
		for _, p := range b.prefixes {
			if strings.HasPrefix(leaf, p) {
				return b.bucket
			}
		}
	}
	for _, f := range stack {
		if l := layerOfFile(root, f.file); l != "" {
			return l
		}
	}
	// Goroutines of the HTTP stack run no module code of their own;
	// they serve the gateway.
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "net/http.") || strings.HasPrefix(f.fn, "net.") {
			return "server"
		}
	}
	return "other"
}

// layerOfFile returns the layer of a source file of this module, or ""
// for a file outside it.
func layerOfFile(root, file string) string {
	rel, ok := strings.CutPrefix(file, root+string(filepath.Separator))
	if !ok {
		return ""
	}
	dir, base := filepath.Dir(rel), filepath.Base(rel)
	if dir == "internal/core" {
		if l, ok := coreFiles[base]; ok {
			return l
		}
	}
	return layerOfDir[dir]
}
