package main

import (
	"fmt"
	"runtime"
	"time"

	"prism/internal/cache"
	"prism/internal/directory"
	"prism/internal/ipc"
	"prism/internal/kernel"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/node"
	"prism/internal/pit"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/internal/timing"
)

// microBench is one layer microbenchmark: setUp builds the state and
// returns a body that runs n operations.
type microBench struct {
	layer string // metric prefix, e.g. "sim.event"
	setUp func() (body func(n int), stop func(), err error)
}

// microBenches cover the hot call of each layer the sweeps lean on.
// Each reports ns/op, in process CPU time like the end-to-end timings
// (measure.go), and allocs/op.
var microBenches = []microBench{
	{"sim.event", benchEvent},
	{"sim.handoff", benchHandoff},
	{"cache.access", benchCacheAccess},
	{"network.send", benchNetworkSend},
	{"pit.lookup", benchPITLookup},
	{"pit.reverse_hash", benchPITReverse},
	{"directory.access", benchDirectoryAccess},
	{"kernel.pte_hit", benchKernelPTEHit},
}

// microSink keeps the compiler from discarding benchmarked lookups.
var microSink int

type microResult struct {
	nsPerOp, allocsPerOp float64
}

// microRounds timed rounds of about microRound each give a median.
const (
	microRounds = 5
	microRound  = 30 * time.Millisecond
)

func runMicro() (map[string]microResult, error) {
	out := map[string]microResult{}
	for _, mb := range microBenches {
		body, stop, err := mb.setUp()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.layer, err)
		}
		// Calibrate n so one round takes about microRound.
		n := 64
		for {
			t0 := processCPU()
			body(n)
			if d := processCPU() - t0; d >= microRound/4 {
				n = int(float64(n) * float64(microRound) / float64(d))
				break
			}
			n *= 4
		}
		var ns, allocs []float64
		var ms0, ms1 runtime.MemStats
		for r := 0; r < microRounds; r++ {
			runtime.ReadMemStats(&ms0)
			t0 := processCPU()
			body(n)
			d := processCPU() - t0
			runtime.ReadMemStats(&ms1)
			ns = append(ns, float64(d.Nanoseconds())/float64(n))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
		}
		if stop != nil {
			stop()
		}
		out[mb.layer] = microResult{nsPerOp: median(ns), allocsPerOp: median(allocs)}
	}
	return out, nil
}

// benchEvent is the engine's schedule + dispatch of one event.
func benchEvent() (func(int), func(), error) {
	e := sim.NewEngine()
	return func(n int) {
		for i := 0; i < n; i++ {
			e.Schedule(sim.Time(i%64), func() {})
			if e.Pending() > 1024 {
				e.RunUntilIdle()
			}
		}
		e.RunUntilIdle()
	}, nil, nil
}

// benchHandoff is one block/step round trip between the engine and a
// simulated processor's coroutine.
func benchHandoff() (func(int), func(), error) {
	e := sim.NewEngine()
	c := sim.NewCoro("bench")
	stopped := false
	c.Start(func() {
		for !stopped {
			c.Block()
		}
	})
	e.ScheduleStep(0, c)
	e.RunUntilIdle()
	body := func(n int) {
		for i := 0; i < n; i++ {
			c.Step()
		}
	}
	// Let the coroutine's goroutine return.
	stop := func() {
		stopped = true
		c.Step()
	}
	return body, stop, nil
}

// benchCacheAccess is a processor lookup in a default-geometry L2,
// filling on a miss, over a pseudo-random line stream twice the
// cache's size (about half the lookups hit).
func benchCacheAccess() (func(int), func(), error) {
	geom := mem.DefaultGeometry
	cfg := node.DefaultConfig(geom).L2
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	c := cache.New("L2", cfg)
	lines := uint64(2 * cfg.Size / cfg.LineSize)
	x := uint64(88172645463325252)
	return func(n int) {
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			pa := mem.PAddr((x % lines) * uint64(cfg.LineSize))
			write := x&7 == 0
			if c.Access(pa, write) == cache.Miss {
				st := cache.Shared
				if write {
					st = cache.Modified
				}
				c.Insert(pa, st)
			}
		}
	}, nil, nil
}

// sink receives the benchmark's messages and drops them.
type sink struct{}

func (*sink) Deliver(mem.NodeID, network.Message) {}

// benchNetworkSend is one message through the interconnect: send-side
// NI occupancy, the in-flight event and delivery at the receiver.
func benchNetworkSend() (func(int), func(), error) {
	const nodes = 8
	e := sim.NewEngine()
	nw := network.New(e, nodes, network.DefaultConfig)
	s := &sink{}
	for i := 0; i < nodes; i++ {
		nw.Attach(mem.NodeID(i), s)
	}
	var msg network.Message = s
	return func(n int) {
		for i := 0; i < n; i++ {
			nw.Send(e.Now(), mem.NodeID(i%nodes), mem.NodeID((i+3)%nodes), 72, msg)
			if i%256 == 255 {
				e.RunUntilIdle()
			}
		}
		e.RunUntilIdle()
	}, nil, nil
}

func benchPITTable() *pit.PIT {
	p := pit.New(0, mem.DefaultGeometry, pit.DefaultConfig)
	for i := 0; i < 256; i++ {
		p.Insert(mem.FrameID(i), pit.Entry{
			Mode:  pit.ModeSCOMA,
			GPage: mem.GPage{Seg: 1, Page: uint32(i)},
			Caps:  mem.AllNodes(),
		})
	}
	return p
}

// benchPITLookup is the forward translation behind every bus
// transaction.
func benchPITLookup() (func(int), func(), error) {
	p := benchPITTable()
	return func(n int) {
		for i := 0; i < n; i++ {
			if e, _ := p.Lookup(mem.FrameID(i & 255)); e != nil {
				microSink++
			}
		}
	}, nil, nil
}

// benchPITReverse is a reverse translation with no frame guess.
func benchPITReverse() (func(int), func(), error) {
	p := benchPITTable()
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, _ := p.ReverseLookup(mem.GPage{Seg: 1, Page: uint32(i & 255)}, 0, false); ok {
				microSink++
			}
		}
	}, nil, nil
}

// benchDirectoryAccess is the home side's per-request line lookup.
func benchDirectoryAccess() (func(int), func(), error) {
	d := directory.New(0, mem.DefaultGeometry, directory.DefaultConfig)
	const pages = 64
	for i := 0; i < pages; i++ {
		d.AddPage(mem.GPage{Seg: 1, Page: uint32(i)}, 0)
	}
	lpp := mem.DefaultGeometry.LinesPerPage()
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, _, ok := d.Access(mem.GPage{Seg: 1, Page: uint32(i % pages)}, i%lpp); ok {
				microSink++
			}
		}
	}, nil, nil
}

// benchKernelPTEHit is the fault path's translation on a software TLB
// hit, on one node with one private page mapped.
func benchKernelPTEHit() (func(int), func(), error) {
	e := sim.NewEngine()
	geom := mem.DefaultGeometry
	tm := timing.Default()
	reg := ipc.NewRegistry(geom, 1)
	net := network.New(e, 1, network.DefaultConfig)
	k := kernel.New(e, 0, geom, &tm, kernel.Config{RealFrames: 256}, reg, net, policy.SCOMA{})
	n := node.New(e, 0, geom, &tm, node.DefaultConfig(geom), net, reg, k)
	net.Attach(0, n)
	const vsid = mem.VSID(2)
	k.AttachPrivate(vsid)
	vp := mem.VPage{Seg: vsid, Page: 0}
	mapped := false
	k.HandleFault(vp, func(at sim.Time, f mem.FrameID, ok bool) { mapped = ok })
	e.RunUntilIdle()
	if !mapped {
		return nil, nil, fmt.Errorf("private fault did not map the page")
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := k.PTE(vp); ok {
				microSink++
			}
		}
	}, nil, nil
}
