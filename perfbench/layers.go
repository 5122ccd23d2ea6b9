package main

// layerInputs is everything a traced run measured.
type layerInputs struct {
	micro    map[string]microResult
	plain    *phase             // untraced half
	traced   *phase             // profiled, spanned half
	stats    simStats           // one traced pass's simulated statistics
	self     map[string]float64 // profiled CPU seconds per traced pass, by layer
	profiled float64            // profiled CPU seconds per traced pass
	spans    map[string]float64 // median span duration, ms
}

// refs are the simulated processors' memory references.
var refs = []string{"proc/reads", "proc/writes"}

// perLayer lists the per-layer metrics in emission order. Simulated
// counts are one pass's totals over cells and nodes, from the metrics
// exports (every workload has those; the gateway sees no Results); *.self_s are
// profiled CPU seconds per pass; *_ns and *_allocs come from the layer
// microbenchmarks; *_ms are medians of benchmark spans or samples.
// A metric of a layer the workload does not reach reads 0.
var perLayer = []struct {
	name, unit string
	value      func(in *layerInputs) float64
}{
	{"sim.self_s", "s", self("sim")},
	{"sim.event_ns", "ns", microNs("sim.event")},
	{"sim.event_allocs", "count", microAllocs("sim.event")},
	{"sim.handoff_ns", "ns", microNs("sim.handoff")},
	{"sim.handoff_allocs", "count", microAllocs("sim.handoff")},
	{"sim.cycles", "cycles", stat("export/cycles")},

	{"node.self_s", "s", self("node")},
	{"node.refs", "count", stat(refs...)},
	{"node.tlb_misses", "count", stat("proc/tlb_misses")},
	{"node.tlb_miss_ratio", "ratio", statRatio([]string{"proc/tlb_misses"}, refs)},
	{"node.stall_cycles", "cycles", stat("proc/stall_cycles")},
	{"node.bus_wait_cycles", "cycles", stat("bus/addr_bus_wait_cycles", "bus/data_bus_wait_cycles")},
	{"node.sync_ops", "count", stat("proc/sync_ops")},

	{"cache.self_s", "s", self("cache")},
	{"cache.l1_miss_ratio", "ratio", statRatio([]string{"proc/l1_misses"}, refs)},
	{"cache.l2_miss_ratio", "ratio", statRatio([]string{"proc/l2_misses"}, []string{"proc/l1_misses"})},
	{"cache.access_ns", "ns", microNs("cache.access")},
	{"cache.access_allocs", "count", microAllocs("cache.access")},

	{"coherence.self_s", "s", self("coherence")},
	{"coherence.msgs", "count", func(in *layerInputs) float64 { return in.stats.sumMatching("coherence", "msg_", "") }},
	{"coherence.remote_misses", "count", stat("coherence/remote_misses")},
	{"coherence.ctrl_busy_cycles", "cycles", stat("coherence/ctrl_busy_cycles")},
	{"coherence.ctrl_wait_cycles", "cycles", stat("coherence/ctrl_wait_cycles")},

	{"directory.self_s", "s", self("directory")},
	{"directory.accesses", "count", stat("directory/accesses")},
	{"directory.cache_hit_ratio", "ratio", statRatio([]string{"directory/cache_hits"}, []string{"directory/accesses"})},
	{"directory.access_ns", "ns", microNs("directory.access")},
	{"directory.access_allocs", "count", microAllocs("directory.access")},

	{"pit.self_s", "s", self("pit")},
	{"pit.lookups", "count", stat("pit/lookups")},
	{"pit.guess_hit_ratio", "ratio", statRatio([]string{"pit/reverse_guess"}, []string{"pit/reverse_guess", "pit/reverse_hash"})},
	{"pit.lookup_ns", "ns", microNs("pit.lookup")},
	{"pit.lookup_allocs", "count", microAllocs("pit.lookup")},
	{"pit.reverse_hash_ns", "ns", microNs("pit.reverse_hash")},
	{"pit.reverse_hash_allocs", "count", microAllocs("pit.reverse_hash")},

	{"kernel.self_s", "s", self("kernel")},
	{"kernel.faults", "count", stat("kernel/faults")},
	{"kernel.page_outs", "count", stat("kernel/client_page_outs", "kernel/home_page_outs")},
	{"kernel.conversions", "count", stat("kernel/conversions")},
	{"kernel.tlb_hit_ratio", "ratio", statRatio([]string{"tlb/hits"}, []string{"tlb/hits", "tlb/misses"})},
	{"kernel.pte_hit_ns", "ns", microNs("kernel.pte_hit")},
	{"kernel.pte_hit_allocs", "count", microAllocs("kernel.pte_hit")},

	{"network.self_s", "s", self("network")},
	{"network.messages", "count", stat("network/messages")},
	{"network.bytes", "bytes", stat("network/bytes")},
	{"network.ni_wait_cycles", "cycles", stat("network/ni_send_wait_cycles", "network/ni_recv_wait_cycles")},
	{"network.send_ns", "ns", microNs("network.send")},
	{"network.send_allocs", "count", microAllocs("network.send")},
	{"fault.retransmits", "count", func(in *layerInputs) float64 { return in.stats.sumMatching("fault", "", "_retransmits") }},

	{"mem.self_s", "s", self("mem")},
	{"workloads.self_s", "s", self("workloads")},
	{"core.self_s", "s", self("core")},

	{"harness.pass_s", "s", func(in *layerInputs) float64 { return in.spans["harness.Run"] / 1e3 }},
	{"harness.verify_ms", "ms", spanMedian("verify")},
	{"harness.self_s", "s", self("harness")},

	{"server.submit_ms", "ms", spanMedian("client.Submit")},
	{"server.queue_wait_ms", "ms", plainQuantile("server.queue_wait", 0.5)},
	{"server.run_ms", "ms", plainQuantile("server.run", 0.5)},
	{"server.fetch_ms", "ms", spanMedian("client.ResultCSV")},
	{"server.job_p90_ms", "ms", plainQuantile("job", 0.9)},
	{"server.hit_p50_ms", "ms", plainQuantile("hit", 0.5)},
	{"server.hit_p90_ms", "ms", plainQuantile("hit", 0.9)},
	{"server.hits_per_s", "1/s", func(in *layerInputs) float64 {
		var secs float64
		for _, d := range in.plain.lat("hit_phase") {
			secs += d / 1e3
		}
		return ratio(in.plain.count("server.hits"), secs)
	}},
	{"server.cache_hit_ratio", "ratio", func(in *layerInputs) float64 {
		h := in.plain.count("server.cache_hits")
		return ratio(h, h+in.plain.count("server.cache_misses"))
	}},
	{"server.self_s", "s", self("server")},

	{"snapshot.decode_ms", "ms", spanMedian("testcase.Read")},
	{"snapshot.encode_ms", "ms", spanMedian("testcase.Write")},
	{"snapshot.bytes", "bytes", func(in *layerInputs) float64 { return in.plain.count("snapshot.bytes") / float64(len(in.plain.passes)) }},
	{"snapshot.restore_ms", "ms", spanMedian("RestoreSnapshot")},
	{"snapshot.resume_ms", "ms", spanMedian("Resume")},
	{"snapshot.restore_p50_ms", "ms", plainQuantile("restore", 0.5)},
	{"snapshot.self_s", "s", self("snapshot")},

	{"metrics.export_ms", "ms", spanMedian("ExportMetrics")},
	{"metrics.self_s", "s", self("metrics")},

	{"runtime.map_self_s", "s", self("runtime.map")},
	{"runtime.sched_self_s", "s", self("runtime.sched")},
	{"runtime.gc_self_s", "s", self("runtime.gc")},
	{"runtime.alloc_self_s", "s", self("runtime.alloc")},
	{"runtime.gc_cpu_s", "s", perPlainPass(func(d runtimeDelta) float64 { return d.gcCPUs })},
	{"runtime.alloc_mb", "MB", perPlainPass(func(d runtimeDelta) float64 { return d.allocMB })},
	{"runtime.alloc_objects", "count", perPlainPass(func(d runtimeDelta) float64 { return d.allocObjects })},
	{"runtime.sys_s", "s", perPlainPass(func(d runtimeDelta) float64 { return d.sysS })},
	{"runtime.sched_latency_p90_us", "us", func(in *layerInputs) float64 { return in.plain.rt.schedP90us }},
	{"bench.pass_s", "s", func(in *layerInputs) float64 { return median(in.plain.walls) }},
	{"wall.op_p50_ms", "ms", func(in *layerInputs) float64 { return median(in.plain.opLatencies()) }},
	{"wall.sim_refs_per_s", "1/s", func(in *layerInputs) float64 { return in.plain.refsPerSecond() }},
	{"bench.self_s", "s", self("bench")},
	{"other.self_s", "s", self("other")},
	{"trace.profiled_s", "s", func(in *layerInputs) float64 { return in.profiled }},
	{"trace.overhead_pct", "%", func(in *layerInputs) float64 {
		return 100 * (median(in.traced.walls)/median(in.plain.walls) - 1)
	}},
	{"stats.digest", "hash", func(in *layerInputs) float64 { return in.stats.hash() }},
}

func layerMetrics(in layerInputs) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, m := range perLayer {
		out = append(out, metric{m.name, m.value(&in), m.unit})
	}
	return out
}

func self(layer string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return in.self[layer] }
}

func microNs(name string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return in.micro[name].nsPerOp }
}

func microAllocs(name string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return in.micro[name].allocsPerOp }
}

func stat(keys ...string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return in.stats.sum(keys...) }
}

func statRatio(num, den []string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return ratio(in.stats.sum(num...), in.stats.sum(den...)) }
}

func spanMedian(name string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return in.spans[name] }
}

func plainQuantile(name string, q float64) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return quantile(in.plain.lat(name), q) }
}

func perPlainPass(f func(runtimeDelta) float64) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 { return f(in.plain.rt) / float64(len(in.plain.passes)) }
}
