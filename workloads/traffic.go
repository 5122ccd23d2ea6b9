package workloads

import (
	"math"
	"math/rand"
	"sort"

	"prism"
)

// This file holds the shared machinery of the traffic-shaped workloads
// (kv, pubsub, zipf): a deterministic Zipfian sampler and the small
// hashing helpers their host algorithms use.
//
// Like the SPLASH kernels, the traffic workloads are execution-driven:
// the real algorithm runs on host memory while one simulated reference
// is issued per touched cache line (dense scans use ReadRange/
// WriteRange plus Compute). Their shared state obeys the gate-ordering
// contract of DESIGN.md §8 in its strictest form — barrier-separated
// single-writer phases, no locks — so all three replay from
// checkpoints.

// zipfTable samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s via
// an inverse-CDF table. It deliberately avoids math/rand.Zipf: the
// table plus one Float64 per sample depends only on our own arithmetic,
// so committed goldens cannot drift with the Go runtime.
type zipfTable struct {
	cdf []float64
}

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfTable{cdf: cdf}
}

// sample draws one rank from r's stream.
func (z *zipfTable) sample(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i == len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// mix64 is splitmix64's finalizer — the traffic workloads' hash for
// deterministic per-(key,round) decisions and payload values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u64a returns the address of 8-byte word i of an array at base.
func u64a(base prism.VAddr, i int) prism.VAddr {
	return base + prism.VAddr(i*8)
}

// procsOf returns the machine's total processor count (Setup-time; the
// run context carries it as ctx.N).
func procsOf(m *prism.Machine) int {
	return m.Cfg.Nodes * m.Cfg.Node.Procs
}
