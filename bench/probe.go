//go:build linux

package main

import (
	"math"
	"strconv"
	"sync/atomic"
)

// The host speed probe.
//
// The reference host is a small VM on hardware shared with other tenants,
// and the speed of its cores is not its own: the time a fixed, cache-warm
// piece of arithmetic takes sits at one of two levels 1.7× apart (650 and
// 1130 ns for the kernel below — the ratio of the processor's turbo to its
// base clock) and moves between them every few seconds to minutes. Ten runs
// of the same code and seed then spread 10–28% on every metric that is a
// time, far beyond any bound a later change could be held to. So the
// harness runs that fixed piece of work — the probe kernel — every few
// dozen updates on the goroutines of the fleet itself, on the same CPU at
// the same moments, and keeps its running time. Over each slice of the
// window the median probe time says how fast the core was, and the slice's
// throughput and CPU cost are scaled to what they would have been at the
// nominal probe time. Raw numbers and the speed index are printed beside
// the scaled ones.
//
// A workload does not slow down as much as the probe does: the probe is all
// core, the workload also waits for memory, and memory latency does not
// follow the core clock (a pointer chase through 64 MB read the same at
// both levels). Each workload therefore carries its coreShare, the exponent
// that relates its cost to the probe's — the slope of log(CPU per update)
// against log(probe time) over the slices of a few dozen runs that crossed
// both levels (README.md, "One CPU and the speed probe").
//
// The kernel must not be code a later change can make faster — a gain
// would cancel itself — so it uses nothing of condmon/internal: it formats
// two numbers with strconv and hashes the bytes. It is run once untimed
// before every sample, so the sample does not depend on what the fleet left
// in the caches, and it allocates nothing, so allocs_per_update does not
// see it.

// probeNominalNs is the probe sample time the scaled metrics refer to: the
// geometric mean of the two levels the reference host sits at, so that
// either level is scaled over the shorter distance.
const probeNominalNs = 850

const (
	probeBucketNs = 4    // histogram resolution
	probeBuckets  = 2048 // covers samples up to 8 µs; slower ones are preemptions and land in the last bucket
	probeRounds   = 4    // timed kernel rounds per sample
)

// speedProbe is the histogram every prober records into. Counters only
// grow; a slice of the window is the difference of two snapshots.
type speedProbe struct {
	hist [probeBuckets]atomic.Uint32
}

var hostSpeed speedProbe

type probeSnap [probeBuckets]uint32

func (sp *speedProbe) snapshot() *probeSnap {
	var s probeSnap
	for i := range sp.hist {
		s[i] = sp.hist[i].Load()
	}
	return &s
}

// medianNs is the median probe sample recorded between two snapshots, and
// how many there were.
func (from *probeSnap) medianNs(to *probeSnap) (ns float64, n int) {
	for i := range to {
		n += int(to[i] - from[i])
	}
	seen := 0
	for i := range to {
		seen += int(to[i] - from[i])
		if seen > 0 && 2*seen >= n {
			return (float64(i) + 0.5) * probeBucketNs, n
		}
	}
	return 0, 0
}

// hostScale is the factor a time measured while the probe read probeNs is
// multiplied by to give the time at the nominal host speed, for work whose
// cost follows the core's speed with exponent coreShare.
func hostScale(probeNs, coreShare float64) float64 {
	return math.Pow(probeNominalNs/probeNs, coreShare)
}

// prober is one goroutine's handle on the probe: its call counter and the
// kernel's state.
type prober struct {
	n   int
	x   uint64
	buf [64]byte
}

// tick takes a probe sample on every every-th call.
func (p *prober) tick(every int) {
	if p.n++; p.n%every == 0 {
		p.sample()
	}
}

func (p *prober) sample() {
	p.kernel()
	t0 := now()
	for r := 0; r < probeRounds; r++ {
		p.kernel()
	}
	b := (now() - t0) / probeBucketNs
	if b >= probeBuckets {
		b = probeBuckets - 1
	}
	hostSpeed.hist[b].Add(1)
}

func (p *prober) kernel() {
	x := p.x | 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	b := strconv.AppendFloat(p.buf[:0], float64(x>>40)/8, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendUint(b, x&0xffffff, 10)
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	p.x = x + h
}

// probeBurst takes n samples back to back on the calling goroutine and
// returns their median: the speed of the host around a piece of work that
// has no loop to put a prober in, such as one build of the fleet.
func probeBurst(n int) float64 {
	from := hostSpeed.snapshot()
	var p prober
	for i := 0; i < n; i++ {
		p.sample()
	}
	ns, _ := from.medianNs(hostSpeed.snapshot())
	return ns
}
