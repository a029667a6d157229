//go:build linux

package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. An empty input yields 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (mean of the two middle values for an
// even count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs; 0 for an empty input.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" rule as Python's statistics.quantiles(xs, n=4),
// which is what the acceptance procedure uses for spreads. Fewer than two
// values yield the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// interquartileMean is the mean of the middle half of xs: the values left
// after a quarter of them (rounded down) is cut from either end. 0 for an
// empty input.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// latLog collects the alert latencies of the latency window, each with
// the time its display ended. One goroutine adds (the AD glue loop, or the
// engine's pump); the measurement loop opens and shuts the window and reads
// the samples once the adder has been waited for.
type latLog struct {
	start   atomic.Int64 // window start on the benchmark clock; 0 = shut
	opened  int64        // the last window's start and end, kept after it is shut
	shut    int64
	ends    []int64 // when each sample's display ended
	samples []int64 // latencies in arrival order, ns
}

func (l *latLog) open()        { l.opened = now(); l.start.Store(l.opened) }
func (l *latLog) close()       { l.start.Store(0); l.shut = now() }
func (l *latLog) isOpen() bool { return l.start.Load() != 0 }

// add records a display that ended at end with the given latency, if the
// window is open.
func (l *latLog) add(end, latency int64) {
	if start := l.start.Load(); start == 0 || end < start {
		return
	}
	l.ends = append(l.ends, end)
	l.samples = append(l.samples, latency)
}

// stallRecoveryNs is how long after a host stall has ended, beyond the
// stall's own length again, the latency window stays void: the mux
// sender's 2 ms flush deadline and the alerts already on their way.
const stallRecoveryNs = int64(5 * time.Millisecond)

// void is the stretch of the latency window a host stall spoils: the stall
// itself, as long again — the fleet works off what the publisher sends to
// catch up with its schedule, at a load that leaves most of the CPU idle —
// and the recovery allowance.
func (s stall) void() (from, to int64) {
	return s.from, s.to + (s.to - s.from) + stallRecoveryNs
}

// pooled returns, sorted, every latency whose display did not end inside a
// stall's void stretch — the window the percentiles are read from — and how
// much of the window [from, to] the stalls voided.
func (l *latLog) pooled(stalls []stall) (pool []int64, voidNs int64) {
	pool = make([]int64, 0, len(l.samples))
next:
	for i, end := range l.ends {
		for _, s := range stalls {
			if from, to := s.void(); end >= from && end <= to {
				continue next
			}
		}
		pool = append(pool, l.samples[i])
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	covered := l.opened // stalls are in time order; count overlaps once
	for _, s := range stalls {
		from, to := s.void()
		if from < covered {
			from = covered
		}
		if to > l.shut {
			to = l.shut
		}
		if to > from {
			voidNs += to - from
			covered = to
		}
	}
	return pool, voidNs
}
