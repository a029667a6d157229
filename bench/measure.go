//go:build linux

package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// runConfig is one measured run of one workload.
type runConfig struct {
	sp     *spec
	seed   int64
	warmup time.Duration
	window time.Duration
	setups int    // the fleet is built this many times; setup_s is the median
	traced bool   // record spans and attach an obs.Registry
	neg    string // negative control: "", "dedup" or "drop"
	smoke  bool   // short windows: the open-loop validity guards do not void the run
	outDir string // traced run: where the span file goes
}

// ingest-flood and the storms split their window. They start under an open
// loop at the workload's latencyRate — the warm-up, then three eighths of
// the window in which alert latency and allocations are measured — and go
// on under the closed loop, where throughput and CPU cost are measured with
// the pipeline saturated, after a ramp that is not sampled. Latency under the
// closed loop is what Little's law makes of the in-flight windows — a second
// reading of the throughput, and on ingest-flood of the 2 ms mux flush
// timer; latency at a rate the fleet carries easily is what its user sees.
// The latency phase comes first because the filters' state grows with every
// displayed alert (and with it durable-storm's checkpoints): at a fixed
// rate for a fixed time it grows the same on every run, so the latency is
// measured on the same state whatever the host's speed. fleet-steady is
// open loop throughout, engine-fanout closed loop throughout (workload.go
// says why), and both measure everything over the whole window.
func (cfg runConfig) phases() (latency, ramp, saturated time.Duration) {
	if cfg.sp.onePhase() {
		return cfg.window, 0, cfg.window
	}
	latency = cfg.window * 3 / 8
	ramp = cfg.window / 32
	return latency, ramp, cfg.window - latency - ramp
}

// outcome is the oracle's tally: operations attempted and failed, with a
// line per kind of failure.
type outcome struct {
	attempted int64
	failed    int64
	notes     []string
}

// check counts n attempted operations of which bad failed.
func (o *outcome) check(n, bad int64, what string) {
	o.attempted += n
	if bad > 0 {
		o.failed += bad
		o.notes = append(o.notes, fmt.Sprintf("%d of %d %s", bad, n, what))
	}
}

// result is what one run measured.
type result struct {
	cfg      runConfig
	setup    []float64 // seconds at nominal host speed, one per build
	setupRaw []float64 // seconds as the clock read them
	windowNs int64     // length of the slices' phase
	updates  int64     // updates published in it
	achieved float64   // publish rate over it (open loop: must match the schedule)
	slices   []slice
	latAll   []int64 // alert latencies of the latency phase, sorted, ns
	latPool  []int64 // those not displayed inside a host stall's void stretch: what the percentiles are read from
	latNs    int64   // length of the latency phase
	voidNs   int64   // how much of it host stalls voided
	stalls   int     // host stalls inside it
	latProbe float64 // median probe sample over the latency phase, ns; 0 = too few samples
	allocs   float64 // mallocs per published update
	outcome
	void  []string           // validity guards that tripped
	layer map[string]float64 // traced run: per-layer metrics
	spans string             // traced run: span file
}

// reading is what the window's sampler reads, every half second.
type reading struct {
	at        int64         // benchmark clock
	cpu       time.Duration // process user+sys CPU so far
	sent      int64         // updates published so far
	processed int64         // updates fully processed so far
	probe     *probeSnap
}

// slice is the stretch between two readings: what the fleet did in it and
// how fast the host was.
type slice struct {
	rate    float64 // updates fully processed per second
	cpuUs   float64 // process CPU per published update, µs
	probeNs float64 // median probe sample
}

// speed is the slice's host speed index: above 1 the host ran the probe
// faster than nominal.
func (s slice) speed() float64 { return probeNominalNs / s.probeNs }

// scale is the factor that takes the slice's times to the nominal host
// speed for a workload of the given coreShare.
func (s slice) scale(coreShare float64) float64 { return hostScale(s.probeNs, coreShare) }

// minProbeSamples is the fewest probe samples a slice is scaled by; a
// slice with fewer (the fleet stood still) is left out.
const minProbeSamples = 20

// slicesOf turns successive readings into slices, each over its real
// length, so a late sampler wake-up does not inflate its slice.
func slicesOf(rs []reading) []slice {
	var out []slice
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		probeNs, n := a.probe.medianNs(b.probe)
		if b.at <= a.at || b.sent == a.sent || n < minProbeSamples {
			continue
		}
		out = append(out, slice{
			rate:    float64(b.processed-a.processed) / (float64(b.at-a.at) / 1e9),
			cpuUs:   float64((b.cpu - a.cpu).Nanoseconds()) / 1e3 / float64(b.sent-a.sent),
			probeNs: probeNs,
		})
	}
	return out
}

// Throughput and CPU cost are scaled, slice by slice, to the nominal host
// speed (probe.go) and summed up as the interquartile mean over the slices:
// a host that deschedules the VM for a tenth of a second spoils one or two
// slices of a run, and those fall outside the quartiles; and a workload
// whose cost drifts through the run — the storms' filter state grows, and
// durable-storm's checkpoints with it — has its middle averaged rather than
// one slice picked out of the drift (over eight runs of durable-storm the
// median of the slices spread 11%, their interquartile mean 1.5%).

func summaryOf(slices []slice, f func(slice) float64) float64 {
	xs := make([]float64, len(slices))
	for i, s := range slices {
		xs[i] = f(s)
	}
	return interquartileMean(xs)
}

// rate is updates fully processed per second. On the open loop it is the
// schedule's rate as achieved, which no host speed changes.
func (r *result) rate() float64 {
	if r.cfg.sp.open() {
		return r.rawRate()
	}
	e := r.cfg.sp.coreShare
	return summaryOf(r.slices, func(s slice) float64 { return s.rate / s.scale(e) })
}

// cpuUs is process CPU per published update at nominal host speed, µs.
func (r *result) cpuUs() float64 {
	e := r.cfg.sp.coreShare
	return summaryOf(r.slices, func(s slice) float64 { return s.cpuUs * s.scale(e) })
}

func (r *result) rawRate() float64 {
	return summaryOf(r.slices, func(s slice) float64 { return s.rate })
}
func (r *result) rawCPUUs() float64 {
	return summaryOf(r.slices, func(s slice) float64 { return s.cpuUs })
}
func (r *result) speed() float64 { return summaryOf(r.slices, slice.speed) }

// latencyMs is the q-th alert latency percentile of the latency window —
// all of it pooled, but for the stretches a host stall voided — as the
// clock read it, and scaled to the nominal host speed by the workload's
// latencyShare.
func (r *result) latencyMs(q float64) (raw, scaled float64) {
	raw = float64(percentile(r.latPool, q)) / 1e6
	if r.latProbe == 0 {
		return raw, raw
	}
	return raw, raw * hostScale(r.latProbe, r.cfg.sp.latencyShare)
}

func (r *result) endToEnd() map[string]float64 {
	_, p50 := r.latencyMs(0.50)
	_, p99 := r.latencyMs(0.99)
	return map[string]float64{
		"setup_s":              median(r.setup),
		"updates_per_s":        r.rate(),
		"alert_latency_p50_ms": p50,
		"alert_latency_p99_ms": p99,
		"cpu_us_per_update":    r.cpuUs(),
		"allocs_per_update":    r.allocs,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeReading(g *generator, sys system) reading {
	return reading{at: now(), cpu: cpuTime(), sent: g.sent.Load(), processed: sys.processed(), probe: hostSpeed.snapshot()}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// procSample follows the heap through a traced run, one reading a slice.
type procSample struct {
	heapPeak   uint64
	goroutines int
}

func build(sp *spec, in *inputs, st *stamps, tr *tracer, neg string) (system, error) {
	if sp.engine {
		return buildEngine(sp, in, st, tr)
	}
	return buildFleet(sp, in, st, tr, neg)
}

// setupProbeSamples is the length of the probe bursts on either side of a
// build of the fleet, about a millisecond each.
const setupProbeSamples = 1000

// setupCoreShare is the coreShare of building the fleet.
const setupCoreShare = 1.0

// runOnce builds the fleet, drives it through warm-up and the timed window,
// tears it down, checks its outputs and returns what it measured.
func runOnce(cfg runConfig) (*result, error) {
	sp := cfg.sp
	res := &result{cfg: cfg}
	baseline := runtime.NumGoroutine()
	var tr *tracer
	if cfg.traced {
		var err error
		if tr, err = newTracer(sp.sampleEvery); err != nil {
			return nil, err
		}
		defer tr.release()
	}

	// Set-up: generate inputs, listen, dial, parse or register conditions,
	// open the WAL. Built several times so setup_s is a median, each build
	// between two probe bursts that say how fast the host was around it.
	// The value tables and the stamps are allocated once and filled on
	// every build, and the collector runs before each: a build that had to
	// fault in 8 MB of fresh pages took 14 ms where one that was handed a
	// freed span took 8, and which of the two a run got was a matter of
	// where its heap stood.
	var sys system
	in, st := newInputs(sp), newStamps(sp)
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("%s: tear down after set-up: %w", sp.name, err)
			}
		}
		runtime.GC()
		before := probeBurst(setupProbeSamples)
		t0 := time.Now()
		in.generate(sp, cfg.seed)
		var err error
		if sys, err = build(sp, in, st, tr, cfg.neg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		took := time.Since(t0).Seconds()
		probeNs := (before + probeBurst(setupProbeSamples)) / 2
		res.setupRaw = append(res.setupRaw, took)
		res.setup = append(res.setup, took*hostScale(probeNs, setupCoreShare))
	}
	defer sys.release()
	runtime.GC()

	gen := newGenerator(sp, in, st, tr, sys)
	if !sp.open() && sp.onePhase() {
		gen.mode.Store(genClosed)
	}
	sys.start()
	gen.start()
	time.Sleep(cfg.warmup)

	// The timed window. The main goroutine is the sampler: every half second
	// (four times over a phase shorter than 2 s) it reads the clock, the
	// process CPU time, the published and processed counters and the probe's
	// histogram and, traced, the heap.
	//
	// Allocations are counted over the latency phase: a fixed rate for a
	// fixed time is a fixed amount of work from a fixed state, so the count
	// repeats, where the saturated phase gets the further into the filters'
	// growing state — and durable-storm's growing checkpoints — the faster
	// the host is.
	latency, ramp, saturated := cfg.phases()
	latencyFrom, mallocsFrom, sentFrom := hostSpeed.snapshot(), mallocs(), gen.sent.Load()
	sys.latencies().open()
	endLatencyPhase := func() {
		sys.latencies().close()
		res.latProbe = probeMedian(latencyFrom)
		if sent := gen.sent.Load() - sentFrom; sent > 0 {
			res.allocs = float64(mallocs()-mallocsFrom) / float64(sent)
		}
	}
	if !sp.onePhase() {
		time.Sleep(latency)
		endLatencyPhase()
		gen.mode.Store(genClosed)
		time.Sleep(ramp)
	}
	step := 500 * time.Millisecond
	if saturated < 4*step {
		step = saturated / 4
	}
	var proc procSample
	readings := []reading{takeReading(gen, sys)}
	start := readings[0].at
	for next := start + int64(step); next <= start+int64(saturated); next += int64(step) {
		time.Sleep(time.Duration(next - now()))
		readings = append(readings, takeReading(gen, sys))
		if cfg.traced {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > proc.heapPeak {
				proc.heapPeak = ms.HeapAlloc
			}
			if n := runtime.NumGoroutine(); n > proc.goroutines {
				proc.goroutines = n
			}
		}
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if sp.onePhase() {
		endLatencyPhase()
	}

	genErr := gen.halt()
	sys.quiesce(gen.sent.Load())
	closeErr := sys.close()

	first, last := readings[0], readings[len(readings)-1]
	res.slices = slicesOf(readings)
	res.windowNs = last.at - first.at
	res.updates = last.sent - first.sent
	res.achieved = float64(res.updates) / (float64(res.windowNs) / 1e9)
	lat := sys.latencies()
	res.latAll = sortedCopy(lat.samples)
	res.latPool, res.voidNs = lat.pooled(gen.stalls)
	res.latNs = lat.shut - lat.opened
	for _, st := range gen.stalls {
		if from, to := st.void(); to >= lat.opened && from <= lat.shut {
			res.stalls++
		}
	}

	// Run-validity guards and the oracle.
	res.check(1, boolCount(genErr != nil), fmt.Sprintf("publisher runs (%v)", genErr))
	res.check(1, boolCount(closeErr != nil), fmt.Sprintf("fleet shutdowns (%v)", closeErr))
	res.check(1, boolCount(!goroutinesBack(baseline)), "goroutine counts back at their baseline")
	sys.verify(gen.sentPerVar(), &res.outcome)
	if sp.open() && !cfg.smoke {
		if late := float64(percentile(sortedCopy(gen.late), 0.99)) / 1e3; late > 1000 {
			res.void = append(res.void, fmt.Sprintf("generator lateness p99 %.0f us > 1000 us", late))
		}
		if dev := res.achieved/float64(sp.rate) - 1; dev > 0.005 || dev < -0.005 {
			res.void = append(res.void, fmt.Sprintf("achieved rate %.1f/s not within 0.5%% of %d/s", res.achieved, sp.rate))
		}
	}
	if len(res.latPool) == 0 {
		res.void = append(res.void, "no alert was displayed inside the latency window")
	}
	if 4*res.voidNs > res.latNs {
		res.void = append(res.void, fmt.Sprintf("host stalls voided %.2f s of the latency window's %.2f s", float64(res.voidNs)/1e9, float64(res.latNs)/1e9))
	}
	if len(res.slices) == 0 {
		res.void = append(res.void, "no slice of the window had probe samples to scale it by")
	}

	if cfg.traced {
		res.layer = map[string]float64{}
		if err := layerMetrics(res, sys, gen, tr, proc, ms0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeMedian is the median probe sample since from, or 0 when there were
// too few to go by.
func probeMedian(from *probeSnap) float64 {
	ns, n := from.medianNs(hostSpeed.snapshot())
	if n < minProbeSamples {
		return 0
	}
	return ns
}

func boolCount(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// goroutinesBack waits up to two seconds for the goroutine count to return
// to what it was before the run: every goroutine the harness or the fleet
// started must have ended before the next workload begins.
func goroutinesBack(baseline int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
