//go:build linux

package main

import (
	"fmt"
	"math/rand"

	"condmon/internal/event"
)

// spec describes one workload: the traffic shape, the condition and filter
// the fleet runs, and which optional layers are switched in. The six specs
// below are the benchmark's whole input space; BENCHMARK.json and README.md
// say why each exists and which layer it loads.
type spec struct {
	name string

	// rate > 0 makes the workload open loop: rate updates per second in
	// 1 ms ticks, every update of a tick due at the tick's start. rate == 0
	// is closed loop under the two in-flight windows below, after a latency
	// phase that is open loop at latencyRate: a rate the fleet carries with
	// most of the CPU idle, so the alerts of that phase wait for the
	// layers, not in a queue. latencyRate == 0 too is closed loop from
	// start to end.
	rate        int
	latencyRate int
	// updateWindow and alertWindow bound what a closed-loop publisher may
	// have in flight: updates not yet taken by the slowest replica, and
	// alerts sent by the CEs but not yet offered at the AD.
	updateWindow int64
	alertWindow  int64

	vars        []event.VarName
	cond        string // DSL source of the fleet condition (fleet workloads)
	algo        string // AD algorithm name
	perDatagram int    // updates per datagram: 1 uses Publish, more PublishBatch
	lossP       float64
	audited     bool
	durable     bool
	engine      bool
	sampleEvery int64 // traced run: record spans for 1 in sampleEvery ids

	// coreShare is the exponent that relates the workload's CPU cost to the
	// host speed probe's time (probe.go): 1 for work that is all core, less
	// the more of its time the workload spends waiting for memory.
	coreShare float64
	// latencyShare is the same exponent for the workload's alert latency
	// against the probe's time over the latency phase. It is 0 where a
	// timer sets the latency — the mux sender's 2 ms flush deadline, which
	// no host speed moves — and 1 for engine-fanout, whose alerts cross no
	// timer: their latency is the time one CPU takes to work off the queue
	// ahead of a datagram, and moves with the host as the throughput does.
	latencyShare float64

	tableLen int // values per variable before the table repeats
	fill     func(r *rand.Rand, vals [][]float64)
}

// Closed-loop windows. 512 updates is what the channel-mode receiver's
// 1024-slot buffer absorbs without overrun. 4096 alerts keeps the AD
// backlog from growing for the whole run yet lets each replica's mux
// sender reach its 32 KB flush threshold (≈ 585 storm alerts); with 1024
// in flight both senders stay below it, every flush waits out the 2 ms
// deadline and the run measures that timer, not the layers (README.md,
// "Loop rules").
const (
	closedUpdateWindow = 512
	closedAlertWindow  = 4096
	engineUpdateWindow = 2048
)

const (
	engineThresholds = 10000
	engineStragglers = 1000
	engineVars       = 16
)

var specs = []*spec{
	{
		name: "fleet-steady", coreShare: 0.7,
		rate: 20000, updateWindow: closedUpdateWindow, alertWindow: closedAlertWindow,
		vars: []event.VarName{"x", "y"},
		cond: "x[0] > 3000 && y[0] - y[-1] > 50", algo: "AD-6",
		perDatagram: 1, sampleEvery: 1,
		tableLen: 1 << 20, fill: fillSteady,
	},
	{
		name: "ingest-flood", coreShare: 0.85,
		updateWindow: closedUpdateWindow, alertWindow: closedAlertWindow,
		latencyRate: 20000,
		vars:        []event.VarName{"x"}, cond: "x[0] > 3000", algo: "AD-1",
		perDatagram: 1, sampleEvery: 64,
		tableLen: 1000 * 1000, fill: fillFlood,
	},
	stormSpec("alert-storm", 0.8),
	stormSpec("audited-storm", 0.7),
	stormSpec("durable-storm", 0),
	{
		// No latency phase: the engine's alerts cross no timer, so at a rate
		// that leaves the CPU idle their latency is a few hundred
		// microseconds of the host's scheduling with a long, thin tail, and
		// ten runs spread 5–7% on its median and 9–26% on its 99th
		// percentile at any rate tried (one to four datagrams a
		// millisecond; at three and four a backlog now and then took the
		// tail to tens of milliseconds). Its latency is measured under the
		// closed loop instead, over the whole window: what a user of the
		// engine sees under backpressure, the queue ahead of an update
		// included (1.5% and 6%).
		name: "engine-fanout", coreShare: 1, latencyShare: 1,
		updateWindow: engineUpdateWindow,
		vars:         engineVarNames(), algo: "AD-1",
		perDatagram: 32, sampleEvery: 64, engine: true,
		tableLen: 100 * 650, fill: fillFanout,
	},
}

// stormSpec is alert-storm and its two one-switch-apart variants.
//
// coreShare is as fitted: allocation-heavy work, more of it still with the
// auditor's bookkeeping, and for durable-storm none at all — its time goes
// into writing out checkpoints of the whole filter state (with the WAL on a
// tmpfs, so every sync free, it ran no faster), and CPU per update read the
// same at both of the host's speeds.
//
// latencyRate is a datagram every fourth millisecond: half of what
// durable-storm's checkpoints let it carry, a twentieth of what the other
// two do. At a datagram a millisecond the collector, sharing the one P, ran
// often enough to delay about one alert in a hundred by 2–3 ms: alert-storm's
// 99th percentile sat just under that tail (3.4 ms) and audited-storm's just
// inside it (4.8–6.3 ms), and either crossed the edge from run to run (ten
// runs spread 2% or 14%). At this rate both read the mux sender's flush
// deadline (2.8–2.9 ms, 1–3%) and the collector's tail is left to
// display.latency_p999_ms. durable-storm's reads its checkpoints at any rate:
// Accept compacts in line, every 256th time, and the rest of the datagram's
// alerts wait behind it — more than one alert in a hundred. The checkpoint
// writes the whole filter state, which grows through the phase, so the 99th
// percentile is the length of the last few (26–33 ms).
func stormSpec(name string, coreShare float64) *spec {
	return &spec{
		name: name, coreShare: coreShare,
		updateWindow: closedUpdateWindow, alertWindow: closedAlertWindow,
		latencyRate: 8000,
		vars:        []event.VarName{"x"}, cond: "x[0] - x[-1] > 1000", algo: "AD-4",
		perDatagram: 32, lossP: 0.2, sampleEvery: 64,
		audited: name == "audited-storm", durable: name == "durable-storm",
		tableLen: 1 << 20, fill: fillStorm,
	}
}

func engineVarNames() []event.VarName {
	out := make([]event.VarName, engineVars)
	for i := range out {
		out[i] = event.VarName(fmt.Sprintf("v%02d", i))
	}
	return out
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (sp *spec) open() bool { return sp.rate > 0 }

// onePhase reports whether the workload runs one loop from start to end
// and measures everything over the whole window.
func (sp *spec) onePhase() bool { return sp.open() || sp.latencyRate == 0 }

// openRate is the rate of the workload's open-loop mode: its only one, or
// that of a closed-loop workload's latency phase.
func (sp *spec) openRate() int {
	if sp.open() {
		return sp.rate
	}
	return sp.latencyRate
}

// inputs is everything the program under test receives: one value table
// per variable, generated from the seed in set-up. Update seqno s of
// variable v carries vals[v][(s-1) mod tableLen]; sequence numbers start at
// 1 as every DM numbers them.
type inputs struct {
	vals [][]float64
}

func newInputs(sp *spec) *inputs {
	in := &inputs{vals: make([][]float64, len(sp.vars))}
	for i := range in.vals {
		in.vals[i] = make([]float64, sp.tableLen)
	}
	return in
}

// generate fills the tables from the seed: the same seed gives the same
// inputs.
func (in *inputs) generate(sp *spec, seed int64) {
	sp.fill(rand.New(rand.NewSource(seed)), in.vals)
}

func (in *inputs) value(v int, seq int64) float64 {
	t := in.vals[v]
	return t[int((seq-1)%int64(len(t)))]
}

// steadyBlock is the stride of fleet-steady's firing pattern: one pair
// (x_i, y_i) in every block of 24 pairs fires, i.e. 1 update in 48 (2.1%),
// an alert every 2.4 ticks. Sparse on purpose: most alerts then open a mux
// buffer of their own and wait out the whole 2 ms flush deadline, which
// puts the median latency inside that group. At twice the density the
// median sat on the edge between "waited the whole deadline" and "rode
// along with the buffer's first alert" and flipped between 1.5 and 2.1 ms
// from run to run.
const steadyBlock = 24

// fillSteady draws fleet-steady's two streams. The publisher interleaves
// them x_1 y_1 x_2 y_2 …, and the condition is evaluated at every arrival.
// The firing positions are stratified — exactly one per block of 24 pairs,
// at a seeded offset — so every seed offers the same alert load and the
// run-to-run spread measures the system, not the draw: at a firing pair i,
// x_i > 3000 and y_i jumps by more than 50 over y_(i-1). Elsewhere y moves
// by less than 40 and x is above 3000 half the time (never right after a
// firing pair, where the jump is still in y's window), so both halves of
// the conjunction do work without adding firings.
func fillSteady(r *rand.Rand, vals [][]float64) {
	x, y := vals[0], vals[1]
	for i := range x {
		y[i] = 40 * r.Float64()
		x[i] = 2000 + 1000*r.Float64()
		if r.Intn(2) == 0 {
			x[i] += 1000.5
		}
	}
	for b := 0; b+steadyBlock <= len(x); b += steadyBlock {
		i := b + 1 + r.Intn(steadyBlock-2) // never first or last of a block
		x[i] = 3000.5 + 1000*r.Float64()
		y[i] = 100 + 40*r.Float64()
		x[i+1] = 2000 + 1000*r.Float64()
	}
}

// fillFlood draws ingest-flood's stream: values under the 3000 limit with
// exactly one spike over it in every block of 1000, at a seeded offset.
func fillFlood(r *rand.Rand, vals [][]float64) {
	x := vals[0]
	for i := range x {
		x[i] = 2000 + 1000*r.Float64()
	}
	for b := 0; b+1000 <= len(x); b += 1000 {
		x[b+r.Intn(1000)] = 3000.5 + 1000*r.Float64()
	}
}

// fillStorm draws the storms' stream: independent uniform values on
// [0, 19487), for which x[0] - x[-1] > 1000 holds on 45% of pairs —
// consecutive ones or, the values being independent, the ones forced loss
// leaves adjacent.
func fillStorm(r *rand.Rand, vals [][]float64) {
	x := vals[0]
	for i := range x {
		x[i] = 19487 * r.Float64()
	}
}

// fillFanout draws engine-fanout's 16 streams: values on [100, 900) with
// exactly one spike on [1000, 1064) in every block of 100, at a seeded
// offset. A spike of 1000+s fires the thresholds with limit below it; the
// stragglers of its variable fire when its predecessor was low enough for
// the rise to pass 997, which is arranged for exactly one spike in 25 (its
// predecessor is drawn below 3; every other value is at least 100, so no
// other rise reaches 990). The spike heights step through [0, 64) evenly.
// Positions and the low-order digits come from the seed; the alert load is
// the same for every seed, so the run-to-run spread measures the system,
// not the draw.
func fillFanout(r *rand.Rand, vals [][]float64) {
	for _, t := range vals {
		for i := range t {
			t[i] = 100 + 800*r.Float64()
		}
		first := r.Intn(64)
		for k, b := 0, 0; b+100 <= len(t); k, b = k+1, b+100 {
			i := b + 1 + r.Intn(99) // never first of a block: its predecessor is in the block
			t[i] = 1000 + float64((first+37*k)%64) + r.Float64()
			if k%25 == 0 {
				t[i-1] = 3 * r.Float64()
			}
		}
	}
}
