//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
)

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	in := []int64{3, 1, 2}
	if got := sortedCopy(in); got[0] != 1 || got[2] != 3 || in[0] != 3 {
		t.Errorf("sortedCopy = %v (input now %v), want a sorted copy", got, in)
	}
}

// snapOf builds a probe snapshot holding n samples of ns each.
func snapOf(prev *probeSnap, ns int64, n uint32) *probeSnap {
	s := *prev
	s[ns/probeBucketNs] += n
	return &s
}

func TestSlicesOf(t *testing.T) {
	// Intervals of 1 s, 2 s (a late sampler) and 1 s in which 100, 400 and
	// 300 updates were processed are rates 100, 200 and 300: the late slice
	// must be divided by its real length, not counted as one interval. The
	// host ran the probe at nominal speed, then 25% slower, then — the
	// fleet standing still — not at all.
	var zero probeSnap
	s1 := snapOf(&zero, probeNominalNs, 100)
	s2 := snapOf(s1, probeNominalNs*5/4, 100)
	rs := []reading{
		{at: 0, probe: &zero},
		{at: 1e9, cpu: time.Second / 2, sent: 100, processed: 100, probe: s1},
		{at: 3e9, cpu: time.Second * 3 / 2, sent: 500, processed: 500, probe: s2},
		{at: 4e9, cpu: time.Second * 2, sent: 800, processed: 800, probe: s2},
	}
	got := slicesOf(rs)
	if len(got) != 2 {
		t.Fatalf("%d slices, want 2 (the one without probe samples is left out)", len(got))
	}
	if got[0].rate != 100 || got[1].rate != 200 {
		t.Errorf("rates %v and %v, want 100 and 200", got[0].rate, got[1].rate)
	}
	if got[0].cpuUs != 5000 || got[1].cpuUs != 2500 {
		t.Errorf("CPU per update %v and %v us, want 5000 and 2500", got[0].cpuUs, got[1].cpuUs)
	}
	// At coreShare 1 the slow slice's CPU cost scales down by the probe's
	// ratio, at coreShare 0 not at all.
	if s := got[1].scale(1); math.Abs(s-0.8) > 0.01 {
		t.Errorf("scale of a 25%% slow slice = %v, want 0.8", s)
	}
	if s := got[1].scale(0); s != 1 {
		t.Errorf("scale at coreShare 0 = %v, want 1", s)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestProbeMedian(t *testing.T) {
	var zero probeSnap
	if ns, n := zero.medianNs(&zero); ns != 0 || n != 0 {
		t.Errorf("median of no samples = %v over %d", ns, n)
	}
	s := snapOf(snapOf(snapOf(&zero, 400, 10), 800, 11), 8000, 2) // two preemptions
	if ns, n := zero.medianNs(s); n != 23 || math.Abs(ns-800) > probeBucketNs {
		t.Errorf("median = %v ns over %d samples, want 800 over 23", ns, n)
	}
	if ns := probeBurst(200); ns <= 0 {
		t.Errorf("a burst of the real kernel read %v ns", ns)
	}
}

func TestPhases(t *testing.T) {
	storm, _ := specByName("alert-storm")
	steady, _ := specByName("fleet-steady")
	l, r, s := runConfig{sp: storm, window: 16 * time.Second}.phases()
	if l != 6*time.Second || r != 500*time.Millisecond || s != 9500*time.Millisecond {
		t.Errorf("closed loop splits 16 s into %v latency, %v ramp, %v saturated", l, r, s)
	}
	engine, _ := specByName("engine-fanout")
	for _, sp := range []*spec{steady, engine} {
		if l, r, s := (runConfig{sp: sp, window: 16 * time.Second}).phases(); l != s || r != 0 || s != 16*time.Second {
			t.Errorf("%s runs one loop, but splits 16 s into %v latency, %v ramp, %v saturated", sp.name, l, r, s)
		}
	}
}

func TestDatagramsDue(t *testing.T) {
	for _, tc := range []struct {
		perTick float64
		want    int // datagrams over 1000 ticks
	}{{20, 20000}, {1, 1000}, {0.125, 125}} {
		total, most := 0, 0
		for k := int64(0); k < 1000; k++ {
			n := datagramsDue(tc.perTick, k)
			total += n
			if n > most {
				most = n
			}
		}
		if total != tc.want || float64(most) > tc.perTick+1 {
			t.Errorf("%v a tick: %d datagrams over 1000 ticks (want %d), %d in one", tc.perTick, total, tc.want, most)
		}
	}
}

// TestHostStall: a late wake-up is a host stall only when the process
// stood still meanwhile; whatever the code under test does to hold the CPU
// stays in the percentiles.
func TestHostStall(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		name                   string
		overslept, asleep, cpu int64
		want                   bool
	}{
		{"on time", 100_000, ms, 50_000, false},
		{"VM frozen 60 ms, nothing ran", 60 * ms, 61 * ms, 300_000, true},
		{"collector held the P for 12 ms", 12 * ms, 13 * ms, 12 * ms, false},
		{"0.8 ms late is below the threshold", 800_000, 2 * ms, 0, false},
	} {
		if got := hostStall(tc.overslept, tc.asleep, tc.cpu); got != tc.want {
			t.Errorf("%s: hostStall = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPooledLatencies: the percentiles are read from the whole window
// pooled — a tail that hits one alert in a hundred shows in the 99th
// percentile — but for the stretch a host stall voids: the stall, as long
// again, and the recovery allowance.
func TestPooledLatencies(t *testing.T) {
	ms := int64(time.Millisecond)
	l := &latLog{opened: 1000 * ms, shut: 1800 * ms}
	for i := int64(0); i < 800; i++ {
		end, lat := l.opened+i*ms, int64(3)
		switch {
		case i%200 == 0:
			lat = 40 // the fleet's own tail: 4 samples in 800
		case i >= 300 && i < 320:
			lat = 900 // the stall and its backlog
		}
		l.ends, l.samples = append(l.ends, end), append(l.samples, lat)
	}
	pool, voidNs := l.pooled(nil)
	if len(pool) != 800 || voidNs != 0 || percentile(pool, 0.5) != 3 || percentile(pool, 0.99) != 900 {
		t.Errorf("no stall: %d samples, %d ns void, p50 %d, p99 %d", len(pool), voidNs, percentile(pool, 0.5), percentile(pool, 0.99))
	}
	// A 10 ms stall at 1300 ms voids [1300, 1325]: 26 samples, the spoiled
	// ones among them. One before the window voids nothing.
	stalls := []stall{{from: 500 * ms, to: 600 * ms}, {from: 1300 * ms, to: 1310 * ms}}
	pool, voidNs = l.pooled(stalls)
	if len(pool) != 774 || voidNs != 25*ms {
		t.Errorf("stall voided: %d samples left, %d ms void, want 774 and 25", len(pool), voidNs/ms)
	}
	if percentile(pool, 0.5) != 3 || percentile(pool, 0.99) != 3 || percentile(pool, 0.996) != 40 {
		t.Errorf("stall voided: p50 %d, p99 %d, p99.6 %d, want 3, 3, 40", percentile(pool, 0.5), percentile(pool, 0.99), percentile(pool, 0.996))
	}
	// Overlapping voids count once, and only inside the window.
	if _, voidNs = l.pooled([]stall{{from: 1700 * ms, to: 1740 * ms}, {from: 1750 * ms, to: 1790 * ms}}); voidNs != 100*ms {
		t.Errorf("two overlapping voids up to the window's end: %d ms, want 100", voidNs/ms)
	}
}

// TestLatencyScaling: a latency is scaled to the nominal host speed by the
// workload's latencyShare — all the way for engine-fanout, whose alerts
// cross no timer, not at all for a storm, and not at all without probe
// samples to go by.
func TestLatencyScaling(t *testing.T) {
	lat := []int64{3e6, 3e6, 3e6}
	for _, tc := range []struct {
		workload string
		probe    float64
		want     float64
	}{
		{"engine-fanout", 2 * probeNominalNs, 1.5},
		{"engine-fanout", 0, 3},
		{"alert-storm", 2 * probeNominalNs, 3},
	} {
		sp, err := specByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{cfg: runConfig{sp: sp}, latPool: lat, latProbe: tc.probe}
		raw, scaled := res.latencyMs(0.5)
		if raw != 3 || math.Abs(scaled-tc.want) > 1e-9 {
			t.Errorf("%s at probe %v: %v ms raw, %v scaled, want 3 and %v", tc.workload, tc.probe, raw, scaled, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the acceptance procedure computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestLateness(t *testing.T) {
	if got := lateness(1000, 900); got != 0 {
		t.Errorf("early tick late by %d, want 0", got)
	}
	if got := lateness(1000, 1000); got != 0 {
		t.Errorf("punctual tick late by %d, want 0", got)
	}
	if got := lateness(1000, 1750); got != 750 {
		t.Errorf("late tick late by %d, want 750", got)
	}
}

func TestWindowGates(t *testing.T) {
	sp, err := specByName("alert-storm")
	if err != nil {
		t.Fatal(err)
	}
	// 32 per datagram, 512 updates and 4096 alerts in flight at most.
	for _, tc := range []struct {
		sent, processed, alerts int64
		want                    bool
	}{
		{0, 0, 0, true},
		{480, 0, 0, true},  // the datagram that fills the window
		{481, 0, 0, false}, // one more update would overflow it
		{10480, 10000, 0, true},
		{10512, 10000, 0, false},
		{480, 0, 4096, true},  // alert window full but not over
		{480, 0, 4097, false}, // update window open, alert window shut
		{512, 0, 4097, false}, // both shut
	} {
		if got := sp.mayPublish(tc.sent, tc.processed, tc.alerts); got != tc.want {
			t.Errorf("mayPublish(sent %d, processed %d, alerts %d) = %v, want %v", tc.sent, tc.processed, tc.alerts, got, tc.want)
		}
	}
	eng, err := specByName("engine-fanout")
	if err != nil {
		t.Fatal(err)
	}
	if !eng.mayPublish(2016, 0, 1<<40) || eng.mayPublish(2017, 0, 0) {
		t.Error("engine-fanout gates on 2048 updates alone")
	}
}

func TestSampling(t *testing.T) {
	var off *tracer
	if off.sampled(64) {
		t.Error("nil tracer samples")
	}
	if _, ok := off.sampledIn(1, 64); ok {
		t.Error("nil tracer samples a run")
	}
	tr := &tracer{every: 64}
	if !tr.sampled(128) || tr.sampled(129) {
		t.Error("1-in-64 sampling picks multiples of 64")
	}
	if id, ok := tr.sampledIn(33, 32); !ok || id != 64 {
		t.Errorf("run 33..64 sampled = %v id %d, want true 64", ok, id)
	}
	if _, ok := tr.sampledIn(1, 32); ok {
		t.Error("run 1..32 holds no multiple of 64")
	}
	if sc := tr.scope(nil, 1, nil, "x", 5); sc.on() || sc.now() != 0 {
		t.Error("an unsampled scope reads no clock")
	}
}

// TestStageBudget builds one alert's chain by hand: the join must anchor
// the transits on their senders' returns, and the budget must see exactly
// the gap no span covers.
func TestStageBudget(t *testing.T) {
	chain := []span{
		{name: spWait, seq: 7, start: 0, end: 100},
		{name: spPublish, seq: 7, start: 100, end: 200},
		{name: spFront, rep: 2, seq: 7, start: 260, end: 260},
		{name: spFeed, rep: 2, seq: 7, start: 260, end: 300},
		{name: spMuxSend, rep: 2, seq: 7, start: 300, end: 350},
		{name: spBack, rep: 2, seq: 7, start: 900, end: 900},
		{name: spOffer, rep: 2, seq: 7, start: 900, end: 950},
		{name: spDisplay, rep: 2, seq: 7, start: 950, end: 1000},
		// Replica 1 read the datagram while Publish was still writing to
		// replica 2: its transit clamps to zero.
		{name: spFront, rep: 1, seq: 7, start: 150, end: 150},
		// A transit whose sender span was never recorded is dropped.
		{name: spBack, rep: 1, seq: 9, start: 500, end: 500},
	}
	joined := joinTransits(append([]span(nil), chain...))
	if len(joined) != len(chain)-1 {
		t.Fatalf("joined %d spans, want %d", len(joined), len(chain)-1)
	}
	want := map[spanKey][2]int64{
		{spFront, 2, 0, 7}: {200, 260},
		{spBack, 2, 0, 7}:  {350, 900},
		{spFront, 1, 0, 7}: {150, 150},
	}
	for _, s := range joined {
		if w, ok := want[spanKey{s.name, s.rep, s.v, s.seq}]; ok && (s.start != w[0] || s.end != w[1]) {
			t.Errorf("%s rep %d = [%d, %d], want %v", spanInfo[s.name].name, s.rep, s.start, s.end, w)
		}
	}
	share, checked := unaccounted(joined)
	if checked != 1 || share != 0 {
		t.Errorf("closed chain: unaccounted %v over %d alerts, want 0 over 1", share, checked)
	}
	// Open a 200 ns hole between feed and mux send: a fifth of the 1000 ns
	// from due time to display.
	for i := range joined {
		switch {
		case joined[i].name == spMuxSend:
			joined[i].start, joined[i].end = 500, 550
		case joined[i].name == spBack && joined[i].rep == 2:
			joined[i].start = 550
		}
	}
	if share, _ := unaccounted(joined); math.Abs(share-0.2) > 1e-6 {
		t.Errorf("200 ns hole in a 1000 ns path: unaccounted %v, want 0.2", share)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.999, c, c * 1.001, c, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.85, c, c * 1.15, c * 1.3} }
	for _, tc := range []struct {
		name     string
		old, new []float64
		higher   bool
		want     string
	}{
		{"same", tight(100), tight(100), true, verdictWithin},
		{"throughput down 20%", tight(100), tight(80), true, verdictWorse},
		{"throughput up 20%", tight(100), tight(120), true, verdictWithin},
		{"latency up 20%", tight(100), tight(120), false, verdictWorse},
		{"latency up 5%", tight(100), tight(105), false, verdictWithin},
		{"noisy and overlapping", wide(100), wide(102), true, verdictUnresolved},
		{"noisy but every new run better", wide(100), wide(300), true, verdictWithin},
	} {
		if got, _, _ := judge(tc.old, tc.new, tc.higher, 0.10, 0); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// The absolute floor: 6 ms of set-up may grow by 20% or by 0.05 s,
	// whichever is more.
	if got, _, _ := judge(tight(0.006), tight(0.030), false, 0.20, 0.05); got != verdictWithin {
		t.Errorf("set-up 6 ms -> 30 ms under a 0.05 s floor: %s, want %s", got, verdictWithin)
	}
	if got, _, _ := judge(tight(0.006), tight(0.060), false, 0.20, 0.05); got != verdictWorse {
		t.Errorf("set-up 6 ms -> 60 ms under a 0.05 s floor: %s, want %s", got, verdictWorse)
	}
	// A metric that read 0 cannot turn worse unseen.
	zero := []float64{0, 0, 0}
	if got, change, _ := judge(zero, tight(3), false, 0.10, 0); got != verdictWorse || !math.IsInf(change, 1) {
		t.Errorf("0 -> 3, lower better: %s (change %v), want %s", got, change, verdictWorse)
	}
	if got, _, _ := judge(zero, zero, false, 0.10, 0); got != verdictWithin {
		t.Errorf("0 -> 0: %s, want %s", got, verdictWithin)
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	// Every workload gets three runs; alert-storm runs at rate and reads
	// latency, which is gated on fleet-steady alone.
	write := func(name string, rate, latency, failedShare float64, leaveOut string) string {
		var b bytes.Buffer
		for _, sp := range specs {
			if sp.name == leaveOut {
				continue
			}
			for i := 0; i < 3; i++ {
				rec := runRecord{Workload: sp.name, runLine: runLine{Metrics: map[string]metricValue{}}}
				for _, d := range endToEnd {
					rec.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
				}
				if sp.name == "alert-storm" {
					rec.FailedShare = failedShare
					rec.Metrics["updates_per_s"] = metricValue{Value: rate + float64(i), Unit: "1/s"}
					rec.Metrics["alert_latency_p99_ms"] = metricValue{Value: latency, Unit: "ms"}
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(append(line, '\n'))
			}
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.jsonl", 1000, 1, 0, "")
	var out bytes.Buffer
	if err := compare([]string{"-benchmark", "../BENCHMARK.json", base, write("same.jsonl", 1000, 1, 0, "")}, &out); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || !strings.Contains(out.String(), "0 worse, 0 unresolved") {
		t.Errorf("identical sets should be within bound everywhere:\n%s", out.String())
	}
	if err := compare([]string{"-benchmark", "../BENCHMARK.json", base, write("slow.jsonl", 500, 1, 0, "")}, io.Discard); err == nil {
		t.Error("halved throughput: compare reported no error")
	}
	if err := compare([]string{"-benchmark", "../BENCHMARK.json", base, write("wrong.jsonl", 1000, 1, 0.01, "")}, io.Discard); err == nil {
		t.Error("risen failed share: compare reported no error")
	}
	if err := compare([]string{"-benchmark", "../BENCHMARK.json", base, write("short.jsonl", 1000, 1, 0, "durable-storm")}, io.Discard); err == nil {
		t.Error("a workload missing from the new set: compare reported no error")
	}
	out.Reset()
	if err := compare([]string{"-benchmark", "../BENCHMARK.json", base, write("tail.jsonl", 1000, 2, 0, "")}, &out); err != nil {
		t.Errorf("doubled tail latency on alert-storm, where latency is not gated: %v", err)
	}
	if !strings.Contains(out.String(), verdictNotGated) {
		t.Errorf("latency on alert-storm should read %q:\n%s", verdictNotGated, out.String())
	}
}

func generate(sp *spec, seed int64) *inputs {
	in := newInputs(sp)
	in.generate(sp, seed)
	return in
}

func TestInputsRepeatPerSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := generate(sp, 42), generate(sp, 42), generate(sp, 43)
		same, differs := true, false
		for v := range a.vals {
			for i := range a.vals[v] {
				same = same && a.vals[v][i] == b.vals[v][i]
				differs = differs || a.vals[v][i] != c.vals[v][i]
			}
		}
		if !same || !differs {
			t.Errorf("%s: same seed same inputs = %v, other seed other inputs = %v", sp.name, same, differs)
		}
	}
}

// TestSteadyFiresOncePerBlock pins fleet-steady's stratified input: fed in
// publish order to the real evaluator, every block of 12 pairs fires
// exactly once, whatever the seed.
func TestSteadyFiresOncePerBlock(t *testing.T) {
	sp, err := specByName("fleet-steady")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cond.Parse("c", sp.cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 99} {
		in := generate(sp, seed)
		eval, err := ce.New("T", c)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 500
		fired := make([]int, blocks)
		for i := int64(1); i <= blocks*steadyBlock; i++ {
			for v, name := range sp.vars {
				_, ok, err := eval.Feed(event.Update{Var: name, SeqNo: i, Value: in.value(v, i)})
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					fired[(i-1)/steadyBlock]++
				}
			}
		}
		for b, n := range fired {
			if n != 1 {
				t.Fatalf("seed %d: block %d fired %d times, want 1", seed, b, n)
			}
		}
	}
}

// boundCeiling is how far the issue lets each bound go: 20% for set-up
// time, 2% for allocations, and "never beyond 10%" for the rest.
var boundCeiling = map[string]float64{
	"setup_s": 0.20, "updates_per_s": 0.10, "alert_latency_p50_ms": 0.10, "alert_latency_p99_ms": 0.10,
	"cpu_us_per_update": 0.10, "allocs_per_update": 0.02,
}

// driverBoundWider names the metrics whose bound in BENCHMARK.json, which
// the driver holds every workload to and cannot pair with a floor, is wider
// than the issue's bound on the workloads the issue gates them on:
// durable-storm's 99th percentile is the length of its last few checkpoints
// and spreads 12–14%; and the issue lets a set-up of 6 ms grow by 0.05 s,
// which a percentage alone cannot say (the driver also wants set-up time to
// have the largest bound).
var driverBoundWider = map[string]bool{"alert_latency_p99_ms": true, "setup_s": true}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONAgreesWithMetrics holds BENCHMARK.json and the program
// to each other: the same workloads, the same end-to-end and per-layer
// names and units, nothing printed that the file does not declare and
// nothing declared that is not printed.
func TestBenchmarkJSONAgreesWithMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "command end_to_end paths per_layer run_seconds workloads"; got != want {
		t.Errorf("BENCHMARK.json keys = %q, want %q", got, want)
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	contract, err := readContract()
	if err != nil {
		t.Fatal(err)
	}

	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		if i >= len(endToEnd) || m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d is %s [%s] in BENCHMARK.json, not what the program prints", i, m.Name, m.Unit)
		}
		// The bound is the issue's — contract.json's, held to the issue's
		// ceilings by TestContract — except where a workload the issue does
		// not gate the metric on spreads wider, which the driver would refuse.
		if want := contract.EndToEnd[m.Name].Bound; m.Bound != want && !(driverBoundWider[m.Name] && m.Bound > want && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in contract.json", m.Name, m.Bound, want)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if len(bf.EndToEnd) != len(endToEnd) || !sawSetup {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics (setup_s seen: %v), the program prints %d", len(bf.EndToEnd), sawSetup, len(endToEnd))
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, sp := range specs {
		if !metricName.MatchString(sp.name) {
			t.Errorf("workload name %q does not match %v", sp.name, metricName)
		}
	}
}

// TestContract holds contract.json to the program and to BENCHMARK.json:
// the workloads' loops, rates and windows are the specs', every end-to-end
// metric has its gate, every gate and every interaction names workloads and
// metrics that exist, and every per-layer metric appears in exactly one
// interaction row.
func TestContract(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Errorf("contract.json has %d workloads, the program %d", len(c.Workloads), len(specs))
	}
	known := map[string]bool{}
	for _, sp := range specs {
		known[sp.name] = true
		w, ok := c.Workloads[sp.name]
		if !ok {
			t.Errorf("contract.json lacks workload %s", sp.name)
			continue
		}
		loop := "closed"
		if sp.open() {
			loop = "open"
		}
		if w.Loop != loop || w.RatePerS != sp.rate || w.LatencyRatePerS != sp.latencyRate || w.PerDatagram != sp.perDatagram ||
			w.UpdatesInFlight != sp.updateWindow || w.AlertsInFlight != sp.alertWindow {
			t.Errorf("%s: contract.json says %+v, the spec %s loop, rate %d, latency rate %d, %d per datagram, windows %d/%d",
				sp.name, w, loop, sp.rate, sp.latencyRate, sp.perDatagram, sp.updateWindow, sp.alertWindow)
		}
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
		g, ok := c.EndToEnd[d.name]
		if !ok || len(g.GatedOn) == 0 {
			t.Errorf("contract.json gates %s on nothing", d.name)
		}
		if g.Bound <= 0 || g.Bound > boundCeiling[d.name] {
			t.Errorf("%s: gated bound %v outside (0, %v], the most the issue lets it be loosened to", d.name, g.Bound, boundCeiling[d.name])
		}
		for _, w := range g.GatedOn {
			if !known[w] {
				t.Errorf("%s gated on unknown workload %q", d.name, w)
			}
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Errorf("contract.json gates %d end-to-end metrics, the program prints %d", len(c.EndToEnd), len(endToEnd))
	}
	rows := map[string]int{}
	for _, row := range c.PerLayer {
		for _, m := range row.Metrics {
			rows[m]++
		}
		for _, mv := range row.ShouldMove {
			if !e2e[mv.Metric] || !known[mv.Workload] {
				t.Errorf("interaction row %v should move unknown %s on %s", row.Metrics, mv.Metric, mv.Workload)
			}
		}
		for _, w := range row.NoChangeOn {
			if !known[w] {
				t.Errorf("interaction row %v expects no change on unknown workload %q", row.Metrics, w)
			}
		}
	}
	for _, d := range perLayer {
		if rows[d.name] != 1 {
			t.Errorf("per-layer metric %s is in %d interaction rows, want 1", d.name, rows[d.name])
		}
	}
	if len(rows) != len(perLayer) {
		t.Errorf("interaction rows name %d metrics, the program prints %d", len(rows), len(perLayer))
	}
}

// lines runs the benchmark in-process and decodes every result line.
func lines(t *testing.T, args ...string) []runLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
	}
	var out []runLine
	for _, l := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var rl runLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rl); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		out = append(out, rl)
	}
	if t.Failed() {
		t.Log(stderr.String())
	}
	return out
}

// TestSmokeAllWorkloads drives all six workloads, untraced and traced,
// through 0.5 s windows: every run must pass its oracle and print exactly
// the declared metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	got := lines(t, "-smoke", "-workload", "all", "-seed", "3")
	if len(got) != 2*len(specs) {
		t.Fatalf("%d result lines, want %d", len(got), 2*len(specs))
	}
	for i, rl := range got {
		sp, defs := specs[i/2], endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
			t.Errorf("%s run %d: correct %v, %d of %d failed", sp.name, i%2, rl.Correct, rl.Failed, rl.Attempted)
		}
		if len(rl.Metrics) != len(defs) {
			t.Errorf("%s run %d: %d metrics, want %d", sp.name, i%2, len(rl.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rl.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s run %d: metric %s missing or unit %q", sp.name, i%2, d.name, m.Unit)
			}
			if i%2 == 0 && !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, m.Value)
			}
		}
	}
}

func TestNegativeNeedsAFleet(t *testing.T) {
	for _, w := range []string{"engine-fanout", "all"} {
		if err := run([]string{"-smoke", "-workload", w, "-negative", "drop"}, io.Discard, io.Discard); err == nil {
			t.Errorf("-negative drop on %s: no error, the control would be silently ignored", w)
		}
	}
}

// TestNegativeControls checks that the oracle can fail: a filter wrapper
// that defeats deduplication, and a display that loses one alert, must both
// drive failed above zero — on a lossless workload (reference comparison)
// and, for the wrapper, on a lossy one (property checks).
func TestNegativeControls(t *testing.T) {
	for _, tc := range []struct{ workload, control string }{
		{"alert-storm", "dedup"},
		{"audited-storm", "dedup"},
		{"ingest-flood", "dedup"},
		{"ingest-flood", "drop"},
	} {
		rl := lines(t, "-smoke", "-workload", tc.workload, "-negative", tc.control)[0]
		if rl.Failed == 0 || rl.Correct {
			t.Errorf("%s with -negative %s: failed %d, correct %v; the oracle missed it", tc.workload, tc.control, rl.Failed, rl.Correct)
		}
	}
}
