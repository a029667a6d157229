package main

// Hot-path performance measurement: -perf reruns the component
// micro-benchmarks of bench_test.go (CE feed, compiled DSL evaluation, the
// AD filter Offer paths) through testing.Benchmark and emits machine-
// readable JSON. BENCH_PR1.json at the repository root records the
// before/after numbers for the zero-allocation hot-path work; regenerate
// its "after" block with:
//
//	go run ./cmd/condmon-bench -perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	crt "condmon/internal/runtime"
	"condmon/internal/sim"
	"condmon/internal/workload"
)

// perfResult is one benchmark's measurement, mirroring go test -benchmem.
type perfResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type perfReport struct {
	Go          string                      `json:"go"`
	GOOS        string                      `json:"goos"`
	GOARCH      string                      `json:"goarch"`
	Benchmarks  map[string]perfResult       `json:"benchmarks,omitempty"`
	MultiSystem map[string]throughputResult `json:"multi_system,omitempty"`
	Ingest      map[string]ingestResult     `json:"ingest,omitempty"`
	Hot         map[string]hotVarResult     `json:"hot_variable,omitempty"`
	Million     map[string]millionResult    `json:"million_conditions,omitempty"`
	Audit       map[string]perfResult       `json:"audit_overhead,omitempty"`
}

// perfScenarios names the -scenario groups in canonical order. The
// default run (empty -scenario) covers every group except
// MillionConditions: building a million-condition engine is a deliberate
// act, opted into by name.
var perfScenarios = []string{
	"CEFeed", "DSLEval", "Filters", "MultiSystem", "IngestThroughput",
	"HotVariable", "AuditOverhead", "MillionConditions",
}

// parseScenarios resolves a comma-separated, case-insensitive -scenario
// list into the selected set (keys lower-cased). An empty spec selects
// the default set; "all" selects every group including MillionConditions;
// unknown names are rejected with the full scenario list.
func parseScenarios(spec string) (map[string]bool, error) {
	sel := make(map[string]bool, len(perfScenarios))
	all := func() {
		for _, s := range perfScenarios {
			sel[strings.ToLower(s)] = true
		}
	}
	if strings.TrimSpace(spec) == "" {
		all()
		delete(sel, "millionconditions")
		return sel, nil
	}
	known := map[string]bool{"all": true}
	for _, s := range perfScenarios {
		known[strings.ToLower(s)] = true
	}
	for _, w := range strings.Split(spec, ",") {
		w = strings.ToLower(strings.TrimSpace(w))
		if w == "" {
			continue
		}
		if !known[w] {
			return nil, fmt.Errorf("unknown scenario %q (known: %s, all)",
				w, strings.Join(perfScenarios, " "))
		}
		if w == "all" {
			all()
			continue
		}
		sel[w] = true
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("empty -scenario list (known: %s, all)",
			strings.Join(perfScenarios, " "))
	}
	return sel, nil
}

// throughputResult is one MultiSystemThroughput run: a thousand-condition
// two-replica deployment driven to completion, per-update or batched.
type throughputResult struct {
	Conditions    int     `json:"conditions"`
	Replicas      int     `json:"replicas"`
	Workers       int     `json:"workers"`
	Goroutines    int     `json:"goroutines"`
	BatchSize     int     `json:"batch_size"`
	Updates       int     `json:"updates"`
	Displayed     int     `json:"displayed"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

func measure(f func(b *testing.B)) perfResult {
	r := testing.Benchmark(f)
	return perfResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// feedBench measures Evaluator.Feed for condition c, the CEFeed/DSLEval
// scenarios of bench_test.go. A non-nil tracer attaches the live flight
// recorder, measuring the tracing-on cost of the same path.
func feedBench(c cond.Condition, tr *obs.Tracer) func(b *testing.B) {
	return func(b *testing.B) {
		eval, err := ce.New("CE1", c)
		if err != nil {
			b.Fatal(err)
		}
		eval.SetTracer(tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Feed(event.U("x", int64(i+1), float64(i%500))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// filterStream reproduces BenchmarkFilters' precomputed lossy two-CE alert
// stream.
func filterStream() ([]event.Alert, error) {
	r := rand.New(rand.NewSource(1))
	trace := workload.Generate("x", workload.NewReactorTemp(3), 64)
	run, err := sim.RunSingleVar(cond.NewRiseAggressive("x"), trace,
		link.Bernoulli{P: 0.3}, link.Bernoulli{P: 0.3}, r)
	if err != nil {
		return nil, err
	}
	merged := sim.RandomArrival(run.A1, run.A2, r)
	if len(merged) == 0 {
		return nil, fmt.Errorf("empty alert stream; adjust workload")
	}
	return merged, nil
}

// multiThroughput builds the MultiSystemThroughput scenario — 1000
// threshold conditions over 8 variables, 2 CE replicas each — and drives
// total updates through it, singly (batchSize 1) or via fixed EmitBatch
// runs (batchSize > 1). The reported rate includes Close, so every update
// is fully evaluated and filtered before the clock stops. Goroutines is
// sampled while the system is live: with the sharded worker pool it stays
// O(workers) rather than the O(conditions × replicas × variables) of a
// goroutine-per-link wiring. A non-nil reg attaches the full multi.* /
// ad.* counter set to the run; the default nil registry measures the
// uninstrumented configuration.
func multiThroughput(batchSize, conditions, total int, reg *obs.Registry, tr *obs.Tracer) (throughputResult, error) {
	const nVars = 8
	vars := make([]event.VarName, nVars)
	for i := range vars {
		vars[i] = event.VarName(fmt.Sprintf("x%d", i))
	}
	conds := make([]cond.Condition, conditions)
	for i := range conds {
		conds[i] = cond.Threshold{
			CondName: fmt.Sprintf("c%04d", i),
			Var:      vars[i%nVars],
			Limit:    990,
			Above:    true,
		}
	}
	sys, err := crt.NewMulti(conds, func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, crt.MultiOptions{Replicas: 2, Seed: 1, Metrics: reg, Trace: tr})
	if err != nil {
		return throughputResult{}, err
	}
	res := throughputResult{
		Conditions: conditions,
		Replicas:   2,
		Workers:    sys.Workers(),
		Goroutines: runtime.NumGoroutine(),
		BatchSize:  batchSize,
		Updates:    total,
	}
	perVar := total / nVars
	start := time.Now()
	if batchSize <= 1 {
		for i := 0; i < perVar; i++ {
			for _, v := range vars {
				if _, err := sys.Emit(v, float64(i%1000)); err != nil {
					return res, err
				}
			}
		}
	} else {
		values := make([]float64, perVar)
		for i := range values {
			values[i] = float64(i % 1000)
		}
		for _, v := range vars {
			for i := 0; i < len(values); i += batchSize {
				j := i + batchSize
				if j > len(values) {
					j = len(values)
				}
				if _, err := sys.EmitBatch(v, values[i:j]); err != nil {
					return res, err
				}
			}
		}
	}
	displayed, err := sys.Close()
	if err != nil {
		return res, err
	}
	res.UpdatesPerSec = float64(perVar*nVars) / time.Since(start).Seconds()
	res.Displayed = len(displayed)
	return res, nil
}

// runPerf measures the hot paths selected by the -scenario spec and
// emits the JSON report on out. With a non-empty metricsAddr the
// MultiSystem and MillionConditions runs carry pipeline counters and the
// registry is served over HTTP for the hold duration afterwards (the
// serving notice goes to stderr so out stays valid JSON). scale sets the
// MillionConditions condition count; hotScale shrinks the HotVariable
// burst geometry (1.0 = full measurement, smaller for smoke runs).
func runPerf(out io.Writer, metricsAddr string, hold time.Duration, scenarios string, scale int, hotScale float64) error {
	sel, err := parseScenarios(scenarios)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	report := perfReport{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	if sel["cefeed"] || sel["dsleval"] || sel["filters"] {
		report.Benchmarks = map[string]perfResult{}
	}
	if sel["cefeed"] {
		report.Benchmarks["CEFeed"] = measure(feedBench(cond.NewRiseAggressive("x"), nil))
		// The same path with the flight recorder attached: the tracing-on
		// overhead BENCH_PR5.json records next to the tracing-off pin.
		report.Benchmarks["CEFeed/traced"] = measure(feedBench(
			cond.NewRiseAggressive("x"), obs.NewTracer(obs.DefaultTraceCap)))
	}
	if sel["dsleval"] {
		report.Benchmarks["DSLEval"] = measure(feedBench(
			cond.MustParse("c3", "x[0] - x[-1] > 200 && consecutive(x)"), nil))
	}
	if sel["filters"] {
		merged, err := filterStream()
		if err != nil {
			return err
		}
		filters := []struct {
			name string
			mk   func() ad.Filter
		}{
			{"Filters/AD-1", func() ad.Filter { return ad.NewAD1() }},
			{"Filters/AD-2", func() ad.Filter { return ad.NewAD2("x") }},
			{"Filters/AD-3", func() ad.Filter { return ad.NewAD3("x") }},
			{"Filters/AD-4", func() ad.Filter { return ad.NewAD4("x") }},
		}
		for _, f := range filters {
			mk := f.mk
			report.Benchmarks[f.name] = measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ad.Run(mk(), merged)
				}
			})
		}
	}

	if sel["multisystem"] {
		report.MultiSystem = map[string]throughputResult{}
		for _, m := range []struct {
			key    string
			batch  int
			traced bool
		}{
			{"MultiSystemThroughput/per_update", 1, false},
			{"MultiSystemThroughput/batched", 256, false},
			{"MultiSystemThroughput/batched_traced", 256, true},
		} {
			var tr *obs.Tracer
			if m.traced {
				tr = obs.NewTracer(obs.DefaultTraceCap)
			}
			res, err := multiThroughput(m.batch, 1000, 20000, reg, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", m.key, err)
			}
			report.MultiSystem[m.key] = res
		}
	}

	if sel["ingestthroughput"] {
		// The ingest-plane scenario: the same volume over loopback UDP
		// through the single-socket channel receiver (the pre-group
		// baseline) and through SO_REUSEPORT groups in dispatch mode.
		report.Ingest = map[string]ingestResult{}
		for _, m := range []struct {
			key      string
			sockets  int
			dispatch bool
		}{
			{"IngestThroughput/1socket_channel", 1, false},
			{"IngestThroughput/1socket_dispatch", 1, true},
			{"IngestThroughput/4socket_dispatch", 4, true},
			{"IngestThroughput/8socket_dispatch", 8, true},
		} {
			res, err := ingestThroughput(m.sockets, m.dispatch, 512*1024)
			if err != nil {
				return fmt.Errorf("%s: %w", m.key, err)
			}
			report.Ingest[m.key] = res
		}
	}

	if sel["hotvariable"] {
		// The multipath scenario: one variable carries ~90% of the traffic
		// in open-loop bursts. Pinned legs cap the hot variable at one
		// socket (more sockets don't help — that's the point); striped
		// legs spread it across the whole group behind the reorder layer.
		report.Hot = map[string]hotVarResult{}
		for _, m := range []struct {
			key     string
			sockets int
			stripe  bool
		}{
			{"HotVariable/pinned_1socket", 1, false},
			{"HotVariable/pinned_8socket", 8, false},
			// striped_1socket is the control: the reorder layer alone,
			// with no extra buffer capacity behind it, wins nothing.
			{"HotVariable/striped_1socket", 1, true},
			{"HotVariable/striped_4socket", 4, true},
			{"HotVariable/striped_8socket", 8, true},
		} {
			res, err := hotVariable(m.sockets, m.stripe, hotScale)
			if err != nil {
				return fmt.Errorf("%s: %w", m.key, err)
			}
			report.Hot[m.key] = res
		}
	}

	if sel["auditoverhead"] {
		audits, err := auditOverhead()
		if err != nil {
			return fmt.Errorf("AuditOverhead: %w", err)
		}
		report.Audit = audits
	}

	if sel["millionconditions"] {
		res, err := millionRun(scale, reg)
		if err != nil {
			return fmt.Errorf("MillionConditions: %w", err)
		}
		report.Million = map[string]millionResult{"MillionConditions": res}
	}

	// encoding/json sorts map keys, so the output is diff-friendly.
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}

	if reg != nil {
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (pprof at /debug/pprof/), holding %s\n", srv.Addr(), hold)
		time.Sleep(hold)
	}
	return nil
}
