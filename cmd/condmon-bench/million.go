package main

// Million-condition engine measurement for the -perf report: a dynamic
// runtime.Engine is loaded with -scale single-variable threshold
// conditions grouped into shared-variable packs, and four things are
// timed — bulk registration, steady-state per-update cost (compared
// against a 10k-condition baseline of the same shape to expose the
// sublinear growth the pack compiler buys), live register/unregister
// churn, and a spike update that crosses a slice of the threshold index
// to prove the fleet still fires. BENCH_PR6.json records the numbers;
// regenerate with:
//
//	go run ./cmd/condmon-bench -perf -scenario MillionConditions

import (
	"fmt"
	"runtime"
	"time"

	"condmon/internal/ad"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/obs"
	crt "condmon/internal/runtime"
)

// millionResult is one MillionConditions run: registration, steady-state,
// churn, and spike measurements for a dynamic engine at the given scale.
type millionResult struct {
	Conditions int `json:"conditions"`
	Vars       int `json:"vars"`
	Workers    int `json:"workers"`
	Goroutines int `json:"goroutines"`
	// RegisterPerSec is the bulk-load rate: conditions registered per
	// second on the live engine, each applied inline to every lane of its
	// shard under the shard lock before Register returns.
	RegisterPerSec float64 `json:"register_per_sec"`
	Updates        int     `json:"updates"`
	NsPerUpdate    float64 `json:"ns_per_update"`
	// BaselineConditions / BaselineNsPerUpdate measure an identically
	// shaped engine at (at most) 10k conditions under the same traffic;
	// LatencyRatio = NsPerUpdate / BaselineNsPerUpdate is the per-update
	// growth from 10k to full scale (≤ 2 is the PR 6 acceptance bar).
	BaselineConditions  int     `json:"baseline_conditions"`
	BaselineNsPerUpdate float64 `json:"baseline_ns_per_update"`
	LatencyRatio        float64 `json:"latency_ratio"`
	// ChurnOps counts Register+Unregister operations run back-to-back
	// against the fully loaded engine; ChurnOpsPerSec is their rate.
	ChurnOps       int     `json:"churn_ops"`
	ChurnOpsPerSec float64 `json:"churn_ops_per_sec"`
	// SpikeDisplayed counts alerts displayed after one spike update
	// crosses the low end of the threshold index on one variable.
	SpikeDisplayed int `json:"spike_displayed"`
}

const (
	millionVars     = 8     // variables the conditions spread over
	millionUpdates  = 20000 // steady-state updates driven per engine
	millionChurnOps = 2000  // register/unregister cycles on the full engine
	millionBaseline = 10000 // baseline engine size for the latency ratio
	millionSpike    = 256   // threshold-index slice the spike crosses
)

// millionVarNames returns the shared variable set: every condition i
// watches variable m(i mod millionVars), so each variable carries one
// pack of n/millionVars thresholds.
func millionVarNames() []event.VarName {
	vars := make([]event.VarName, millionVars)
	for i := range vars {
		vars[i] = event.VarName(fmt.Sprintf("m%d", i))
	}
	return vars
}

// millionEngine builds a dynamic engine and bulk-registers n ascending
// thresholds (limit 1000+i, so steady traffic in [0,1000) never fires and
// a spike at 1000+k crosses exactly the k lowest). Returns the loaded
// engine and the registration wall time in seconds.
func millionEngine(n int, vars []event.VarName, reg *obs.Registry) (*crt.Engine, float64, error) {
	ng, err := crt.NewEngine(func(cond.Condition) ad.Filter { return ad.NewAD1() },
		crt.EngineOptions{Replicas: 2, Seed: 1, Metrics: reg})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c := cond.Threshold{
			CondName: fmt.Sprintf("m%07d", i),
			Var:      vars[i%len(vars)],
			Limit:    1000 + float64(i),
			Above:    true,
		}
		if _, err := ng.Register(c); err != nil {
			_, _ = ng.Close()
			return nil, 0, fmt.Errorf("register %s: %w", c.CondName, err)
		}
	}
	return ng, time.Since(start).Seconds(), nil
}

// millionDrive pushes updates round-robin across the variables with
// values in [0,1000) — below every registered limit, so the run measures
// the pure evaluation path with nothing firing — and returns the
// per-update wall cost in nanoseconds. The Drain barrier keeps the clock
// honest: every update is fully evaluated before it stops.
func millionDrive(ng *crt.Engine, vars []event.VarName, updates int) (float64, error) {
	perVar := updates / len(vars)
	start := time.Now()
	for i := 0; i < perVar; i++ {
		for _, v := range vars {
			if _, err := ng.Emit(v, float64(i%1000)); err != nil {
				return 0, err
			}
		}
	}
	if err := ng.Drain(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(perVar*len(vars)), nil
}

// millionChurn runs cycles of Register followed immediately by
// Unregister against the loaded engine — the registry's worst case, every
// operation a pass over the owning shard's lanes under its lock, with
// regMu held — and returns operations/second.
// The churned thresholds sit far above the traffic range so they never
// fire before they disappear.
func millionChurn(ng *crt.Engine, v event.VarName, cycles int) (float64, error) {
	start := time.Now()
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("churn-%d", i)
		if _, err := ng.Register(cond.Threshold{
			CondName: name, Var: v, Limit: 2e9, Above: true,
		}); err != nil {
			return 0, err
		}
		if err := ng.Unregister(name); err != nil {
			return 0, err
		}
	}
	return float64(2*cycles) / time.Since(start).Seconds(), nil
}

// millionRun measures the full MillionConditions scenario at the given
// scale. A non-nil reg attaches the engine.* gauge set to the full-scale
// engine.
func millionRun(scale int, reg *obs.Registry) (millionResult, error) {
	if scale < 1 {
		return millionResult{}, fmt.Errorf("scale %d: need at least one condition", scale)
	}
	vars := millionVarNames()

	// Baseline first: same shape, capped size, same traffic. Closed before
	// the full engine is built so the two never coexist in memory.
	base := scale
	if base > millionBaseline {
		base = millionBaseline
	}
	bng, _, err := millionEngine(base, vars, nil)
	if err != nil {
		return millionResult{}, err
	}
	baseNs, err := millionDrive(bng, vars, millionUpdates)
	if err != nil {
		return millionResult{}, err
	}
	if _, err := bng.Close(); err != nil {
		return millionResult{}, err
	}

	ng, regSec, err := millionEngine(scale, vars, reg)
	if err != nil {
		return millionResult{}, err
	}
	defer func() { _, _ = ng.Close() }()
	res := millionResult{
		Conditions:          scale,
		Vars:                millionVars,
		Workers:             ng.Workers(),
		Goroutines:          runtime.NumGoroutine(),
		RegisterPerSec:      float64(scale) / regSec,
		Updates:             millionUpdates,
		BaselineConditions:  base,
		BaselineNsPerUpdate: baseNs,
		ChurnOps:            2 * millionChurnOps,
	}
	res.NsPerUpdate, err = millionDrive(ng, vars, millionUpdates)
	if err != nil {
		return res, err
	}
	res.LatencyRatio = res.NsPerUpdate / baseNs

	res.ChurnOpsPerSec, err = millionChurn(ng, vars[0], millionChurnOps)
	if err != nil {
		return res, err
	}

	// One spike on the first variable crosses every threshold below
	// 1000+millionSpike that watches it; each crossing condition displays
	// exactly one alert (both replicas fire identically and AD-1 discards
	// the duplicate).
	before := ng.Demux().DisplayedCount()
	if _, err := ng.Emit(vars[0], 1000+float64(millionSpike)); err != nil {
		return res, err
	}
	if err := ng.Drain(); err != nil {
		return res, err
	}
	res.SpikeDisplayed = ng.Demux().DisplayedCount() - before
	if _, err := ng.Close(); err != nil {
		return res, err
	}
	return res, nil
}
