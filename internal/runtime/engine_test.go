package runtime

import (
	"errors"
	"fmt"
	gort "runtime"
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/link"
)

// engineFleet is the mixed registration for engine equivalence runs:
// threshold-index members, CSE-shared expression members, multi-variable
// pack members, and an unpackable straggler, with names spread across
// shards.
func engineFleet() []cond.Condition {
	return []cond.Condition{
		cond.Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true},
		cond.Threshold{CondName: "cold", Var: "x", Limit: 150, Above: false},
		cond.NewRiseAggressive("x"),
		cond.NewRiseConservative("x"),
		cond.MustParse("jump", "x[0] - x[-1] > 300 && consecutive(x)"),
		cond.MustParse("deep", "x[0] - x[-2] > 150"),
		cond.NewTempDiff("x", "y"),
		cond.GreaterThan{CondName: "A", X: "x", Y: "y"},
		cond.NewLemma6Condition("x", "y"),
		cond.Threshold{CondName: "wet", Var: "y", Limit: 400, Above: true},
	}
}

// runEngine drives one Engine over the fixed deterministic sawtooth
// stream of batch_test and returns the per-condition displayed sequences.
func runEngine(t *testing.T, noPacks bool, loss func(int, int, event.VarName) link.Model, batch int) map[string][]event.Alert {
	t.Helper()
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 4, Seed: 42, Loss: loss, NoPacks: noPacks})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	conds := engineFleet()
	for _, c := range conds {
		if _, err := ng.Register(c); err != nil {
			t.Fatalf("Register(%s): %v", c.Name(), err)
		}
	}
	const n = 400
	for _, v := range []event.VarName{"x", "y"} {
		values := make([]float64, n)
		for i := range values {
			phase := int(hashVar(v) % 37)
			values[i] = float64(((i + phase) * 13) % 1000)
		}
		if batch <= 1 {
			for _, val := range values {
				if _, err := ng.Emit(v, val); err != nil {
					t.Fatalf("Emit: %v", err)
				}
			}
			continue
		}
		for i := 0; i < len(values); i += batch {
			j := i + batch
			if j > len(values) {
				j = len(values)
			}
			if _, err := ng.EmitBatch(v, values[i:j]); err != nil {
				t.Fatalf("EmitBatch: %v", err)
			}
		}
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := make(map[string][]event.Alert, len(conds))
	for _, c := range conds {
		out[c.Name()] = ng.Demux().DisplayedFor(c.Name())
	}
	return out
}

// TestEngineEquivalence is the acceptance gate for shared evaluation at
// the system level: for every loss schedule, the per-condition displayed
// streams of pack evaluation must be byte-identical to the per-condition
// baseline (NoPacks), for both per-update and batched emission. Loss is
// modeled per (shard, lane, variable) link — one randomness draw per
// update per lane in both modes — so a fixed seed forces identical
// deliveries into the shared and private windows.
func TestEngineEquivalence(t *testing.T) {
	bern := func(p float64) link.Model {
		m, err := link.NewBernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	schedules := map[string]func(int, int, event.VarName) link.Model{
		"lossless": nil,
		"bernoulli": func(shard, replica int, v event.VarName) link.Model {
			return bern(0.2)
		},
		"burst": func(shard, replica int, v event.VarName) link.Model {
			m, err := link.NewBurst(0.1, 0.5, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"mixed": func(shard, replica int, v event.VarName) link.Model {
			if replica == 0 {
				return bern(0.3)
			}
			return nil
		},
	}
	for name, loss := range schedules {
		t.Run(name, func(t *testing.T) {
			want := runEngine(t, true, loss, 1)
			fired := 0
			for _, alerts := range want {
				fired += len(alerts)
			}
			if fired == 0 {
				t.Fatal("baseline displayed nothing; stream too tame")
			}
			compareDisplayed(t, "packs/per-update", want, runEngine(t, false, loss, 1))
			compareDisplayed(t, "packs/batch=64", want, runEngine(t, false, loss, 64))
			compareDisplayed(t, "nopacks/batch=64", want, runEngine(t, true, loss, 64))
		})
	}
}

// TestEngineFencing pins live unregistration's contract: the moment
// Unregister returns, the condition's displayed stream is final — later
// traffic that would fire it changes nothing — siblings keep firing, and
// a re-registered name starts a fresh filter under a new epoch.
func TestEngineFencing(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 2})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "hot", Var: "x", Limit: 100, Above: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "warm", Var: "x", Limit: 50, Above: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ng.EmitBatch("x", []float64{200, 300}); err != nil {
		t.Fatal(err)
	}
	if err := ng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(ng.Demux().DisplayedFor("hot")); got != 2 {
		t.Fatalf("hot displayed %d alerts before unregister, want 2", got)
	}
	if err := ng.Unregister("hot"); err != nil {
		t.Fatal(err)
	}
	base := len(ng.Demux().DisplayedFor("hot"))
	if _, err := ng.EmitBatch("x", []float64{400, 500}); err != nil {
		t.Fatal(err)
	}
	if err := ng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(ng.Demux().DisplayedFor("hot")); got != base {
		t.Fatalf("hot displayed %d alerts after unregister, want %d (stream final)", got, base)
	}
	if got := len(ng.Demux().DisplayedFor("warm")); got != 4 {
		t.Fatalf("warm displayed %d alerts, want 4 (sibling unaffected)", got)
	}
	// Re-registration: a fresh filter under a new epoch displays again.
	ep, err := ng.Register(cond.Threshold{CondName: "hot", Var: "x", Limit: 100, Above: true})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 3 {
		t.Fatalf("re-registration epoch = %d, want 3", ep)
	}
	if _, err := ng.Emit("x", 600); err != nil {
		t.Fatal(err)
	}
	if err := ng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(ng.Demux().DisplayedFor("hot")); got != base+1 {
		t.Fatalf("hot displayed %d alerts after re-registration, want %d", got, base+1)
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEngineRebalance pins the shard-move contract: Rebalance evens the
// occupancy (sorted names, round-robin), keeps epochs — so nothing is
// fenced by the move — and every moved condition resumes firing on the
// next update it sees at its destination.
func TestEngineRebalance(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	const nConds = 16
	for i := 0; i < nConds; i++ {
		c := cond.Threshold{CondName: fmt.Sprintf("c%02d", i), Var: "x", Limit: 0, Above: true}
		if _, err := ng.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := ng.Epoch()
	if _, err := ng.EmitBatch("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ng.Drain(); err != nil {
		t.Fatal(err)
	}
	moved, err := ng.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	occupancy := make(map[int]int)
	for i := 0; i < nConds; i++ {
		si, ok := ng.ShardOf(fmt.Sprintf("c%02d", i))
		if !ok {
			t.Fatalf("c%02d vanished during rebalance", i)
		}
		occupancy[si]++
	}
	for si := 0; si < ng.Workers(); si++ {
		if occupancy[si] != nConds/4 {
			t.Fatalf("shard %d holds %d conditions after rebalance, want %d (moved=%d)",
				si, occupancy[si], nConds/4, moved)
		}
	}
	if ng.Epoch() != epochBefore {
		t.Fatalf("Rebalance minted epochs: %d → %d", epochBefore, ng.Epoch())
	}
	if _, err := ng.EmitBatch("x", []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := ng.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nConds; i++ {
		name := fmt.Sprintf("c%02d", i)
		// 4 firing updates, AD-1 displays each distinct key once.
		if got := len(ng.Demux().DisplayedFor(name)); got != 4 {
			t.Fatalf("%s displayed %d alerts across the move, want 4", name, got)
		}
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEngineGoroutineBound verifies the engine runs to completion on its
// callers' goroutines: it starts none of its own — not per condition, not
// per shard — and leaves none behind after Close.
func TestEngineGoroutineBound(t *testing.T) {
	before := gort.NumGoroutine()
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < 200; i++ {
		c := cond.Threshold{CondName: fmt.Sprintf("g%03d", i), Var: "x", Limit: 500, Above: true}
		if _, err := ng.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	during := gort.NumGoroutine()
	if extra := during - before; extra > 2 { // slack only
		t.Errorf("engine spawned %d goroutines for 200 conditions on 4 workers, want ≤ 2 (slack)", extra)
	}
	if _, err := ng.EmitBatch("x", []float64{600, 601, 602}); err != nil {
		t.Fatal(err)
	}
	displayed, err := ng.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := 200 * 3; len(displayed) != want {
		t.Errorf("displayed %d alerts, want %d", len(displayed), want)
	}
	// Goroutines of earlier tests may still be exiting, so the count is
	// given a moment to settle; it must never stay above before.
	after := gort.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = gort.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines after Close, %d before NewEngine", after, before)
	}
}

// TestEngineClosedSentinel pins the after-Close contract for every
// mutating entry point: a wrapped ErrClosed, detectable with errors.Is.
func TestEngineClosedSentinel(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 1, Workers: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "hot", Var: "x", Limit: 0, Above: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ng.Emit("x", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Emit after Close = %v, want ErrClosed", err)
	}
	if _, err := ng.EmitBatch("x", []float64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("EmitBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "late", Var: "x", Limit: 0, Above: true}); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close = %v, want ErrClosed", err)
	}
	if err := ng.Unregister("hot"); !errors.Is(err, ErrClosed) {
		t.Errorf("Unregister after Close = %v, want ErrClosed", err)
	}
	if _, err := ng.Rebalance(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebalance after Close = %v, want ErrClosed", err)
	}
	if err := ng.Drain(); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close = %v, want ErrClosed", err)
	}
	// Idempotent Close.
	if _, err := ng.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestEngineRegisterValidation covers the registry's rejection paths:
// duplicate live names and unregistering a name that is not live.
func TestEngineRegisterValidation(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 1, Workers: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer ng.Close()
	if _, err := ng.Register(cond.Threshold{CondName: "dup", Var: "x", Limit: 0, Above: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "dup", Var: "x", Limit: 1, Above: true}); err == nil {
		t.Error("duplicate live name accepted")
	}
	if err := ng.Unregister("ghost"); err == nil {
		t.Error("Unregister of unknown name succeeded")
	}
	if ng.Conditions() != 1 {
		t.Errorf("Conditions() = %d, want 1", ng.Conditions())
	}
}
