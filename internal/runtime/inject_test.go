package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
)

// injectStream is the deterministic test stream shared by the inject
// equivalence tests.
func injectStream(v event.VarName, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		phase := int(hashVar(v) % 37)
		out[i] = float64(((i + phase) * 13) % 1000)
	}
	return out
}

// TestMultiSystemInjectMatchesEmit pins the ingest-plane contract: a
// stream fed through Inject/InjectBatch with externally assigned sequence
// numbers displays exactly what the same stream fed through Emit/EmitBatch
// does — Inject is Emit minus the sequence assignment.
func TestMultiSystemInjectMatchesEmit(t *testing.T) {
	const n = 300
	newSys := func() *MultiSystem {
		sys, err := NewMulti(equivConds(), func(c cond.Condition) ad.Filter {
			return ad.NewAD1()
		}, MultiOptions{Replicas: 2, Seed: 7})
		if err != nil {
			t.Fatalf("NewMulti: %v", err)
		}
		return sys
	}
	vars := []event.VarName{"x", "y"}

	base := newSys()
	for _, v := range vars {
		if _, err := base.EmitBatch(v, injectStream(v, n)); err != nil {
			t.Fatalf("EmitBatch: %v", err)
		}
	}
	if _, err := base.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := map[string][]event.Alert{}
	for _, c := range equivConds() {
		want[c.Name()] = base.Demux().DisplayedFor(c.Name())
	}

	inj := newSys()
	for _, v := range vars {
		values := injectStream(v, n)
		seq := int64(0)
		// Mixed single/batched injection with a reused buffer: the first
		// update goes through Inject, the rest in runs of 7 through
		// InjectBatch, mutating the buffer after each call to prove the run
		// was copied before crossing the shard channels.
		buf := make([]event.Update, 0, 7)
		seq++
		if err := inj.Inject(event.U(v, seq, values[0])); err != nil {
			t.Fatalf("Inject: %v", err)
		}
		for i := 1; i < len(values); i += 7 {
			j := i + 7
			if j > len(values) {
				j = len(values)
			}
			buf = buf[:0]
			for _, val := range values[i:j] {
				seq++
				buf = append(buf, event.U(v, seq, val))
			}
			if err := inj.InjectBatch(v, buf); err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for k := range buf {
				buf[k] = event.U("poison", -1, -1) // pooled-buffer reuse
			}
		}
	}
	if _, err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := map[string][]event.Alert{}
	for _, c := range equivConds() {
		got[c.Name()] = inj.Demux().DisplayedFor(c.Name())
	}
	compareDisplayed(t, "inject", want, got)
}

// TestMultiSystemInjectSeqInterplay checks the counter contract: Emit
// after Inject continues past the injected horizon instead of reusing
// sequence numbers.
func TestMultiSystemInjectSeqInterplay(t *testing.T) {
	sys, err := NewMulti(equivConds(), func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, MultiOptions{Replicas: 1})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	defer sys.Close()
	if err := sys.InjectBatch("x", []event.Update{event.U("x", 5, 1), event.U("x", 9, 2)}); err != nil {
		t.Fatalf("InjectBatch: %v", err)
	}
	seq, err := sys.Emit("x", 3)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	if seq != 10 {
		t.Fatalf("Emit after Inject(seq 9) assigned %d, want 10", seq)
	}
}

// TestMultiSystemInjectErrors covers the failure paths: unknown variable,
// and wrapped ErrClosed after Close.
func TestMultiSystemInjectErrors(t *testing.T) {
	sys, err := NewMulti(equivConds(), func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, MultiOptions{Replicas: 1})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if err := sys.Inject(event.U("nope", 1, 1)); err == nil {
		t.Fatal("Inject(unknown var): no error")
	}
	if err := sys.InjectBatch("nope", []event.Update{event.U("nope", 1, 1)}); err == nil {
		t.Fatal("InjectBatch(unknown var): no error")
	}
	if err := sys.InjectBatch("x", nil); err != nil {
		t.Fatalf("InjectBatch(empty): %v", err)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sys.Inject(event.U("x", 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Inject after Close: %v, want ErrClosed", err)
	}
	if err := sys.InjectBatch("x", []event.Update{event.U("x", 1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("InjectBatch after Close: %v, want ErrClosed", err)
	}
}

// TestEngineInjectMatchesEmit is the Engine-side twin: injected external
// sequence numbers display exactly what EmitBatch does.
func TestEngineInjectMatchesEmit(t *testing.T) {
	const n = 300
	newEng := func() *Engine {
		ng, err := NewEngine(func(c cond.Condition) ad.Filter {
			return ad.NewAD1()
		}, EngineOptions{Replicas: 2, Workers: 2, Seed: 7})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, c := range equivConds() {
			if _, err := ng.Register(c); err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
		return ng
	}
	vars := []event.VarName{"x", "y"}

	base := newEng()
	for _, v := range vars {
		if _, err := base.EmitBatch(v, injectStream(v, n)); err != nil {
			t.Fatalf("EmitBatch: %v", err)
		}
	}
	if _, err := base.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := map[string][]event.Alert{}
	for _, c := range equivConds() {
		want[c.Name()] = base.Demux().DisplayedFor(c.Name())
	}

	inj := newEng()
	for _, v := range vars {
		values := injectStream(v, n)
		buf := make([]event.Update, 0, 9)
		seq := int64(0)
		for i := 0; i < len(values); i += 9 {
			j := i + 9
			if j > len(values) {
				j = len(values)
			}
			buf = buf[:0]
			for _, val := range values[i:j] {
				seq++
				buf = append(buf, event.U(v, seq, val))
			}
			if err := inj.InjectBatch(v, buf); err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for k := range buf {
				buf[k] = event.U("poison", -1, -1)
			}
		}
	}
	if _, err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := map[string][]event.Alert{}
	for _, c := range equivConds() {
		got[c.Name()] = inj.Demux().DisplayedFor(c.Name())
	}
	compareDisplayed(t, "engine-inject", want, got)

	ng := newEng()
	if err := ng.Inject(event.U("nope", 1, 1)); err == nil {
		t.Fatal("Engine.Inject(unknown var): no error")
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ng.Inject(event.U("x", 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Engine.Inject after Close: %v, want ErrClosed", err)
	}
}

// newInjectEngine builds the two-shard, two-replica AD-1 engine of the
// synchronous-contract tests with the equivalence fleet registered.
func newInjectEngine(t *testing.T) *Engine {
	t.Helper()
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, c := range equivConds() {
		if _, err := ng.Register(c); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	return ng
}

// TestEngineInjectBatchSynchronous pins run-to-completion: when
// InjectBatch returns, the run's alerts are already displayed — no Drain —
// and the caller's buffer, overwritten between calls, was never read
// afterwards. Both engines run to completion, so the displayed count after
// each call must match an EmitBatch run of the same chunks step by step,
// and each condition's stream must match it at the end.
func TestEngineInjectBatchSynchronous(t *testing.T) {
	const n, chunk = 300, 9
	vars := []event.VarName{"x", "y"}

	base := newInjectEngine(t)
	var counts []int
	for _, v := range vars {
		values := injectStream(v, n)
		for i := 0; i < n; i += chunk {
			if _, err := base.EmitBatch(v, values[i:min(i+chunk, n)]); err != nil {
				t.Fatalf("EmitBatch: %v", err)
			}
			counts = append(counts, base.Demux().DisplayedCount())
		}
	}
	if _, err := base.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	inj := newInjectEngine(t)
	buf := make([]event.Update, 0, chunk)
	step, grew := 0, 0
	for _, v := range vars {
		values := injectStream(v, n)
		for i := 0; i < n; i += chunk {
			buf = buf[:0]
			for k, val := range values[i:min(i+chunk, n)] {
				buf = append(buf, event.U(v, int64(i+k+1), val))
			}
			before := inj.Demux().DisplayedCount()
			if err := inj.InjectBatch(v, buf); err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			got := inj.Demux().DisplayedCount()
			if got != counts[step] {
				t.Fatalf("step %d: %d alerts displayed when InjectBatch returned, want %d", step, got, counts[step])
			}
			if got > before {
				grew++
			}
			for k := range buf {
				buf[k] = event.U("poison", -1, -1)
			}
			step++
		}
	}
	if grew == 0 {
		t.Fatal("no InjectBatch displayed anything; stream too tame")
	}
	if _, err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want, got := map[string][]event.Alert{}, map[string][]event.Alert{}
	for _, c := range equivConds() {
		want[c.Name()] = base.Demux().DisplayedFor(c.Name())
		got[c.Name()] = inj.Demux().DisplayedFor(c.Name())
	}
	compareDisplayed(t, "inject-sync", want, got)
}

// TestEngineInjectBatchAllocs pins the steady-state cost of the ingest
// entry point: a run that fires nothing is evaluated on every lane of
// every subscribed shard without a heap allocation.
func TestEngineInjectBatchAllocs(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer ng.Close()
	for i := 0; i < 8; i++ {
		if _, err := ng.Register(cond.Threshold{CondName: fmt.Sprintf("t%d", i), Var: "x", Limit: 1e9 + float64(i), Above: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ng.Register(cond.MustParse("rise", "x[0] - x[-1] > 1000000000")); err != nil {
		t.Fatal(err)
	}
	buf := make([]event.Update, 32)
	seq := int64(0)
	inject := func() {
		for i := range buf {
			seq++
			buf[i] = event.U("x", seq, float64(seq%1000))
		}
		if err := ng.InjectBatch("x", buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		inject() // warm the windows and the scratch buffers
	}
	if avg := testing.AllocsPerRun(200, inject); avg != 0 {
		t.Fatalf("non-firing InjectBatch allocates %.2f times per run, want 0", avg)
	}
	if got := ng.Demux().DisplayedCount(); got != 0 {
		t.Fatalf("displayed %d alerts, want 0 (nothing may fire)", got)
	}
}

// TestEngineConcurrentInjectChurn is the run-to-completion race and
// deadlock gate: four injectors, one variable each, evaluate on shared
// shards while a fifth goroutine loops Register, VisitLanes, Rebalance and
// Unregister. A lock-order deadlock fails the test at the timeout instead
// of hanging it. The never-churned conditions read one variable each, so
// their lossless AD-1 streams must equal a sequential replay.
func TestEngineConcurrentInjectChurn(t *testing.T) {
	const (
		injectors = 4
		batches   = 200
		batchLen  = 16
		n         = batches * batchLen
	)
	vars := make([]event.VarName, injectors)
	var steady []cond.Condition
	for i := range vars {
		v := event.VarName(fmt.Sprintf("v%d", i))
		vars[i] = v
		// Steady names sort before every churned name ("z-…"), so once the
		// set has been rebalanced no later Rebalance moves one of them.
		steady = append(steady,
			cond.Threshold{CondName: fmt.Sprintf("a-hot-%s", v), Var: v, Limit: 700, Above: true},
			cond.Threshold{CondName: fmt.Sprintf("a-cold-%s", v), Var: v, Limit: 150, Above: false},
			cond.MustParse(fmt.Sprintf("a-jump-%s", v), fmt.Sprintf("%s[0] - %s[-1] > 300 && consecutive(%s)", v, v, v)),
			cond.MustParse(fmt.Sprintf("a-deep-%s", v), fmt.Sprintf("%s[0] - %s[-2] > 150", v, v)),
		)
	}
	newEng := func() *Engine {
		ng, err := NewEngine(func(c cond.Condition) ad.Filter {
			return ad.NewAD1()
		}, EngineOptions{Replicas: 2, Workers: 4, Seed: 3})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, c := range steady {
			if _, err := ng.Register(c); err != nil {
				t.Fatalf("Register(%s): %v", c.Name(), err)
			}
		}
		if _, err := ng.Rebalance(); err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
		return ng
	}
	injectAll := func(ng *Engine, v event.VarName) error {
		values := injectStream(v, n)
		buf := make([]event.Update, 0, batchLen)
		for i := 0; i < n; i += batchLen {
			buf = buf[:0]
			for k, val := range values[i : i+batchLen] {
				buf = append(buf, event.U(v, int64(i+k+1), val))
			}
			if err := ng.InjectBatch(v, buf); err != nil {
				return err
			}
		}
		return nil
	}

	ref := newEng()
	for _, v := range vars {
		if err := injectAll(ref, v); err != nil {
			t.Fatalf("InjectBatch: %v", err)
		}
	}
	if _, err := ref.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ng := newEng()
	lanes := ng.Workers() * 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		var inj sync.WaitGroup
		for _, v := range vars {
			inj.Add(1)
			go func(v event.VarName) {
				defer inj.Done()
				if err := injectAll(ng, v); err != nil {
					t.Errorf("InjectBatch(%s): %v", v, err)
				}
			}(v)
		}
		stop := make(chan struct{})
		churned := make(chan int)
		go func() {
			i := 0
			defer func() { churned <- i }()
			for ; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("z-churn-%d", i)
				var c cond.Condition = cond.Threshold{CondName: name, Var: vars[i%injectors], Limit: float64((i * 37) % 1000), Above: true}
				if i%3 == 0 {
					c = cond.GreaterThan{CondName: name, X: vars[i%injectors], Y: vars[(i+1)%injectors]}
				}
				if _, err := ng.Register(c); err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				visited := 0
				if err := ng.VisitLanes(func(_, _ int, se *ce.SharedEvaluator) error {
					visited++
					return nil
				}); err != nil || visited != lanes {
					t.Errorf("VisitLanes: visited %d lanes (err %v), want %d", visited, err, lanes)
					return
				}
				if i%4 == 1 {
					if _, err := ng.Rebalance(); err != nil {
						t.Errorf("Rebalance: %v", err)
						return
					}
				}
				if err := ng.Unregister(name); err != nil {
					t.Errorf("Unregister(%s): %v", name, err)
					return
				}
			}
		}()
		inj.Wait()
		close(stop)
		i := <-churned
		t.Logf("%d churn cycles while the injectors ran", i)
		if i == 0 {
			t.Error("the churner finished no cycle while the injectors ran")
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("injectors and churner still running after 2m: lock-order deadlock")
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want, got := map[string][]event.Alert{}, map[string][]event.Alert{}
	fired := 0
	for _, c := range steady {
		want[c.Name()] = ref.Demux().DisplayedFor(c.Name())
		got[c.Name()] = ng.Demux().DisplayedFor(c.Name())
		fired += len(want[c.Name()])
	}
	if fired == 0 {
		t.Fatal("reference displayed nothing; stream too tame")
	}
	compareDisplayed(t, "concurrent-inject", want, got)
}
