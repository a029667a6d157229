package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	gort "runtime"
	"testing"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/link"
)

// equivConds is a small mixed fleet for end-to-end equivalence runs: every
// evaluation strategy, one- and two-variable conditions, and names spread
// across shards.
func equivConds() []cond.Condition {
	return []cond.Condition{
		cond.Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true},
		cond.NewRiseAggressive("x"),
		cond.NewTempDiff("x", "y"),
		cond.MustParse("jump", "x[0] - x[-1] > 300 && consecutive(x)"),
		cond.GreaterThan{CondName: "A", X: "x", Y: "y"},
	}
}

// The runMulti deployment: replicas per condition, and the seed of its
// front links.
const (
	equivReplicas = 2
	equivSeed     = 42
)

// runMode selects how runMulti hands updates to the shards.
type runMode struct {
	// batch is the fixed EmitBatch run length; <=1 means per-update Emit.
	batch int
	// interleaved alternates x and y runs of the batch length (x1 y1 x2 y2 …
	// per update) instead of emitting every x before any y, so the
	// two-variable conditions see both windows move.
	interleaved bool
}

// reading is one value runMulti published, in publication order.
type reading struct {
	v     event.VarName
	value float64
}

// runMulti drives one MultiSystem over a fixed deterministic stream in the
// given mode and returns the per-condition displayed sequences, plus the
// readings in the order they were emitted.
func runMulti(t *testing.T, loss func(string, int, event.VarName) link.Model, mode runMode) (map[string][]event.Alert, []reading) {
	t.Helper()
	conds := equivConds()
	sys, err := NewMulti(conds, func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, MultiOptions{Replicas: equivReplicas, Seed: equivSeed, Loss: loss})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	const n = 400
	vars := []event.VarName{"x", "y"}
	values := map[event.VarName][]float64{}
	for _, v := range vars {
		values[v] = injectStream(v, n)
	}
	run := max(mode.batch, 1)
	var sent []reading
	emit := func(v event.VarName, i int) {
		vals := values[v][i:min(i+run, n)]
		var err error
		if mode.batch <= 1 {
			_, err = sys.Emit(v, vals[0])
		} else {
			_, err = sys.EmitBatch(v, vals)
		}
		if err != nil {
			t.Fatalf("emit %s: %v", v, err)
		}
		for _, val := range vals {
			sent = append(sent, reading{v, val})
		}
	}
	if mode.interleaved {
		for i := 0; i < n; i += run {
			for _, v := range vars {
				emit(v, i)
			}
		}
	} else {
		for _, v := range vars {
			for i := 0; i < n; i += run {
				emit(v, i)
			}
		}
	}
	if _, err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := make(map[string][]event.Alert, len(conds))
	for _, c := range conds {
		out[c.Name()] = sys.Demux().DisplayedFor(c.Name())
	}
	return out, sent
}

// referenceDisplayed is the equivalence oracle: a replay of sent that
// shares no pipeline code with MultiSystem. Per condition it builds one
// fresh evaluator per replica behind one link per variable, seeded as
// NewMulti seeds it (a lossless link draws nothing), feeds every update to
// the replicas in index order, and passes the alerts through a fresh AD-1.
func referenceDisplayed(t *testing.T, conds []cond.Condition, loss func(string, int, event.VarName) link.Model, seed int64, sent []reading) map[string][]event.Alert {
	t.Helper()
	type refLink struct {
		model link.Model
		rng   *rand.Rand
	}
	out := make(map[string][]event.Alert, len(conds))
	for _, c := range conds {
		evals := make([]*ce.Evaluator, equivReplicas)
		links := make([]map[event.VarName]refLink, equivReplicas)
		for i := range evals {
			ev, err := ce.New(fmt.Sprintf("%s/CE%d", c.Name(), i+1), c)
			if err != nil {
				t.Fatalf("ce.New: %v", err)
			}
			evals[i] = ev
			links[i] = make(map[event.VarName]refLink)
			for _, v := range c.Vars() {
				var m link.Model = link.None{}
				if loss != nil {
					if lm := loss(c.Name(), i, v); lm != nil {
						m = lm
					}
				}
				links[i][v] = refLink{m, rand.New(rand.NewSource(
					seed ^ int64(i+1)<<20 ^ hashVar(v) ^ hashVar(event.VarName(c.Name()))))}
			}
		}
		f := ad.NewAD1()
		var shown []event.Alert
		seq := map[event.VarName]int64{}
		for _, r := range sent {
			seq[r.v]++
			u := event.U(r.v, seq[r.v], r.value)
			for i, ev := range evals {
				l, ok := links[i][u.Var]
				if !ok {
					continue
				}
				if _, lossless := l.model.(link.None); !lossless && !l.model.Deliver(u, l.rng) {
					continue
				}
				a, fired, err := ev.Feed(u)
				if err != nil {
					t.Fatalf("reference %s: %v", ev.ID(), err)
				}
				if fired && ad.Offer(f, a) {
					shown = append(shown, a)
				}
			}
		}
		out[c.Name()] = shown
	}
	return out
}

// diffDisplayed describes the first difference between want and got per
// condition — alerts, values or order — or returns "" when they match.
func diffDisplayed(want, got map[string][]event.Alert) string {
	for condName, wantAlerts := range want {
		gotAlerts := got[condName]
		if len(gotAlerts) != len(wantAlerts) {
			return fmt.Sprintf("cond=%q: displayed %d alerts, want %d",
				condName, len(gotAlerts), len(wantAlerts))
		}
		for i := range wantAlerts {
			w, g := wantAlerts[i], gotAlerts[i]
			if w.Key() != g.Key() || !w.Histories.Equal(g.Histories) {
				return fmt.Sprintf("cond=%q alert %d: got %v, want %v", condName, i, g, w)
			}
		}
	}
	return ""
}

// compareDisplayed asserts got matches want per condition: same alerts, same
// values, same order.
func compareDisplayed(t *testing.T, label string, want, got map[string][]event.Alert) {
	t.Helper()
	if d := diffDisplayed(want, got); d != "" {
		t.Fatalf("%s %s", label, d)
	}
}

// checkAgainstReference runs the system in mode and asserts it displays
// exactly what the reference replay of its emitted readings displays.
func checkAgainstReference(t *testing.T, loss func(string, int, event.VarName) link.Model, mode runMode) {
	t.Helper()
	got, sent := runMulti(t, loss, mode)
	want := referenceDisplayed(t, equivConds(), loss, equivSeed, sent)
	order := "sequential"
	if mode.interleaved {
		order = "interleaved"
	}
	compareDisplayed(t, fmt.Sprintf("%s/batch=%d", order, mode.batch), want, got)
}

// TestMultiSystemBatchEquivalence is the acceptance gate for the batched
// pipeline: for every loss schedule, emission order and batch size, the
// per-condition displayed alert sequences (values, seqnos, order) must be
// byte-identical to the reference replay of the emitted stream. The loss
// models consume per-link randomness one draw per update on every path, so
// a fixed seed forces identical loss schedules.
func TestMultiSystemBatchEquivalence(t *testing.T) {
	bern := func(p float64) link.Model {
		m, err := link.NewBernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	burst := func() link.Model {
		m, err := link.NewBurst(0.1, 0.5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	schedules := map[string]func(string, int, event.VarName) link.Model{
		"lossless": nil,
		"bernoulli": func(condName string, replica int, v event.VarName) link.Model {
			return bern(0.2)
		},
		"burst": func(condName string, replica int, v event.VarName) link.Model {
			return burst()
		},
		"mixed": func(condName string, replica int, v event.VarName) link.Model {
			if replica == 0 {
				return bern(0.3)
			}
			return nil
		},
	}
	for name, loss := range schedules {
		t.Run(name, func(t *testing.T) {
			for _, interleaved := range []bool{false, true} {
				for _, batch := range []int{1, 2, 7, 64, 400} {
					checkAgainstReference(t, loss, runMode{batch: batch, interleaved: interleaved})
				}
			}
			if name != "bernoulli" {
				return
			}
			// The negative control: links drawing from another seed must
			// display something else, or the comparisons above would pass
			// whatever the loss schedule was.
			got, sent := runMulti(t, loss, runMode{batch: 1})
			if diffDisplayed(referenceDisplayed(t, equivConds(), loss, equivSeed+1, sent), got) == "" {
				t.Fatal("reference seeded with seed+1 matches the system; the oracle cannot see loss")
			}
		})
	}
}

// TestMultiSystemMuxEquivalence is the focused race-checked CI gate for the
// multiplexed back link: under a lossy schedule, the coalesced fan-in must
// display exactly what the reference replay displays, per condition and in
// order, for both emission orders.
func TestMultiSystemMuxEquivalence(t *testing.T) {
	loss := func(condName string, replica int, v event.VarName) link.Model {
		m, err := link.NewBernoulli(0.25)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, interleaved := range []bool{false, true} {
		checkAgainstReference(t, loss, runMode{batch: 1, interleaved: interleaved})
		checkAgainstReference(t, loss, runMode{batch: 64, interleaved: interleaved})
	}
}

// TestMultiSystemGoroutineBound verifies the tentpole claim: the system's
// goroutine count is O(workers), not O(conditions × replicas × variables).
func TestMultiSystemGoroutineBound(t *testing.T) {
	before := gort.NumGoroutine()
	conds := make([]cond.Condition, 200)
	for i := range conds {
		conds[i] = cond.Threshold{
			CondName: fmt.Sprintf("c%03d", i),
			Var:      "x",
			Limit:    500,
			Above:    true,
		}
	}
	sys, err := NewMulti(conds, func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, MultiOptions{Replicas: 2, Workers: 4})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if sys.Workers() != 4 {
		t.Errorf("Workers() = %d, want 4", sys.Workers())
	}
	during := gort.NumGoroutine()
	if extra := during - before; extra > 4+2 { // pool + slack for runtime helpers
		t.Errorf("system spawned %d goroutines for 200 conditions, want ≤ workers(4)+2", extra)
	}
	if _, err := sys.EmitBatch("x", []float64{600, 601, 602}); err != nil {
		t.Fatalf("EmitBatch: %v", err)
	}
	displayed, err := sys.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every condition fires on each of the 3 above-limit updates; AD-1
	// displays each distinct (cond, histories) once.
	if want := 200 * 3; len(displayed) != want {
		t.Errorf("displayed %d alerts, want %d", len(displayed), want)
	}
}

// TestMultiSystemClosedSentinel pins the Emit/EmitBatch-after-Close
// contract: a wrapped ErrClosed, detectable with errors.Is.
func TestMultiSystemClosedSentinel(t *testing.T) {
	sys, _, _ := newTestMulti(t, MultiOptions{Replicas: 1})
	if _, err := sys.EmitBatch("x", []float64{1, 2}); err != nil {
		t.Fatalf("EmitBatch before Close: %v", err)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sys.Emit("x", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Emit after Close = %v, want ErrClosed", err)
	}
	if _, err := sys.EmitBatch("x", []float64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("EmitBatch after Close = %v, want ErrClosed", err)
	}
}

// TestSystemClosedSentinel does the same for the single-condition System.
func TestSystemClosedSentinel(t *testing.T) {
	sys, err := New(cond.Threshold{CondName: "hot", Var: "x", Limit: 0, Above: true},
		ad.NewAD1(), Options{Replicas: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sys.Close()
	if _, err := sys.Emit("x", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Emit after Close = %v, want ErrClosed", err)
	}
	if _, err := sys.EmitBatch("x", []float64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("EmitBatch after Close = %v, want ErrClosed", err)
	}
}

// TestMultiSystemEmitBatchEmpty pins the zero-length contract: a no-op that
// returns the current sequence counter.
func TestMultiSystemEmitBatchEmpty(t *testing.T) {
	sys, _, _ := newTestMulti(t, MultiOptions{Replicas: 1})
	if seq, err := sys.EmitBatch("x", nil); err != nil || seq != 0 {
		t.Errorf("empty EmitBatch = (%d, %v), want (0, nil)", seq, err)
	}
	if _, err := sys.Emit("x", 5); err != nil {
		t.Fatalf("Emit: %v", err)
	}
	if seq, err := sys.EmitBatch("x", nil); err != nil || seq != 1 {
		t.Errorf("empty EmitBatch after one Emit = (%d, %v), want (1, nil)", seq, err)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
