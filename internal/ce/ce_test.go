package ce

import (
	"testing"

	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/seq"
)

func feedAll(t *testing.T, e *Evaluator, updates []event.Update) []event.Alert {
	t.Helper()
	var out []event.Alert
	for _, u := range updates {
		a, fired, err := e.Feed(u)
		if err != nil {
			t.Fatalf("Feed(%v): %v", u, err)
		}
		if fired {
			out = append(out, a)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", cond.NewOverheat("x")); err == nil {
		t.Error("New with empty id should fail")
	}
	bad := cond.Func{CondName: "novars", VarDegrees: map[event.VarName]int{}}
	if _, err := New("CE1", bad); err == nil {
		t.Error("New with an empty variable set should fail")
	}
}

func TestPaperExample1CE1(t *testing.T) {
	// Example 1: U = ⟨1x(2900), 2x(3100), 3x(3200)⟩ under c1; CE1 receives
	// all: A1 = ⟨a1, a2⟩ with a1.H = ⟨2x⟩ and a2.H = ⟨3x⟩.
	alerts, err := T(cond.NewOverheat("x"), []event.Update{
		event.U("x", 1, 2900), event.U("x", 2, 3100), event.U("x", 3, 3200),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 2 {
		t.Fatalf("T(U1) produced %d alerts, want 2", len(alerts))
	}
	if got := alerts[0].MustSeqNo("x"); got != 2 {
		t.Errorf("a1 triggered on %d, want 2", got)
	}
	if got := alerts[1].MustSeqNo("x"); got != 3 {
		t.Errorf("a2 triggered on %d, want 3", got)
	}
}

func TestPaperExample1CE2(t *testing.T) {
	// CE2 misses 2x: U2 = ⟨1x, 3x⟩ → single alert with H = ⟨3x⟩.
	alerts, err := T(cond.NewOverheat("x"), []event.Update{
		event.U("x", 1, 2900), event.U("x", 3, 3200),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 1 {
		t.Fatalf("T(U2) produced %d alerts, want 1", len(alerts))
	}
	if got := alerts[0].MustSeqNo("x"); got != 3 {
		t.Errorf("a3 triggered on %d, want 3", got)
	}
}

func TestHistoricalWindowWarmup(t *testing.T) {
	// A degree-2 condition cannot fire on the first update: H is undefined
	// until the CE has received N x-updates.
	alerts, err := T(cond.NewRiseAggressive("x"), []event.Update{
		event.U("x", 1, 0),
		event.U("x", 2, 300), // rise of 300 but only now is the window full
		event.U("x", 3, 301),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 1 || alerts[0].MustSeqNo("x") != 2 {
		t.Errorf("alerts = %v, want exactly one alert at 2x", alerts)
	}
}

func TestConservativeVsAggressiveAcrossGap(t *testing.T) {
	// Theorem 4's scenario: U2 = ⟨1(400), 3(720)⟩. c2 (aggressive) fires on
	// 3x; c3 (conservative) must not.
	stream := []event.Update{event.U("x", 1, 400), event.U("x", 3, 720)}

	aggr, err := T(cond.NewRiseAggressive("x"), stream)
	if err != nil {
		t.Fatalf("T(c2): %v", err)
	}
	if len(aggr) != 1 || aggr[0].MustSeqNo("x") != 3 {
		t.Errorf("c2 alerts = %v, want one alert at 3x", aggr)
	}

	cons, err := T(cond.NewRiseConservative("x"), stream)
	if err != nil {
		t.Fatalf("T(c3): %v", err)
	}
	if len(cons) != 0 {
		t.Errorf("c3 alerts = %v, want none across the gap", cons)
	}
}

func TestAlertCarriesHistories(t *testing.T) {
	alerts, err := T(cond.NewRiseAggressive("x"), []event.Update{
		event.U("x", 1, 400), event.U("x", 3, 720),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 1 {
		t.Fatalf("want one alert, got %d", len(alerts))
	}
	h := alerts[0].Histories["x"]
	if got := h.SeqNosAscending(); !got.Equal(seq.Seq{1, 3}) {
		t.Errorf("alert history = %v, want ⟨1,3⟩", got)
	}
	if alerts[0].Source != "T" || alerts[0].Cond != "c2" {
		t.Errorf("alert metadata = %q/%q", alerts[0].Source, alerts[0].Cond)
	}
}

func TestMultiVariableEvaluation(t *testing.T) {
	// Theorem 10's CE1: U1 = ⟨1x,2x,1y,2y⟩ under cm → one alert a(2x,1y).
	cm := cond.NewTempDiff("x", "y")
	alerts, err := T(cm, []event.Update{
		event.U("x", 1, 1000), event.U("x", 2, 1200),
		event.U("y", 1, 1050), event.U("y", 2, 1150),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 1 {
		t.Fatalf("CE1 produced %d alerts, want 1: %v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.MustSeqNo("x") != 2 || a.MustSeqNo("y") != 1 {
		t.Errorf("alert = %v, want a(2x,1y)", a)
	}

	// CE2 sees the other interleaving: U2 = ⟨1y,2y,1x,2x⟩ → a(1x,2y).
	alerts, err = T(cm, []event.Update{
		event.U("y", 1, 1050), event.U("y", 2, 1150),
		event.U("x", 1, 1000), event.U("x", 2, 1200),
	})
	if err != nil {
		t.Fatalf("T: %v", err)
	}
	if len(alerts) != 1 || alerts[0].MustSeqNo("x") != 1 || alerts[0].MustSeqNo("y") != 2 {
		t.Errorf("CE2 alerts = %v, want a(1x,2y)", alerts)
	}
}

func TestDownMissesUpdates(t *testing.T) {
	e, err := New("CE1", cond.NewOverheat("x"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.SetDown(true)
	if _, fired, err := e.Feed(event.U("x", 1, 3200)); err != nil || fired {
		t.Errorf("down evaluator must miss updates (fired=%v, err=%v)", fired, err)
	}
	e.SetDown(false)
	if _, fired, err := e.Feed(event.U("x", 2, 3200)); err != nil || !fired {
		t.Errorf("revived evaluator should fire (fired=%v, err=%v)", fired, err)
	}
	_, _, missed := e.Stats()
	if missed != 1 {
		t.Errorf("missedDown = %d, want 1", missed)
	}
}

func TestCrashLosesHistory(t *testing.T) {
	e, err := New("CE1", cond.NewRiseAggressive("x"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	feedAll(t, e, []event.Update{event.U("x", 1, 0), event.U("x", 2, 100)})
	e.Crash()
	// After the crash the window is empty; a big rise right after restart
	// cannot fire until the window refills.
	_, fired, err := e.Feed(event.U("x", 3, 1000))
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if fired {
		t.Error("evaluator must not fire with an under-filled window after Crash")
	}
	_, fired, err = e.Feed(event.U("x", 4, 2000))
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if !fired {
		t.Error("evaluator should fire once the window refills after Crash")
	}
}

func TestDiscardsIrrelevantAndOutOfOrder(t *testing.T) {
	e, err := New("CE1", cond.NewOverheat("x"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, fired, err := e.Feed(event.U("y", 1, 9999)); err != nil || fired {
		t.Errorf("update for foreign variable should be discarded (fired=%v, err=%v)", fired, err)
	}
	feedAll(t, e, []event.Update{event.U("x", 5, 2000)})
	if _, fired, err := e.Feed(event.U("x", 4, 9999)); err != nil || fired {
		t.Errorf("out-of-order update should be discarded (fired=%v, err=%v)", fired, err)
	}
	if _, fired, err := e.Feed(event.U("x", 5, 9999)); err != nil || fired {
		t.Errorf("duplicate update should be discarded (fired=%v, err=%v)", fired, err)
	}
	fed, discarded, _ := e.Stats()
	if fed != 1 || discarded != 3 {
		t.Errorf("stats fed=%d discarded=%d, want 1 and 3", fed, discarded)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	c := cond.NewOverheat("x")
	e, err := New("CE7", c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.ID() != "CE7" {
		t.Errorf("ID = %q", e.ID())
	}
	if e.Condition().Name() != "c1" {
		t.Errorf("Condition = %q", e.Condition().Name())
	}
	if e.Down() {
		t.Error("fresh evaluator should be up")
	}
}

func TestAlertHistoriesAreSnapshots(t *testing.T) {
	// The histories embedded in an alert must not change as the evaluator
	// keeps running.
	e, err := New("CE1", cond.NewOverheat("x"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a1, fired, err := e.Feed(event.U("x", 1, 3100))
	if err != nil || !fired {
		t.Fatalf("first feed: fired=%v err=%v", fired, err)
	}
	if _, _, err := e.Feed(event.U("x", 2, 3300)); err != nil {
		t.Fatalf("second feed: %v", err)
	}
	if got := a1.MustSeqNo("x"); got != 1 {
		t.Errorf("first alert mutated: seqno now %d, want 1", got)
	}
}

// A condition may list its variables in any order; the alert's identity
// must not depend on it (the evaluator keeps its windows sorted so that the
// one-pass constructor applies, and the key is the canonical one either
// way).
func TestAlertIdentityIgnoresVariableOrder(t *testing.T) {
	stream := []event.Update{
		event.U("y", 1, 10), event.U("x", 1, 50), event.U("y", 2, 90), event.U("x", 3, 95),
	}
	for _, c := range []cond.Condition{
		cond.GreaterThan{CondName: "g", X: "x", Y: "y"},
		cond.GreaterThan{CondName: "g", X: "y", Y: "x"},
	} {
		alerts, err := T(c, stream)
		if err != nil || len(alerts) == 0 {
			t.Fatalf("%v: %d alerts, err %v", c.Vars(), len(alerts), err)
		}
		for _, a := range alerts {
			want := event.NewAlert(a.Cond, a.Histories.Clone(), a.Source)
			if a.Key() != want.Key() {
				t.Errorf("%v: key %q, want %q", c.Vars(), a.Key(), want.Key())
			}
			if len(a.Histories) != 2 {
				t.Errorf("%v: alert covers %d variables, want 2", c.Vars(), len(a.Histories))
			}
		}
	}
}
