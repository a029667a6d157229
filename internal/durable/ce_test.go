package durable

import (
	"fmt"
	"path/filepath"
	"testing"

	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/obs"
)

// ceStream builds a lossy update sequence for v: seqnos 1..n with every
// update where seq%7 == 3 dropped, values a sawtooth that crosses the test
// conditions' limits often enough to fire alerts on both sides of any
// crash point.
func ceStream(v string, n int) []event.Update {
	var us []event.Update
	for seq := int64(1); seq <= int64(n); seq++ {
		if seq%7 == 3 {
			continue
		}
		us = append(us, event.U(event.VarName(v), seq, float64((seq*137)%1000)))
	}
	return us
}

func alertKeys(as []event.Alert) []string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key()
	}
	return keys
}

func TestEvaluatorJournalKillRestartEquivalence(t *testing.T) {
	mkCond := func() cond.Condition { return cond.MustParse("deep", "x[0] - x[-2] > 150") }
	stream := ceStream("x", 60)
	for _, compactEvery := range []int{0, 5} {
		t.Run(fmt.Sprintf("compact=%d", compactEvery), func(t *testing.T) {
			base, err := ce.New("CE1", mkCond())
			if err != nil {
				t.Fatal(err)
			}
			var want []event.Alert
			for _, u := range stream {
				if a, fired, err := base.Feed(u); err != nil {
					t.Fatal(err)
				} else if fired {
					want = append(want, a)
				}
			}
			if len(want) == 0 {
				t.Fatal("baseline fired no alerts; the stream is too tame to prove anything")
			}

			path := filepath.Join(t.TempDir(), "ce.wal")
			l := openT(t, path, Options{})
			eval, err := ce.New("CE1", mkCond())
			if err != nil {
				t.Fatal(err)
			}
			eval.SetJournal(EvaluatorJournal(l, eval, compactEvery))
			crashAt := len(stream) / 2
			var got []event.Alert
			for _, u := range stream[:crashAt] {
				if a, fired, err := eval.Feed(u); err != nil {
					t.Fatal(err)
				} else if fired {
					got = append(got, a)
				}
			}
			// Kill: abandon evaluator and log handle, restart from disk.
			l2 := openT(t, path, Options{})
			eval2, err := ce.New("CE1", mkCond())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RecoverEvaluator(l2, eval2); err != nil {
				t.Fatalf("RecoverEvaluator: %v", err)
			}
			eval2.SetJournal(EvaluatorJournal(l2, eval2, compactEvery))
			for _, u := range stream[crashAt:] {
				if a, fired, err := eval2.Feed(u); err != nil {
					t.Fatal(err)
				} else if fired {
					got = append(got, a)
				}
			}
			l2.Close()

			wk, gk := alertKeys(want), alertKeys(got)
			if len(wk) != len(gk) {
				t.Fatalf("crash run fired %d alerts, baseline %d", len(gk), len(wk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Fatalf("alert %d: crash run %s, baseline %s", i, gk[i], wk[i])
				}
			}
		})
	}
}

// laneFleet mixes packable conditions (which share windows) with an
// unpackable straggler, so LaneState checkpoints cover both halves.
func laneFleet() []cond.Condition {
	return []cond.Condition{
		cond.Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true},
		cond.MustParse("deep", "x[0] - x[-2] > 150"),
		cond.NewTempDiff("x", "y"),
		cond.NewLemma6Condition("x", "y"),
	}
}

// laneStream interleaves x and y updates so a mid-stream crash leaves both
// variables' windows partially filled.
func laneStream(n int) []event.Update {
	var us []event.Update
	for seq := int64(1); seq <= int64(n); seq++ {
		if seq%7 != 3 {
			us = append(us, event.U("x", seq, float64((seq*137)%1000)))
		}
		if seq%5 != 2 {
			us = append(us, event.U("y", seq, float64((seq*211)%1000)))
		}
	}
	return us
}

func feedLane(t *testing.T, se *ce.SharedEvaluator, us []event.Update) []ce.MemberAlert {
	t.Helper()
	var out []ce.MemberAlert
	for _, u := range us {
		ms, err := se.Feed(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	return out
}

func newLane(t *testing.T, journal func(event.Update) error) *ce.SharedEvaluator {
	t.Helper()
	se, err := ce.NewSharedEvaluator("CE1", false)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range laneFleet() {
		if _, err := se.Register(c, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if journal != nil {
		se.SetJournal(journal)
	}
	return se
}

func compareMemberAlerts(t *testing.T, got, want []ce.MemberAlert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("crash run fired %d member alerts, baseline %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Token != want[i].Token || got[i].Alert.Key() != want[i].Alert.Key() {
			t.Fatalf("member alert %d: crash run (token %d, %s), baseline (token %d, %s)",
				i, got[i].Token, got[i].Alert.Key(), want[i].Token, want[i].Alert.Key())
		}
	}
}

func TestLaneJournalKillRestartEquivalence(t *testing.T) {
	stream := laneStream(60)
	for _, compactEvery := range []int{0, 16} {
		t.Run(fmt.Sprintf("compact=%d", compactEvery), func(t *testing.T) {
			base := newLane(t, nil)
			want := feedLane(t, base, stream)
			if len(want) == 0 {
				t.Fatal("baseline fired no member alerts")
			}

			path := filepath.Join(t.TempDir(), "lane.wal")
			l := openT(t, path, Options{})
			se := newLane(t, nil)
			se.SetJournal(LaneJournal(l, se, compactEvery))
			crashAt := len(stream) / 2
			got := feedLane(t, se, stream[:crashAt])

			// Fresh-process restart: new lane, same registrations, state
			// rebuilt from the log alone.
			l2 := openT(t, path, Options{})
			se2 := newLane(t, nil)
			if _, err := RecoverLane(l2, se2); err != nil {
				t.Fatalf("RecoverLane: %v", err)
			}
			se2.SetJournal(LaneJournal(l2, se2, compactEvery))
			got = append(got, feedLane(t, se2, stream[crashAt:])...)
			l2.Close()

			compareMemberAlerts(t, got, want)
		})
	}
}

// TestLaneCrashRecoverInPlace exercises the in-place recovery path the
// engine's visit hook uses: the same lane object is crashed (windows
// cleared) and refilled from its own journal without re-registration.
func TestLaneCrashRecoverInPlace(t *testing.T) {
	stream := laneStream(60)
	base := newLane(t, nil)
	want := feedLane(t, base, stream)

	path := filepath.Join(t.TempDir(), "lane.wal")
	l := openT(t, path, Options{})
	defer l.Close()
	se := newLane(t, nil)
	se.SetJournal(LaneJournal(l, se, 16))
	crashAt := len(stream) / 2
	got := feedLane(t, se, stream[:crashAt])

	se.Crash()
	if _, err := RecoverLane(l, se); err != nil {
		t.Fatalf("RecoverLane in place: %v", err)
	}
	got = append(got, feedLane(t, se, stream[crashAt:])...)
	compareMemberAlerts(t, got, want)
}

// TestLaneCrashWithoutRecoveryDiverges is the negative control: losing the
// windows without replaying the journal must change the displayed stream,
// otherwise the equivalence tests above prove nothing.
func TestLaneCrashWithoutRecoveryDiverges(t *testing.T) {
	stream := laneStream(60)
	base := newLane(t, nil)
	want := feedLane(t, base, stream)

	se := newLane(t, nil)
	crashAt := len(stream) / 2
	got := feedLane(t, se, stream[:crashAt])
	se.Crash()
	got = append(got, feedLane(t, se, stream[crashAt:])...)

	if len(got) == len(want) {
		same := true
		for i := range want {
			if got[i].Token != want[i].Token || got[i].Alert.Key() != want[i].Alert.Key() {
				same = false
				break
			}
		}
		if same {
			t.Fatal("unrecovered crash produced the baseline stream; crash points are not observable")
		}
	}
}

func TestRestoreWindowValidation(t *testing.T) {
	eval, err := ce.New("CE1", cond.MustParse("deep", "x[0] - x[-2] > 150"))
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.RestoreWindows([]event.History{hist("nope", [2]int64{1, 1})}); err == nil {
		t.Fatal("RestoreWindows accepted a window for an unknown variable")
	}
	// Non-strictly-decreasing seqnos violate the most-recent-first layout.
	if err := eval.RestoreWindows([]event.History{hist("x", [2]int64{2, 1}, [2]int64{2, 1})}); err == nil {
		t.Fatal("RestoreWindows accepted non-decreasing seqnos")
	}
	if err := eval.RestoreWindows([]event.History{
		hist("x", [2]int64{9, 1}, [2]int64{8, 2}, [2]int64{7, 3}, [2]int64{6, 4}),
	}); err == nil {
		t.Fatal("RestoreWindows accepted a window deeper than its degree")
	}
	if err := eval.RestoreWindows([]event.History{hist("x", [2]int64{9, 1}, [2]int64{7, 2})}); err != nil {
		t.Fatalf("RestoreWindows rejected a valid window: %v", err)
	}
}

// TestEvaluatorJournalCadenceAndErrors pins the CE side of the shared
// checkpoint policy — window state is O(1), so the journal still compacts
// every compactEvery updates — and that a journal failure is counted in
// durable.wal.errors as well as failing the Feed that carried the update.
func TestEvaluatorJournalCadenceAndErrors(t *testing.T) {
	const compactEvery = 5
	m := RegisterMetrics(obs.NewRegistry(), "")
	l := openT(t, filepath.Join(t.TempDir(), "ce.wal"), Options{Metrics: m})
	eval, err := ce.New("CE1", cond.MustParse("deep", "x[0] - x[-2] > 150"))
	if err != nil {
		t.Fatal(err)
	}
	eval.SetJournal(EvaluatorJournal(l, eval, compactEvery))
	stream := ceStream("x", 60)
	for _, u := range stream {
		if _, _, err := eval.Feed(u); err != nil {
			t.Fatal(err)
		}
	}
	// The check runs before the append, so the first compaction comes with
	// update compactEvery+1 and one follows every compactEvery after it.
	if got, want := m.Compactions.Value(), int64((len(stream)-1)/compactEvery); got != want {
		t.Fatalf("%d compactions over %d updates, want %d", got, len(stream), want)
	}
	if got := m.Errors.Value(); got != 0 {
		t.Fatalf("durable.wal.errors = %d on a healthy journal", got)
	}
	l.f.Close() // every later write fails
	if _, _, err := eval.Feed(event.U("x", 1000, 1)); err == nil {
		t.Fatal("Feed succeeded though its journal append failed")
	}
	if got := m.Errors.Value(); got != 1 {
		t.Fatalf("durable.wal.errors = %d, want 1", got)
	}
}
