package ce

import (
	"maps"
	"math/rand"
	"testing"

	"condmon/internal/cond"
	"condmon/internal/event"
)

// sharedFleet is a mixed registration: threshold-index members, CSE-shared
// expression members, multi-variable pack members, and an unpackable
// straggler.
func sharedFleet() []cond.Condition {
	return []cond.Condition{
		cond.Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true},
		cond.Threshold{CondName: "cold", Var: "x", Limit: 150, Above: false},
		cond.NewRiseAggressive("x"),
		cond.NewRiseConservative("x"),
		cond.MustParse("jump", "x[0] - x[-1] > 300 && consecutive(x)"),
		cond.MustParse("deep", "x[0] - x[-2] > 150"),
		cond.NewTempDiff("x", "y"),
		cond.GreaterThan{CondName: "A", X: "x", Y: "y"},
		cond.NewLemma6Condition("x", "y"), // unpackable: straggler path
		cond.Threshold{CondName: "wet", Var: "y", Limit: 400, Above: true},
	}
}

// gappyStream builds a deterministic interleaved x/y stream with seqno
// gaps, the shape a lossy front link delivers.
func gappyStream(n int, seed int64) []event.Update {
	rng := rand.New(rand.NewSource(seed))
	seqs := map[event.VarName]int64{}
	out := make([]event.Update, 0, n)
	for i := 0; i < n; i++ {
		v := event.VarName("x")
		if rng.Intn(3) == 0 {
			v = "y"
		}
		seqs[v] += int64(1 + rng.Intn(3))
		out = append(out, event.U(v, seqs[v], float64(rng.Intn(1000))))
	}
	return out
}

// runShared feeds the stream to a fresh SharedEvaluator over the fleet and
// returns the per-condition alert sequences.
func runShared(t *testing.T, noPacks bool, stream []event.Update) map[string][]event.Alert {
	t.Helper()
	se, err := NewSharedEvaluator("CE1", noPacks)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sharedFleet() {
		if _, err := se.Register(c, 1); err != nil {
			t.Fatalf("Register(%s): %v", c.Name(), err)
		}
	}
	out := make(map[string][]event.Alert)
	var buf []MemberAlert
	for _, u := range stream {
		buf, err = se.Feed(u, buf[:0])
		if err != nil {
			t.Fatalf("Feed(%v): %v", u, err)
		}
		for _, ma := range buf {
			out[ma.Alert.Cond] = append(out[ma.Alert.Cond], ma.Alert)
		}
	}
	return out
}

// TestSharedEvaluatorEquivalence is the package-level acceptance gate for
// shared evaluation: per condition, the pack-evaluated alert stream must
// be byte-identical (keys, histories, order) to the per-condition
// baseline, over a gappy interleaved stream.
func TestSharedEvaluatorEquivalence(t *testing.T) {
	stream := gappyStream(600, 17)
	want := runShared(t, true, stream)
	got := runShared(t, false, stream)
	if len(want) == 0 {
		t.Fatal("baseline displayed nothing; stream too tame")
	}
	for name, wa := range want {
		ga := got[name]
		if len(ga) != len(wa) {
			t.Fatalf("cond %q: %d alerts packed vs %d baseline", name, len(ga), len(wa))
		}
		for i := range wa {
			if wa[i].Key() != ga[i].Key() || !wa[i].Histories.Equal(ga[i].Histories) {
				t.Fatalf("cond %q alert %d: packed %v, baseline %v", name, i, ga[i], wa[i])
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("packed mode fired unknown condition %q", name)
		}
	}
}

// TestSharedEvaluatorGrouping pins the structural claim: the fleet
// collapses into per-variable-set packs with exactly one straggler.
func TestSharedEvaluatorGrouping(t *testing.T) {
	se, err := NewSharedEvaluator("CE1", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sharedFleet() {
		if _, err := se.Register(c, 1); err != nil {
			t.Fatal(err)
		}
	}
	if se.Packs() != 3 { // {x}, {x,y}, {y}
		t.Errorf("Packs() = %d, want 3", se.Packs())
	}
	if se.PackMembers() != 9 {
		t.Errorf("PackMembers() = %d, want 9", se.PackMembers())
	}
	if se.Stragglers() != 1 {
		t.Errorf("Stragglers() = %d, want 1", se.Stragglers())
	}
	if se.Windows().Len() != 2 {
		t.Errorf("shared windows track %d variables, want 2", se.Windows().Len())
	}
	// deep (degree 3) dominates the x window's size.
	if d := se.Windows().Window("x").Degree(); d != 3 {
		t.Errorf("shared x window degree = %d, want 3", d)
	}
}

// TestSharedEvaluatorUnregister checks immediate removal: an unregistered
// condition stops firing, siblings keep firing, a second Unregister is a
// no-op, and a pack whose last member goes leaves the lane while its
// windows stay.
func TestSharedEvaluatorUnregister(t *testing.T) {
	se, err := NewSharedEvaluator("CE1", false)
	if err != nil {
		t.Fatal(err)
	}
	refHot, err := se.Register(cond.Threshold{CondName: "hot", Var: "x", Limit: 100, Above: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	refWarm, err := se.Register(cond.Threshold{CondName: "warm", Var: "x", Limit: 50, Above: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	refL6, err := se.Register(cond.NewLemma6Condition("x", "y"), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := se.Feed(event.U("x", 1, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2 {
		t.Fatalf("before unregister: %d alerts, want 2", len(buf))
	}
	se.Unregister(refHot)
	se.Unregister(refHot)
	se.Unregister(refL6)
	se.Unregister(Ref{})
	if se.PackMembers() != 1 || se.Stragglers() != 0 {
		t.Fatalf("after unregister: members=%d stragglers=%d", se.PackMembers(), se.Stragglers())
	}
	buf, err = se.Feed(event.U("x", 2, 600), buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1 || buf[0].Alert.Cond != "warm" {
		t.Fatalf("after unregister: alerts %v, want just warm", buf)
	}
	if se.Packs() != 1 {
		t.Fatalf("Packs() = %d with one member left, want 1", se.Packs())
	}
	se.Unregister(refWarm)
	if se.Packs() != 0 || len(se.Lane("x").packs) != 0 || se.PackMembers() != 0 {
		t.Fatalf("emptied pack stays: Packs() = %d, %d on x, members=%d", se.Packs(), len(se.Lane("x").packs), se.PackMembers())
	}
	if se.Windows().Window("x") == nil {
		t.Fatal("emptied pack took its window with it")
	}
	buf, err = se.Feed(event.U("x", 3, 700), buf[:0])
	if err != nil || len(buf) != 0 {
		t.Fatalf("after last unregister: alerts %v, err %v; want none", buf, err)
	}
	// Re-registering the variable set opens a fresh pack on the warm window.
	if _, err := se.Register(cond.Threshold{CondName: "back", Var: "x", Limit: 50, Above: true}, 2); err != nil {
		t.Fatal(err)
	}
	buf, err = se.Feed(event.U("x", 4, 800), buf[:0])
	if err != nil || se.Packs() != 1 || len(buf) != 1 || buf[0].Alert.Cond != "back" {
		t.Fatalf("after re-register: Packs() = %d, alerts %v, err %v; want 1 pack and back", se.Packs(), buf, err)
	}
}

// TestSharedEvaluatorLaneHandle holds x's record across every change
// Register and Unregister make to it — the first pack created, a second
// pack reading x, the first pack emptied, a straggler joining and leaving —
// and across Crash plus RestoreSharedWindows, feeding x's updates through
// the held record between steps. After each step every live condition's
// alerts must equal those of its own per-condition Evaluator fed the same
// updates. Every condition is of degree 1, so a pack member joining warm
// shared windows and an oracle warmed from them see the same histories.
func TestSharedEvaluatorLaneHandle(t *testing.T) {
	se, err := NewSharedEvaluator("CE1", false)
	if err != nil {
		t.Fatal(err)
	}
	type live struct {
		ref    Ref
		ev     *Evaluator
		packed bool
	}
	regs := map[string]*live{}
	register := func(c cond.Condition) {
		t.Helper()
		ref, err := se.Register(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := New("CE1", c)
		if err != nil {
			t.Fatal(err)
		}
		packed := ref.ps != nil
		if packed {
			for _, v := range c.Vars() {
				if w := se.Windows().Window(v); w != nil {
					recent := w.Live().Recent
					for i := len(recent) - 1; i >= 0; i-- {
						ev.Absorb(recent[i])
					}
				}
			}
		}
		regs[c.Name()] = &live{ref: ref, ev: ev, packed: packed}
	}
	unregister := func(name string) {
		se.Unregister(regs[name].ref)
		delete(regs, name)
	}
	above := func(name string, limit float64) cond.Condition {
		return cond.Func{CondName: name, VarDegrees: map[event.VarName]int{"x": 1}, Fn: func(h event.HistorySet) bool {
			return h["x"].Latest().Value > limit
		}}
	}

	// A straggler reading x makes the record exist before any pack does.
	register(above("odd", 500))
	vl := se.Lane("x")
	if vl == nil {
		t.Fatal("no record for x after a straggler registered on it")
	}
	stream := gappyStream(1400, 23)
	var buf []MemberAlert
	feed := func(step string) {
		t.Helper()
		fired := 0
		for _, u := range stream[:200] {
			if u.Var == "x" {
				buf, err = se.FeedLane(vl, u, buf[:0])
			} else {
				buf, err = se.Feed(u, buf[:0])
			}
			if err != nil {
				t.Fatalf("%s: Feed(%v): %v", step, u, err)
			}
			got := map[string]string{}
			for _, ma := range buf {
				got[ma.Alert.Cond] = ma.Alert.Key()
			}
			want := map[string]string{}
			for name, l := range regs {
				a, ok, err := l.ev.Feed(u)
				if err != nil {
					t.Fatalf("%s: oracle %s: %v", step, name, err)
				}
				if ok {
					want[name] = a.Key()
				}
			}
			if len(got) != len(buf) || !maps.Equal(got, want) {
				t.Fatalf("%s: update %v: alerts %v, want %v", step, u, got, want)
			}
			fired += len(buf)
		}
		if fired == 0 {
			t.Fatalf("%s: nothing fired; stream too tame", step)
		}
		if se.Lane("x") != vl {
			t.Fatalf("%s: x's record was replaced", step)
		}
		stream = stream[200:]
	}
	feed("straggler only")

	register(cond.Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true})
	feed("first pack created")

	register(cond.GreaterThan{CondName: "A", X: "x", Y: "y"})
	feed("second pack created")

	unregister("hot")
	if se.Packs() != 1 {
		t.Fatalf("Packs() = %d after the first pack emptied, want 1", se.Packs())
	}
	feed("first pack left")

	register(above("even", 200))
	feed("straggler joined")
	unregister("even")
	feed("straggler left")

	states := se.SharedWindowStates()
	se.Crash()
	if err := se.RestoreSharedWindows(states); err != nil {
		t.Fatal(err)
	}
	for _, l := range regs {
		snap := l.ev.WindowStates()
		l.ev.Crash()
		if l.packed {
			if err := l.ev.RestoreWindows(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed("crash and restore")
}

// TestSharedEvaluatorWarmStart documents live registration's semantics: a
// member joining mid-traffic evaluates against the lane's already-warm
// windows and can fire on the very next update.
func TestSharedEvaluatorWarmStart(t *testing.T) {
	se, err := NewSharedEvaluator("CE1", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Register(cond.NewRiseAggressive("x"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Feed(event.U("x", 1, 100), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Feed(event.U("x", 2, 150), nil); err != nil {
		t.Fatal(err)
	}
	// A late-joining degree-2 member sees the warm window.
	if _, err := se.Register(cond.MustParse("late", "x[0] - x[-1] > 100"), 2); err != nil {
		t.Fatal(err)
	}
	buf, err := se.Feed(event.U("x", 3, 400), nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]uint64{}
	for _, ma := range buf {
		names[ma.Alert.Cond] = ma.Token
	}
	if names["late"] != 2 {
		t.Fatalf("late member did not fire with its token on first post-registration update: %v", buf)
	}
	if names["c2"] != 1 {
		t.Fatalf("c2 should fire (rise 250 > 200): %v", buf)
	}
}

// TestSharedEvaluatorTokens: alerts carry the member's registration token,
// the engine's fencing epoch.
func TestSharedEvaluatorTokens(t *testing.T) {
	se, _ := NewSharedEvaluator("CE2", false)
	if _, err := se.Register(cond.Threshold{CondName: "a", Var: "x", Limit: 0, Above: true}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Register(cond.NewLemma6Condition("x", "y"), 9); err != nil {
		t.Fatal(err)
	}
	buf, err := se.Feed(event.U("x", 1, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1 || buf[0].Token != 7 || buf[0].Alert.Source != "CE2" {
		t.Fatalf("alert = %+v, want token 7 source CE2", buf)
	}
}

// TestSnapshotHistories pins the per-member view of shared windows that a
// fired pack member's alert embeds: each history is the prefix a private
// window of the member's own degree would hold, clamped to what the window
// has, and an independent copy — all of them carved from one allocation
// without one being able to grow into the next.
func TestSnapshotHistories(t *testing.T) {
	shared, _ := event.NewWindow("x", 3)
	private, _ := event.NewWindow("x", 2)
	for i := int64(1); i <= 5; i++ {
		u := event.U("x", i, float64(i*10))
		shared.Push(u)
		private.Push(u)
	}
	short, _ := event.NewWindow("y", 5)
	short.Push(event.U("y", 1, 1))
	slots := []winSlot{{v: "x", w: shared}, {v: "y", w: short}}

	got := snapshotHistories(nil, slots, []int{2, 3})
	if len(got) != 2 || got[0].Var != "x" || got[1].Var != "y" {
		t.Fatalf("snapshot = %v", got)
	}
	want := private.History()
	if len(got[0].Recent) != len(want.Recent) {
		t.Fatalf("prefix length %d, want %d", len(got[0].Recent), len(want.Recent))
	}
	for i := range want.Recent {
		if got[0].Recent[i] != want.Recent[i] {
			t.Fatalf("prefix[%d] = %v, want %v", i, got[0].Recent[i], want.Recent[i])
		}
	}
	// Clamped when the window holds fewer than the degree asked for.
	if len(got[1].Recent) != 1 {
		t.Errorf("prefix of short window has %d entries, want 1", len(got[1].Recent))
	}
	// Without degrees, every window whole.
	if all := snapshotHistories(nil, slots, nil); len(all[0].Recent) != 3 || len(all[1].Recent) != 1 {
		t.Errorf("untruncated snapshot = %v", all)
	}
	// Snapshot independence: later pushes must not show through, and
	// appending to one history must not write into its neighbour.
	before, neighbour := got[0].Recent[0].SeqNo, got[1].Recent[0]
	shared.Push(event.U("x", 6, 60))
	_ = append(got[0].Recent, event.U("x", 99, 0))
	if got[0].Recent[0].SeqNo != before {
		t.Error("snapshot aliases window storage")
	}
	if got[1].Recent[0] != neighbour {
		t.Error("appending to one history overwrote the next")
	}
}
