package cond

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"condmon/internal/event"
)

// packBaseline is the per-condition oracle: a private window per variable
// at the condition's own degree, evaluated only once all windows are full
// — exactly the gating a dedicated ce.Evaluator applies.
type packBaseline struct {
	c    Condition
	wins map[event.VarName]*event.Window
}

func newPackBaseline(t *testing.T, c Condition) *packBaseline {
	t.Helper()
	b := &packBaseline{c: c, wins: make(map[event.VarName]*event.Window)}
	for _, v := range c.Vars() {
		w, err := event.NewWindow(v, c.Degree(v))
		if err != nil {
			t.Fatal(err)
		}
		b.wins[v] = w
	}
	return b
}

// feed pushes the update (if relevant) and reports whether the condition
// fired, mirroring one evaluator step.
func (b *packBaseline) feed(t *testing.T, u event.Update) bool {
	t.Helper()
	fired, err := b.step(u)
	if err != nil {
		t.Fatalf("baseline %s: %v", b.c.Name(), err)
	}
	return fired
}

// step is feed with the evaluation error returned rather than fatal.
func (b *packBaseline) step(u event.Update) (bool, error) {
	w, ok := b.wins[u.Var]
	if !ok {
		return false, nil
	}
	w.TryPush(u)
	hs := make(event.HistorySet, len(b.wins))
	for v, win := range b.wins {
		if !win.Full() {
			return false, nil
		}
		hs[v] = win.History()
	}
	return b.c.Eval(hs)
}

// firedNames maps a sorted fired-id slice to member names.
func firedNames(p *Pack, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = p.MemberName(id)
	}
	return out
}

// TestPackThresholdIndexDifferential drives a churning threshold
// population (above and below, random limits, removals crossing the
// tombstone-compaction threshold, additions crossing the pending-merge
// threshold) and checks every update's fired set against brute-force
// per-condition evaluation.
func TestPackThresholdIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPack("x")
	type member struct {
		id  int32
		c   Threshold
		out bool
	}
	var members []member
	add := func() {
		c := Threshold{
			CondName: fmt.Sprintf("t%04d", len(members)),
			Var:      "x",
			Limit:    float64(rng.Intn(2000)) - 1000,
			Above:    rng.Intn(2) == 0,
		}
		id, ok := p.Add(c)
		if !ok {
			t.Fatalf("Add(%v) rejected", c)
		}
		members = append(members, member{id: id, c: c})
	}
	for i := 0; i < 2500; i++ {
		add()
	}
	w, _ := event.NewWindow("x", 1)
	seq := int64(0)
	check := func() {
		seq++
		val := float64(rng.Intn(2200)) - 1100
		w.TryPush(event.U("x", seq, val))
		fired, err := p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool, len(fired))
		for _, id := range fired {
			got[p.MemberName(id)] = true
		}
		want := 0
		for _, m := range members {
			if m.out {
				continue
			}
			fires := val > m.c.Limit
			if !m.c.Above {
				fires = val < m.c.Limit
			}
			if fires {
				want++
			}
			if fires != got[m.c.CondName] {
				t.Fatalf("seq %d val %g: member %s fired=%v, want %v",
					seq, val, m.c.CondName, got[m.c.CondName], fires)
			}
		}
		if len(got) != want {
			t.Fatalf("seq %d: %d distinct fired members, want %d", seq, len(got), want)
		}
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			check()
		}
		// Churn: remove a third of the live members, add a fresh batch.
		for i := range members {
			if !members[i].out && rng.Intn(3) == 0 {
				p.Remove(members[i].id)
				members[i].out = true
			}
		}
		for i := 0; i < 400; i++ {
			add()
		}
	}
	if p.Len() == 0 {
		t.Fatal("no live members left; churn schedule broken")
	}
}

// TestPackMixedDifferential runs a single-variable pack holding every
// packable built-in plus parsed expressions against per-condition
// baselines over a lossy-looking (gappy) update stream.
func TestPackMixedDifferential(t *testing.T) {
	conds := []Condition{
		Threshold{CondName: "hot", Var: "x", Limit: 700, Above: true},
		Threshold{CondName: "cold", Var: "x", Limit: 120, Above: false},
		NewRiseAggressive("x"),
		NewRiseConservative("x"),
		Drop{CondName: "dip", Var: "x", Frac: 0.3},
		Drop{CondName: "dipc", Var: "x", Frac: 0.3, Consecutive: true},
		MustParse("jump", "x[0] - x[-1] > 300 && consecutive(x)"),
		MustParse("deep", "x[0] - x[-2] > 100"),
		MustParse("thr", "x[0] > 500"),           // threshold-shaped: joins the x[0] subject
		MustParse("rthr", "250 > x[0]"),          // reversed threshold shape
		MustParse("ge", "x[0] >= 900"),           // inclusive: stays an expr member
		MustParse("risey", "x[0] - x[-1] > 200"), // joins c2's subject
	}
	p := NewPack("x")
	baselines := make(map[string]*packBaseline, len(conds))
	for _, c := range conds {
		if _, ok := p.Add(c); !ok {
			t.Fatalf("Add(%s) rejected", c.Name())
		}
		baselines[c.Name()] = newPackBaseline(t, c)
	}
	maxDeg := p.Degree("x")
	if maxDeg != 3 {
		t.Fatalf("pack Degree(x) = %d, want 3 (from deep)", maxDeg)
	}
	w, _ := event.NewWindow("x", maxDeg)
	rng := rand.New(rand.NewSource(11))
	seq := int64(0)
	for i := 0; i < 500; i++ {
		seq += int64(1 + rng.Intn(3)) // gaps exercise consecutive() members
		u := event.U("x", seq, float64(rng.Intn(1000)))
		w.TryPush(u)
		want := make(map[string]bool, len(conds))
		for name, b := range baselines {
			want[name] = b.feed(t, u)
		}
		fired, err := p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool, len(fired))
		for _, id := range fired {
			got[p.MemberName(id)] = true
		}
		for name, wantFired := range want {
			if got[name] != wantFired {
				t.Fatalf("update %v: member %s fired=%v, want %v", u, name, got[name], wantFired)
			}
		}
		if len(got) > len(want) {
			t.Fatalf("update %v: unknown members fired: %v", u, got)
		}
	}
}

// TestPackMultiVarDifferential covers two-variable packs: the synthesized
// built-in ASTs (AbsDiff, GreaterThan) and a parsed expression share one
// pack keyed by the {x,y} variable set.
func TestPackMultiVarDifferential(t *testing.T) {
	conds := []Condition{
		NewTempDiff("x", "y"),
		GreaterThan{CondName: "A", X: "x", Y: "y"},
		GreaterThan{CondName: "B", X: "y", Y: "x"},
		MustParse("gap", "abs(x[0] - y[0]) > 100 || x[0] > 950"),
	}
	p := NewPack("x", "y")
	baselines := make(map[string]*packBaseline, len(conds))
	for _, c := range conds {
		if _, ok := p.Add(c); !ok {
			t.Fatalf("Add(%s) rejected", c.Name())
		}
		baselines[c.Name()] = newPackBaseline(t, c)
	}
	wx, _ := event.NewWindow("x", 1)
	wy, _ := event.NewWindow("y", 1)
	rng := rand.New(rand.NewSource(13))
	seqs := map[event.VarName]int64{}
	for i := 0; i < 400; i++ {
		v := event.VarName("x")
		if rng.Intn(2) == 0 {
			v = "y"
		}
		seqs[v]++
		u := event.U(v, seqs[v], float64(rng.Intn(1000)))
		if v == "x" {
			wx.TryPush(u)
		} else {
			wy.TryPush(u)
		}
		want := make(map[string]bool, len(conds))
		for name, b := range baselines {
			want[name] = b.feed(t, u)
		}
		if !wx.Full() || !wy.Full() {
			continue
		}
		hs := event.HistorySet{"x": wx.History(), "y": wy.History()}
		fired, err := p.EvalAppend(hs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool, len(fired))
		for _, id := range fired {
			got[p.MemberName(id)] = true
		}
		for name, wantFired := range want {
			if got[name] != wantFired {
				t.Fatalf("update %v: member %s fired=%v, want %v", u, name, got[name], wantFired)
			}
		}
	}
}

// TestPackCSEInterning pins the sharing: a built-in Rise and the same
// comparison parsed from text file under one subject, whose code the
// intern table holds once, and an expression member over the same
// subtraction reuses that code.
func TestPackCSEInterning(t *testing.T) {
	p := NewPack("x")
	if _, ok := p.Add(NewRiseAggressive("x")); !ok {
		t.Fatal("Add(Rise) rejected")
	}
	if len(p.subjects) != 1 || len(p.exprIDs) != 0 {
		t.Fatalf("Rise: %d subjects, %d expression members; want 1 and 0", len(p.subjects), len(p.exprIDs))
	}
	if len(p.intern) != 1 { // (x[0] - x[-1]); the comparison is the index's
		t.Fatalf("intern table has %d entries after first member, want 1", len(p.intern))
	}
	if _, ok := p.Add(MustParse("same", "x[0] - x[-1] > 200")); !ok {
		t.Fatal("Add(parsed) rejected")
	}
	if len(p.subjects) != 1 || p.subjects[0].liveN != 2 || len(p.intern) != 1 {
		t.Fatalf("identical member: %d subjects (first holds %d), %d intern entries; want 1 (2), 1",
			len(p.subjects), p.subjects[0].liveN, len(p.intern))
	}
	// The reversed operand order files under the same subject too.
	if _, ok := p.Add(MustParse("flip", "150 < x[0] - x[-1]")); !ok {
		t.Fatal("Add(reversed) rejected")
	}
	if len(p.subjects) != 1 || p.subjects[0].liveN != 3 {
		t.Fatalf("reversed member opened a subject of its own: %d subjects", len(p.subjects))
	}
	// A conservative variant is an expression member: it shares the
	// subtraction and adds the comparison and the conjunction.
	if _, ok := p.Add(NewRiseConservative("x")); !ok {
		t.Fatal("Add(conservative Rise) rejected")
	}
	if len(p.subjects) != 1 || len(p.exprIDs) != 1 {
		t.Fatalf("conservative Rise: %d subjects, %d expression members; want 1 and 1", len(p.subjects), len(p.exprIDs))
	}
	if len(p.intern) != 3 { // > and &&; consecutive(x) is a leaf
		t.Fatalf("intern table has %d entries after conservative member, want 3", len(p.intern))
	}
}

// TestPackMemberErrorsAreIsolated checks that one member's runtime error
// (division by zero) neither halts the pass nor suppresses other members.
func TestPackMemberErrorsAreIsolated(t *testing.T) {
	p := NewPack("x")
	if _, ok := p.Add(MustParse("bad", "1 / x[0] > 0")); !ok {
		t.Fatal("Add(bad) rejected")
	}
	okID, ok := p.Add(Threshold{CondName: "zero", Var: "x", Limit: -1, Above: true})
	if !ok {
		t.Fatal("Add(zero) rejected")
	}
	w, _ := event.NewWindow("x", 1)
	w.TryPush(event.U("x", 1, 0)) // x[0]=0 → bad divides by zero, zero fires
	fired, err := p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
	if err == nil {
		t.Fatal("expected division-by-zero error")
	}
	if len(fired) != 1 || fired[0] != okID {
		t.Fatalf("fired = %v, want just the threshold member %d", fired, okID)
	}

	// A failing subject fires none of its members and reports once, under
	// its lowest live member's name.
	p = NewPack("x")
	first, _ := p.Add(MustParse("first", "1 / x[0] > 0"))
	p.Add(MustParse("second", "0 < 1 / x[0]"))
	p.Add(MustParse("third", "1 / x[0] < 5"))
	if len(p.subjects) != 1 {
		t.Fatalf("%d subjects, want 1", len(p.subjects))
	}
	for _, want := range []string{"first", "second"} {
		fired, err = p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
		if err == nil || !strings.Contains(err.Error(), want) || len(fired) != 0 {
			t.Fatalf("fired %v, err %v; want nothing and an error naming %s", fired, err, want)
		}
		p.Remove(first)
	}
}

// TestPackRejections pins the fallback contract: unpackable conditions and
// variable-set mismatches return ok=false and leave the pack unchanged.
func TestPackRejections(t *testing.T) {
	p := NewPack("x")
	if _, ok := p.Add(NewLemma6Condition("x", "y")); ok {
		t.Error("PairSet should not be packable")
	}
	if _, ok := p.Add(Threshold{CondName: "wrongvar", Var: "y", Limit: 1}); ok {
		t.Error("variable-set mismatch should be rejected")
	}
	if _, ok := p.Add(NewTempDiff("x", "y")); ok {
		t.Error("two-variable condition should not join a one-variable pack")
	}
	if p.Len() != 0 || len(p.members) != 0 {
		t.Errorf("rejected Adds changed the pack: len=%d members=%d", p.Len(), len(p.members))
	}
	if !Packable(NewRiseAggressive("x")) || Packable(NewLemma6Condition("x", "y")) {
		t.Error("Packable misclassifies")
	}
}

// TestPackNaNThreshold: a NaN limit cannot live in the sorted index and a
// NaN value must fire nothing, matching strict-comparison semantics.
func TestPackNaNThreshold(t *testing.T) {
	p := NewPack("x")
	if _, ok := p.Add(Threshold{CondName: "nan", Var: "x", Limit: math.NaN(), Above: true}); !ok {
		t.Fatal("NaN-limit threshold rejected; should fall back to an expr member")
	}
	if _, ok := p.Add(Threshold{CondName: "hot", Var: "x", Limit: 10, Above: true}); !ok {
		t.Fatal("Add rejected")
	}
	w, _ := event.NewWindow("x", 1)
	w.TryPush(event.U("x", 1, math.NaN()))
	fired, err := p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("NaN value fired %v, want nothing", firedNames(p, fired))
	}
	w.TryPush(event.U("x", 2, 50))
	fired, err = p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || p.MemberName(fired[0]) != "hot" {
		t.Fatalf("fired %v, want just hot", firedNames(p, fired))
	}
}

// TestPackRemoveIdempotent pins Remove semantics: unknown ids and double
// removals are no-ops, and removed members never fire again.
func TestPackRemoveIdempotent(t *testing.T) {
	p := NewPack("x")
	id, _ := p.Add(Threshold{CondName: "a", Var: "x", Limit: 0, Above: true})
	id2, _ := p.Add(MustParse("b", "x[0] - x[-1] > 0"))
	p.Remove(id)
	p.Remove(id)
	p.Remove(99)
	p.Remove(-1)
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	if p.MemberName(id) != "" || p.MemberName(id2) != "b" {
		t.Fatal("MemberName after removal wrong")
	}
	w, _ := event.NewWindow("x", 2)
	w.TryPush(event.U("x", 1, 1))
	w.TryPush(event.U("x", 2, 5))
	fired, err := p.EvalAppend(event.HistorySet{"x": w.History()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != id2 {
		t.Fatalf("fired %v, want just member b", fired)
	}
}

// liveView serves windows' live histories, as the CE's shared windows do.
type liveView map[event.VarName]*event.Window

func (v liveView) HistoryOf(name event.VarName) (event.History, bool) {
	w, ok := v[name]
	if !ok {
		return event.History{}, false
	}
	return w.Live(), true
}

// packDiff drives one pack over shared windows deep enough for every member
// and checks each update against per-member baselines.
type packDiff struct {
	t    *testing.T
	p    *Pack
	wins liveView
	ms   []*diffMember
}

type diffMember struct {
	id   int32
	base *packBaseline
	live bool
}

func newPackDiff(t *testing.T, depth int, vars ...event.VarName) *packDiff {
	d := &packDiff{t: t, p: NewPack(vars...), wins: liveView{}}
	for _, v := range vars {
		w, err := event.NewWindow(v, depth)
		if err != nil {
			t.Fatal(err)
		}
		d.wins[v] = w
	}
	return d
}

// add registers c with the pack and with a baseline warmed from the shared
// windows, as if it had seen the whole stream.
func (d *packDiff) add(c Condition) int32 {
	d.t.Helper()
	id, ok := d.p.Add(c)
	if !ok {
		d.t.Fatalf("Add(%s) rejected", c.Name())
	}
	b := newPackBaseline(d.t, c)
	for v, w := range b.wins {
		recent := d.wins[v].Live().Recent
		for i := len(recent) - 1; i >= 0; i-- {
			w.TryPush(recent[i])
		}
	}
	d.ms = append(d.ms, &diffMember{id: id, base: b, live: true})
	return id
}

func (d *packDiff) remove(i int) {
	d.p.Remove(d.ms[i].id)
	d.ms[i].live = false
}

// push delivers one in-order update and checks the fired set — in
// registration order — and the error's presence against the baselines.
func (d *packDiff) push(u event.Update) {
	d.t.Helper()
	if !d.wins[u.Var].TryPush(u) {
		d.t.Fatalf("update %v out of order", u)
	}
	var want []int32
	wantErr := false
	for _, m := range d.ms {
		if !m.live {
			continue
		}
		fired, err := m.base.step(u)
		if err != nil {
			wantErr = true
		} else if fired {
			want = append(want, m.id)
		}
	}
	got, err := d.p.EvalAppend(d.wins, nil)
	if (err != nil) != wantErr {
		d.t.Fatalf("update %v: error %v, want error=%v", u, err, wantErr)
	}
	if !slices.Equal(got, want) {
		d.t.Fatalf("update %v: fired %v, want %v", u, firedNames(d.p, got), firedNames(d.p, want))
	}
}

// diffTemplate is one member shape; sub reports whether it files under a
// subject rather than compiling to an expression member.
type diffTemplate struct {
	sub  bool
	make func(name string, c float64) Condition
}

func parsedTemplate(sub bool, format string) diffTemplate {
	return diffTemplate{sub: sub, make: func(name string, c float64) Condition {
		return MustParse(name, fmt.Sprintf(format, c))
	}}
}

// TestPackComparisonIndexDifferential checks subject indexing against
// per-condition evaluation on every update: one- and two-variable packs,
// subjects of every kind in both operand orders, NaN limits and NaN/±Inf
// values, inclusive comparisons staying expression members, a subject that
// divides by zero, removals crossing tombstone compaction, and adds
// interleaved with evaluations across thrMergeLimit.
func TestPackComparisonIndexDifferential(t *testing.T) {
	x := []diffTemplate{
		{true, func(n string, c float64) Condition { return Threshold{CondName: n, Var: "x", Limit: c, Above: true} }},
		{true, func(n string, c float64) Condition { return Threshold{CondName: n, Var: "x", Limit: c} }},
		{false, func(n string, c float64) Condition {
			return Threshold{CondName: n, Var: "x", Limit: math.NaN(), Above: c > 0}
		}},
		parsedTemplate(true, "x[0] > %v"),
		parsedTemplate(true, "%v < x[0]"),
		parsedTemplate(true, "%v > x[0]"),
		parsedTemplate(true, "x[0] < %v"),
		{true, func(n string, c float64) Condition { return Rise{CondName: n, Var: "x", Delta: c} }},
		{false, func(n string, c float64) Condition { return Rise{CondName: n, Var: "x", Delta: c, Consecutive: true} }},
		parsedTemplate(true, "x[0] - x[-1] > %v"),
		parsedTemplate(true, "%v > x[0] - x[-1]"),
		parsedTemplate(true, "x[-2] - x[0] < %v"),
		parsedTemplate(true, "%v < x[-2] - x[0]"),
		parsedTemplate(true, "seqno(x, 0) - seqno(x, -1) > %v"),
		parsedTemplate(true, "seqno(x, 0) > %v"),
		parsedTemplate(true, "1 / x[0] > %v"),
		parsedTemplate(false, "x[0] >= %v"),
		parsedTemplate(false, "%v <= x[0]"),
		parsedTemplate(false, "x[0] - x[-1] > %v && consecutive(x)"),
	}
	xy := []diffTemplate{
		{true, func(n string, c float64) Condition { return AbsDiff{CondName: n, X: "x", Y: "y", Limit: c} }},
		parsedTemplate(true, "abs(x[0] - y[0]) > %v"),
		parsedTemplate(true, "%v < abs(x[0] - y[0])"),
		parsedTemplate(true, "x[0] - y[0] < %v"),
		parsedTemplate(true, "y[0] - x[-1] > %v"),
		parsedTemplate(true, "y[0] / x[0] < %v"),
		{false, func(n string, _ float64) Condition { return GreaterThan{CondName: n, X: "x", Y: "y"} }},
		parsedTemplate(false, "x[0] + y[0] >= %v"),
	}
	t.Run("x", func(t *testing.T) { runComparisonDifferential(t, 21, x, []event.VarName{"x"}) })
	t.Run("xy", func(t *testing.T) { runComparisonDifferential(t, 22, xy, []event.VarName{"x", "y"}) })
}

func runComparisonDifferential(t *testing.T, seed int64, tpls []diffTemplate, vars []event.VarName) {
	rng := rand.New(rand.NewSource(seed))
	d := newPackDiff(t, 3, vars...)
	limit := func() float64 { return float64(rng.Intn(25)-12) / 2 }
	value := func() float64 {
		switch rng.Intn(20) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return float64(rng.Intn(13) - 6)
	}
	seq := map[event.VarName]int64{}
	update := func() {
		v := vars[rng.Intn(len(vars))]
		seq[v] += int64(1 + rng.Intn(3))
		d.push(event.U(v, seq[v], value()))
	}
	add := func(tpl diffTemplate) {
		id := d.add(tpl.make(fmt.Sprintf("m%04d", len(d.ms)), limit()))
		if sub := d.p.members[id].sub != nil; sub != tpl.sub {
			t.Fatalf("%s: subject member = %v, want %v", d.p.MemberName(id), sub, tpl.sub)
		}
	}
	for i := 0; i < 3*len(tpls); i++ {
		add(tpls[rng.Intn(len(tpls))])
	}
	for i := 0; i < 300; i++ {
		update()
	}
	// Churn: remove three in four, evaluating in between, then refill.
	for i := range d.ms {
		if rng.Intn(4) != 0 {
			d.remove(i)
		}
		if i%4 == 0 {
			update()
		}
	}
	for i := 0; i < len(tpls); i++ {
		add(tpls[rng.Intn(len(tpls))])
	}
	// Bulk adds to one direction of the first template's subject, out of
	// limit order and interleaved with evaluations, across a merge.
	bulk := len(d.ms)
	for i := 0; i < thrMergeLimit+100; i++ {
		add(tpls[0])
		if i%8 == 0 {
			update()
		}
	}
	sub := d.p.members[d.ms[bulk].id].sub
	if len(sub.above.sorted) == 0 {
		t.Fatal("bulk adds never merged the pending run")
	}
	for i := 0; i < 100; i++ {
		update()
	}
	// Removals crossing tombstone compaction in both runs.
	for i := bulk; i < len(d.ms); i++ {
		if rng.Intn(5) != 0 {
			d.remove(i)
		}
		if i%16 == 0 {
			update()
		}
	}
	for i := 0; i < 100; i++ {
		update()
	}
	// Emptied subjects leave the pack.
	for i := range d.ms {
		if d.ms[i].live {
			d.remove(i)
		}
	}
	if d.p.Len() != 0 || len(d.p.subjects) != 0 || len(d.p.byKey) != 0 || len(d.p.exprIDs) != 0 {
		t.Fatalf("empty pack keeps %d members, %d subjects, %d keys, %d expression members",
			d.p.Len(), len(d.p.subjects), len(d.p.byKey), len(d.p.exprIDs))
	}
	update()
}

// fanoutPack builds one variable's pack of the engine-fanout workload:
// 10000 thresholds with limits 1000+i and 1000 "v[0] - v[-1] > 990+i%8"
// members spread round-robin over 16 variables leave variable 0 with 625
// thresholds and, here, 62 rise members of one constant.
func fanoutPack(tb testing.TB) *Pack {
	p := NewPack("v")
	for i := 0; i < 625; i++ {
		if _, ok := p.Add(Threshold{CondName: fmt.Sprintf("t%05d", 16*i), Var: "v", Limit: 1000 + float64(16*i), Above: true}); !ok {
			tb.Fatal("Add(threshold) rejected")
		}
	}
	for i := 0; i < 62; i++ {
		if _, ok := p.Add(MustParse(fmt.Sprintf("s%04d", 16*i), "v[0] - v[-1] > 990")); !ok {
			tb.Fatal("Add(rise) rejected")
		}
	}
	return p
}

// fanoutValues is engine-fanout's value stream: values on [100, 900) with
// one spike on [1000, 1064) in every block of 100.
func fanoutValues() []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, 6400)
	for i := range out {
		out[i] = float64(100 + rng.Intn(800))
		if i%100 == 37 {
			out[i] = float64(1000 + (i/100)%64)
		}
	}
	return out
}

// TestPackFanoutShape pins engine-fanout's per-variable pack to two
// subjects — v[0] and v[0] - v[-1] — and no expression member.
func TestPackFanoutShape(t *testing.T) {
	p := fanoutPack(t)
	if len(p.exprIDs) != 0 || len(p.subjects) != 2 {
		t.Fatalf("%d expression members and %d subjects, want 0 and 2", len(p.exprIDs), len(p.subjects))
	}
}

// TestPackEvalAppendAllocs pins the steady-state evaluation pass at zero
// allocations.
func TestPackEvalAppendAllocs(t *testing.T) {
	p := fanoutPack(t)
	w, _ := event.NewWindow("v", 2)
	view := liveView{"v": w}
	vals := fanoutValues()
	fired := make([]int32, 0, 1024)
	seq := int64(0)
	step := func() {
		seq++
		w.TryPush(event.U("v", seq, vals[int(seq)%len(vals)]))
		var err error
		if fired, err = p.EvalAppend(view, fired[:0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("EvalAppend allocates %.2f times per update, want 0", a)
	}
}

// BenchmarkPackEvalAppend times one update's evaluation pass at
// engine-fanout's per-variable shape.
func BenchmarkPackEvalAppend(b *testing.B) {
	p := fanoutPack(b)
	w, _ := event.NewWindow("v", 2)
	view := liveView{"v": w}
	vals := fanoutValues()
	fired := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TryPush(event.U("v", int64(i+1), vals[i%len(vals)]))
		fired, _ = p.EvalAppend(view, fired[:0])
	}
}
