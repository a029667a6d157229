package event

import (
	"math/rand"
	"testing"
	"testing/quick"

	"condmon/internal/seq"
)

func TestUpdateString(t *testing.T) {
	u := U("x", 7, 3000)
	if got, want := u.String(), "7x(3000)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSeqNosProjection(t *testing.T) {
	// Π_x⟨2x,6y,1y,3x⟩ = ⟨2,3⟩ and Π_y = ⟨6,1⟩ from Section 2.2.
	stream := []Update{U("x", 2, 0), U("y", 6, 0), U("y", 1, 0), U("x", 3, 0)}
	if got := SeqNos(stream, "x"); !got.Equal(seq.Seq{2, 3}) {
		t.Errorf("Πx = %v, want ⟨2,3⟩", got)
	}
	if got := SeqNos(stream, "y"); !got.Equal(seq.Seq{6, 1}) {
		t.Errorf("Πy = %v, want ⟨6,1⟩", got)
	}
	if got := SeqNos(stream, ""); !got.Equal(seq.Seq{2, 6, 1, 3}) {
		t.Errorf("Π (all vars) = %v, want ⟨2,6,1,3⟩", got)
	}
}

func TestVars(t *testing.T) {
	stream := []Update{U("y", 1, 0), U("x", 1, 0), U("y", 2, 0)}
	got := Vars(stream)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Vars = %v, want [x y]", got)
	}
}

func TestWindowPushAndHistory(t *testing.T) {
	w, err := NewWindow("x", 2)
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	if w.Full() {
		t.Error("fresh window should not be full")
	}
	if err := w.Push(U("x", 5, 100)); err != nil {
		t.Fatalf("Push(5x): %v", err)
	}
	if w.Full() {
		t.Error("window of degree 2 with one update should not be full")
	}
	if err := w.Push(U("x", 7, 200)); err != nil {
		t.Fatalf("Push(7x): %v", err)
	}
	if !w.Full() {
		t.Error("window should be full after two pushes")
	}

	// Section 2: immediately after 7x arrives, Hx[0] = 7x and Hx[-1] = 5x
	// (6x was lost).
	h := w.History()
	if got := h.Latest(); got.SeqNo != 7 {
		t.Errorf("Hx[0] = %v, want seqno 7", got)
	}
	prev, ok := h.At(-1)
	if !ok || prev.SeqNo != 5 {
		t.Errorf("Hx[-1] = %v (ok=%v), want seqno 5", prev, ok)
	}
	if _, ok := h.At(-2); ok {
		t.Error("Hx[-2] should be out of range for a degree-2 window")
	}
	if h.Consecutive() {
		t.Error("window ⟨7,5⟩ should not be consecutive")
	}
	if got := h.SeqNosAscending(); !got.Equal(seq.Seq{5, 7}) {
		t.Errorf("SeqNosAscending = %v, want ⟨5,7⟩", got)
	}
}

func TestWindowEviction(t *testing.T) {
	w, err := NewWindow("x", 2)
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := w.Push(U("x", i, float64(i))); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	h := w.History()
	if got := h.SeqNosAscending(); !got.Equal(seq.Seq{3, 4}) {
		t.Errorf("after pushes 1..4, window = %v, want ⟨3,4⟩", got)
	}
	if !h.Consecutive() {
		t.Error("window ⟨3,4⟩ should be consecutive")
	}
}

func TestWindowRejectsBadPushes(t *testing.T) {
	w, err := NewWindow("x", 1)
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	if err := w.Push(U("y", 1, 0)); err == nil {
		t.Error("Push of wrong variable should fail")
	}
	if err := w.Push(U("x", 3, 0)); err != nil {
		t.Fatalf("Push(3x): %v", err)
	}
	if err := w.Push(U("x", 3, 0)); err == nil {
		t.Error("Push of duplicate seqno should fail")
	}
	if err := w.Push(U("x", 2, 0)); err == nil {
		t.Error("Push of smaller seqno should fail")
	}
}

func TestWindowReset(t *testing.T) {
	w, err := NewWindow("x", 1)
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	if err := w.Push(U("x", 1, 0)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	w.Reset()
	if w.Full() || w.Len() != 0 {
		t.Error("Reset should empty the window")
	}
	// After a crash the CE may legitimately see a smaller seqno than any it
	// had before the crash... it cannot (front links are in-order per link,
	// and the DM's counter only grows), but the window itself must accept a
	// fresh stream after Reset.
	if err := w.Push(U("x", 5, 0)); err != nil {
		t.Errorf("Push after Reset: %v", err)
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow("x", 0); err == nil {
		t.Error("NewWindow with degree 0 should fail")
	}
	if _, err := NewWindow("x", -1); err == nil {
		t.Error("NewWindow with negative degree should fail")
	}
}

func alertOn(cond string, hists ...History) Alert {
	hs := make(HistorySet, len(hists))
	for _, h := range hists {
		hs[h.Var] = h
	}
	return Alert{Cond: cond, Histories: hs}
}

func histOf(v VarName, seqNos ...int64) History {
	h := History{Var: v}
	for _, n := range seqNos {
		h.Recent = append(h.Recent, U(v, n, float64(n)))
	}
	return h
}

func TestAlertSeqNoAndKey(t *testing.T) {
	// The AD-1 example from Section 3: a1 triggered on 2x,3x while a2
	// triggered on 1x,3x. Both have a.seqno.x = 3 but are not identical.
	a1 := alertOn("c", histOf("x", 3, 2))
	a2 := alertOn("c", histOf("x", 3, 1))
	if n := a1.MustSeqNo("x"); n != 3 {
		t.Errorf("a1.seqno.x = %d, want 3", n)
	}
	if n := a2.MustSeqNo("x"); n != 3 {
		t.Errorf("a2.seqno.x = %d, want 3", n)
	}
	if a1.Key() == a2.Key() {
		t.Error("alerts with different histories must have different keys")
	}
	if a1.Key() != alertOn("c", histOf("x", 3, 2)).Key() {
		t.Error("alerts with equal histories must have equal keys")
	}
	if _, ok := a1.SeqNo("y"); ok {
		t.Error("SeqNo of a variable outside the alert's set should report !ok")
	}
}

func TestAlertKeyDistinguishesConditions(t *testing.T) {
	a := alertOn("c1", histOf("x", 1))
	b := alertOn("c2", histOf("x", 1))
	if a.Key() == b.Key() {
		t.Error("alerts for different conditions must have different keys")
	}
}

func TestAlertString(t *testing.T) {
	a := alertOn("cm", histOf("x", 2), histOf("y", 1))
	if got, want := a.String(), "a(2x,1y)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHistorySetEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b HistorySet
		want bool
	}{
		{
			name: "equal",
			a:    HistorySet{"x": histOf("x", 3, 2)},
			b:    HistorySet{"x": histOf("x", 3, 2)},
			want: true,
		},
		{
			name: "different seqnos",
			a:    HistorySet{"x": histOf("x", 3, 2)},
			b:    HistorySet{"x": histOf("x", 3, 1)},
			want: false,
		},
		{
			name: "different vars",
			a:    HistorySet{"x": histOf("x", 3)},
			b:    HistorySet{"y": histOf("y", 3)},
			want: false,
		},
		{
			name: "different sizes",
			a:    HistorySet{"x": histOf("x", 3)},
			b:    HistorySet{"x": histOf("x", 3), "y": histOf("y", 1)},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHistorySetEqualComparesValues(t *testing.T) {
	a := HistorySet{"x": {Var: "x", Recent: []Update{U("x", 1, 10)}}}
	b := HistorySet{"x": {Var: "x", Recent: []Update{U("x", 1, 20)}}}
	if a.Equal(b) {
		t.Error("history sets with different values should not be equal")
	}
}

func TestAlertSeqNosProjection(t *testing.T) {
	alerts := []Alert{
		alertOn("c", histOf("x", 2), histOf("y", 1)),
		alertOn("c", histOf("x", 1), histOf("y", 2)),
	}
	if got := AlertSeqNos(alerts, "x"); !got.Equal(seq.Seq{2, 1}) {
		t.Errorf("ΠxA = %v, want ⟨2,1⟩", got)
	}
	if got := AlertSeqNos(alerts, "y"); !got.Equal(seq.Seq{1, 2}) {
		t.Errorf("ΠyA = %v, want ⟨1,2⟩", got)
	}
}

func TestKeySetOps(t *testing.T) {
	a := []Alert{alertOn("c", histOf("x", 1)), alertOn("c", histOf("x", 2))}
	b := []Alert{alertOn("c", histOf("x", 2)), alertOn("c", histOf("x", 1))}
	c := []Alert{alertOn("c", histOf("x", 1))}
	if !KeySetEqual(a, b) {
		t.Error("ΦA should equal ΦB regardless of order")
	}
	if KeySetEqual(a, c) {
		t.Error("ΦA should not equal ΦC")
	}
	if !KeySetSubset(c, a) {
		t.Error("ΦC should be a subset of ΦA")
	}
	if KeySetSubset(a, c) {
		t.Error("ΦA should not be a subset of ΦC")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := alertOn("c", histOf("x", 3, 2))
	b := a.Clone()
	b.Histories["x"].Recent[0] = U("x", 9, 0)
	if a.Histories["x"].Recent[0].SeqNo != 3 {
		t.Error("mutating a clone must not affect the original")
	}
}

func TestQuickWindowMatchesNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64, degIn uint8) bool {
		r := rand.New(rand.NewSource(seed))
		degree := int(degIn%4) + 1
		w, err := NewWindow("x", degree)
		if err != nil {
			return false
		}
		var pushed []Update
		next := int64(0)
		for i := 0; i < 12; i++ {
			next += int64(1 + r.Intn(3))
			u := U("x", next, float64(r.Intn(100)))
			if err := w.Push(u); err != nil {
				return false
			}
			pushed = append(pushed, u)
			// Naive reference: the last min(degree, len) pushes, newest first.
			h := w.History()
			n := len(pushed)
			k := degree
			if n < k {
				k = n
			}
			if len(h.Recent) != k {
				return false
			}
			for j := 0; j < k; j++ {
				if h.Recent[j] != pushed[n-1-j] {
					return false
				}
			}
			if w.Full() != (n >= degree) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("window does not match naive model: %v", err)
	}
}

// TestWindowGrow verifies in-place widening: contents survive, the new
// capacity fills before old entries fall off, and shrinking is a no-op.
func TestWindowGrow(t *testing.T) {
	w, err := NewWindow("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(U("x", 1, 10))
	w.Push(U("x", 2, 20))
	if !w.Full() {
		t.Fatal("degree-2 window not full after 2 pushes")
	}
	w.Grow(4)
	if w.Degree() != 4 {
		t.Fatalf("Degree() = %d after Grow(4)", w.Degree())
	}
	if w.Full() {
		t.Error("window reports full immediately after growing")
	}
	h := w.History()
	if len(h.Recent) != 2 || h.Recent[0].SeqNo != 2 || h.Recent[1].SeqNo != 1 {
		t.Fatalf("contents not preserved across Grow: %v", h)
	}
	w.Push(U("x", 3, 30))
	w.Push(U("x", 4, 40))
	if !w.Full() {
		t.Error("grown window not full after reaching new degree")
	}
	got := w.History().SeqNosAscending()
	want := seq.Seq{1, 2, 3, 4}
	if !got.Equal(want) {
		t.Errorf("grown window holds %v, want %v", got, want)
	}
	// Shrinking is a no-op.
	w.Grow(1)
	if w.Degree() != 4 || w.Len() != 4 {
		t.Errorf("Grow(1) shrank the window: degree=%d len=%d", w.Degree(), w.Len())
	}
}

// Golden renderings: the rewritten String and key serializers must print
// what the Sprintf/Join versions printed, byte for byte.
func TestAlertStringAndKeyGolden(t *testing.T) {
	cases := []struct {
		a           Alert
		str, keyStr string
	}{
		{alertOn("c1", histOf("x", 7)), "a(7x)", "c1|x=⟨7⟩"},
		{alertOn("cm", histOf("y", 1), histOf("x", 2, 1)), "a(2x,1y)", "cm|x=⟨1,2⟩|y=⟨1⟩"},
		{alertOn("c3", histOf("temp", 1203, 1201, 1200), histOf("a", 5), histOf("zz", 90, 88)),
			"a(5a,1203temp,90zz)", "c3|a=⟨5⟩|temp=⟨1200,1201,1203⟩|zz=⟨88,90⟩"},
		{alertOn(""), "a()", ""},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if got := c.a.Key(); got != c.keyStr {
			t.Errorf("Key() = %q, want %q", got, c.keyStr)
		}
	}
}

// The wire format admits a history of length zero; printing an alert that
// carries one must not panic (the AD prints every displayed alert).
func TestAlertStringEmptyHistory(t *testing.T) {
	a := alertOn("c", History{Var: "x"}, histOf("y", 4))
	if got, want := a.String(), "a(?x,4y)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := a.Key(), "c|x=⟨⟩|y=⟨4⟩"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

// NewAlertOf is NewAlert for histories held as a list: same set, same key,
// whatever order the list comes in.
func TestNewAlertOfMatchesNewAlert(t *testing.T) {
	long := make([]int64, 40) // a key past the stack buffer
	for i := range long {
		long[i] = int64(1_000_000_000 - i)
	}
	cases := map[string][]History{
		"single":    {histOf("x", 7, 6)},
		"sorted":    {histOf("a", 3), histOf("b", 9, 8), histOf("c", 2, 1)},
		"unsorted":  {histOf("c", 2, 1), histOf("a", 3), histOf("b", 9, 8)},
		"five":      {histOf("a", 1), histOf("b", 2), histOf("c", 3), histOf("d", 4), histOf("e", 5)},
		"duplicate": {histOf("a", 1), histOf("b", 2), histOf("a", 5, 4)},
		"long":      {histOf("x", long...)},
		"none":      nil,
	}
	for name, hists := range cases {
		set := make(HistorySet)
		for _, h := range hists {
			set[h.Var] = h // a repeated variable: the later entry wins
		}
		want := NewAlert("cond", set, "CE1")
		got := NewAlertOf("cond", hists, "CE1")
		if got.Key() != want.Key() || got.key != want.key {
			t.Errorf("%s: key %q, want %q", name, got.key, want.key)
		}
		if !got.Histories.Equal(want.Histories) {
			t.Errorf("%s: histories %v, want %v", name, got.Histories, want.Histories)
		}
		if got.Cond != "cond" || got.Source != "CE1" {
			t.Errorf("%s: cond/source = %q/%q", name, got.Cond, got.Source)
		}
	}
}

func TestAlertWithCond(t *testing.T) {
	a := NewAlertOf("first", []History{histOf("x", 2, 1), histOf("y", 9)}, "CE1")
	b := a.WithCond("second")
	want := NewAlert("second", a.Histories, "CE1")
	if b.key != want.key || b.Cond != "second" || b.Source != "CE1" || !b.Histories.Equal(a.Histories) {
		t.Errorf("WithCond = %+v (key %q), want key %q", b, b.key, want.key)
	}
	// An alert literal has no cached key to re-prefix; the result still does.
	if c := alertOn("first", histOf("x", 2, 1)).WithCond("second"); c.key != "second|x=⟨1,2⟩" {
		t.Errorf("WithCond on a literal: key %q", c.key)
	}
}

// Allocation pins of the alert's identity and display: one allocation each
// (the returned string) for the serializers, the set (map header and its
// group) plus the key for the constructor, nothing for a cached key.
func TestAlertAllocs(t *testing.T) {
	lit := alertOn("c2", histOf("x", 1_000_007, 1_000_006))
	hists := []History{histOf("x", 1_000_007, 1_000_006)}
	built := NewAlertOf("c2", hists, "CE1")
	var sink string
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"String", 1, func() { sink = built.String() }},
		{"computeKey", 1, func() { sink = lit.Key() }},
		{"cached Key", 0, func() { sink = built.Key() }},
		{"NewAlertOf", 3, func() { sink = NewAlertOf("c2", hists, "CE1").key }},
		{"WithCond", 1, func() { sink = built.WithCond("c3").key }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", c.name, got, c.max)
		}
	}
	_ = sink
}
