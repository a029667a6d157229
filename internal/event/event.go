// Package event defines the data model of Section 2 of the paper: data
// updates u(varname, seqno, value), per-variable update histories Hx, and
// alerts a(condname, histories). Everything that flows between Data
// Monitors, Condition Evaluators and Alert Displayers is built from these
// types.
package event

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"condmon/internal/seq"
)

// VarName identifies a monitored real-world variable, e.g. "x" for a
// reactor's temperature sensor. Each Data Monitor tracks exactly one
// variable.
type VarName string

// Update is the tuple u(varname, seqno, value). SeqNo uniquely identifies
// this update within the variable's stream and consecutive updates from the
// same DM carry consecutive sequence numbers. Value is a full snapshot of
// the variable (never a delta), so an update remains useful even when its
// predecessor was lost.
type Update struct {
	Var   VarName
	SeqNo int64
	Value float64
}

// String renders an update in the paper's 7x(3000) notation.
func (u Update) String() string {
	return fmt.Sprintf("%d%s(%g)", u.SeqNo, u.Var, u.Value)
}

// U builds an update; it exists to keep scenario tables in tests compact.
func U(v VarName, seqNo int64, value float64) Update {
	return Update{Var: v, SeqNo: seqNo, Value: value}
}

// SeqNos returns Π_v(updates): the sequence numbers of v-updates in the
// given stream, in stream order. Passing the empty VarName projects every
// update (useful for single-variable systems, mirroring the paper's
// convention of omitting the variable when it is implied).
func SeqNos(updates []Update, v VarName) seq.Seq {
	var out seq.Seq
	for _, u := range updates {
		if v == "" || u.Var == v {
			out = append(out, u.SeqNo)
		}
	}
	return out
}

// Vars returns the distinct variable names appearing in the stream, sorted.
func Vars(updates []Update) []VarName {
	set := make(map[VarName]struct{})
	for _, u := range updates {
		set[u.Var] = struct{}{}
	}
	out := make([]VarName, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// History is Hx: the N most recently received updates of one variable,
// most recent first. Recent[0] is Hx[0], Recent[1] is Hx[-1], and so on.
type History struct {
	Var VarName
	// Recent holds the window most-recent-first.
	Recent []Update
}

// Degree returns the number of updates in the window (the paper's N).
func (h History) Degree() int { return len(h.Recent) }

// At returns Hx[i] for i ≤ 0; At(0) is the most recent update. It returns
// false when the window does not reach back that far.
func (h History) At(i int) (Update, bool) {
	idx := -i
	if i > 0 || idx >= len(h.Recent) {
		return Update{}, false
	}
	return h.Recent[idx], true
}

// Latest returns Hx[0]. It panics on an empty history, which never occurs
// for histories embedded in alerts (a CE only fires once its windows are
// full).
func (h History) Latest() Update {
	if len(h.Recent) == 0 {
		panic("event: Latest on empty history")
	}
	return h.Recent[0]
}

// SeqNosAscending returns the window's sequence numbers in increasing
// order, i.e. oldest first: ⟨Hx[-(N-1)].seqno, …, Hx[0].seqno⟩.
func (h History) SeqNosAscending() seq.Seq {
	out := make(seq.Seq, len(h.Recent))
	for i, u := range h.Recent {
		out[len(h.Recent)-1-i] = u.SeqNo
	}
	return out
}

// Consecutive reports whether the window's sequence numbers are
// consecutive. Conservative conditions evaluate to false whenever this
// fails (Section 2). The check runs directly over the window (Recent is
// most-recent-first) so the evaluation hot path never materializes a
// sequence.
func (h History) Consecutive() bool {
	for i := 0; i+1 < len(h.Recent); i++ {
		if h.Recent[i].SeqNo != h.Recent[i+1].SeqNo+1 {
			return false
		}
	}
	return true
}

// Clone deep-copies the history.
func (h History) Clone() History {
	out := History{Var: h.Var}
	if h.Recent != nil {
		out.Recent = make([]Update, len(h.Recent))
		copy(out.Recent, h.Recent)
	}
	return out
}

// String renders the history as ⟨3x,1x⟩ (most recent first), matching the
// paper's alert notation a.H = ⟨3x, 1x⟩.
func (h History) String() string {
	parts := make([]string, len(h.Recent))
	for i, u := range h.Recent {
		parts[i] = fmt.Sprintf("%d%s", u.SeqNo, u.Var)
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}

// HistoryView is read-only access to per-variable update histories: the
// interface conditions evaluate against on the hot path. A live view (such
// as a CE's window set) may return histories that alias mutable storage;
// callers must not retain the returned History beyond the current
// evaluation. The immutable HistorySet implements HistoryView, so every
// view-based evaluator also works on materialized sets.
type HistoryView interface {
	// HistoryOf returns the history of v, or false when the view does not
	// track v.
	HistoryOf(v VarName) (History, bool)
}

// HistorySet is H: one update history per variable in the condition's
// variable set V.
type HistorySet map[VarName]History

// HistoryOf implements HistoryView.
func (hs HistorySet) HistoryOf(v VarName) (History, bool) {
	h, ok := hs[v]
	return h, ok
}

// Clone deep-copies the history set.
func (hs HistorySet) Clone() HistorySet {
	out := make(HistorySet, len(hs))
	for v, h := range hs {
		out[v] = h.Clone()
	}
	return out
}

// Vars returns the variables of the set in sorted order.
func (hs HistorySet) Vars() []VarName {
	return hs.AppendVars(make([]VarName, 0, len(hs)))
}

// AppendVars appends the variables of the set to dst in sorted order. With
// room in dst it allocates nothing, which is what lets an encoder on a hot
// path list an alert's variables in a stack buffer.
func (hs HistorySet) AppendVars(dst []VarName) []VarName {
	base := len(dst)
	for v := range hs {
		dst = append(dst, v)
	}
	slices.Sort(dst[base:])
	return dst
}

// Equal reports whether two history sets cover the same variables with the
// same update windows (sequence numbers and values).
func (hs HistorySet) Equal(other HistorySet) bool {
	if len(hs) != len(other) {
		return false
	}
	for v, h := range hs {
		oh, ok := other[v]
		if !ok || len(h.Recent) != len(oh.Recent) {
			return false
		}
		for i := range h.Recent {
			if h.Recent[i] != oh.Recent[i] {
				return false
			}
		}
	}
	return true
}

// Alert is a(condname, histories): the notification a CE sends when its
// condition evaluates to true, carrying the update histories used in the
// evaluation so the AD can identify duplicates and conflicts.
type Alert struct {
	Cond      string
	Histories HistorySet
	// Source identifies the emitting CE ("CE1", "CE2", …). It is metadata
	// for diagnostics only and takes no part in alert identity.
	Source string
	// key caches the canonical identity (see Key). Alerts built through the
	// constructors or decoded off the wire carry it precomputed so the AD
	// filters never re-serialize histories; an Alert literal leaves it empty
	// and Key serializes on demand.
	key string
}

// NewAlert builds an alert with its canonical Key precomputed, from
// histories already held as a set. Tests, scenario tables and the decoder's
// rare out-of-order input use it; the firing and decoding paths, which hold
// their histories as an ordered list, build set and key in one pass with
// NewAlertOf. Either way every downstream identity check (AD-1's duplicate
// map, AD-3's seen set, the auditor's index) is a plain string hash instead
// of a history serialization.
func NewAlert(cond string, histories HistorySet, source string) Alert {
	a := Alert{Cond: cond, Histories: histories, Source: source}
	a.key = a.computeKey()
	return a
}

// NewAlertOf builds the same alert NewAlert does from histories listed in
// strictly ascending variable order — the order a CE keeps its windows in and
// an encoder writes them in — filling the HistorySet and serializing the key
// in the same pass, with no intermediate variable list and no map iteration.
// The alert takes ownership of every Recent slice (callers hand over
// snapshots, not live windows) but does not retain hists itself, so callers
// list them in a stack buffer. A list that is not strictly ascending (out of
// order, or naming a variable twice: the later entry wins, as in a map) takes
// NewAlert's sorting path instead.
func NewAlertOf(cond string, hists []History, source string) Alert {
	hs := make(HistorySet, len(hists))
	var stack [keyStack]byte
	b := append(stack[:0], cond...)
	for i, h := range hists {
		if i > 0 && h.Var <= hists[i-1].Var {
			for _, h := range hists {
				hs[h.Var] = h
			}
			return NewAlert(cond, hs, source)
		}
		hs[h.Var] = h
		b = appendKeyHistory(b, h)
	}
	return Alert{Cond: cond, Histories: hs, Source: source, key: string(b)}
}

// WithCond returns the alert as condition cond would have raised it from the
// same evaluation: the histories (immutable, so shared) and source carry
// over and the key is re-prefixed rather than re-serialized. A shared
// evaluation pass uses it for members that read the same windows at the same
// degrees.
func (a Alert) WithCond(cond string) Alert {
	key := a.Key()
	return Alert{Cond: cond, Histories: a.Histories, Source: a.Source, key: cond + key[len(a.Cond):]}
}

// SeqNo returns a.seqno.v = Hv[0].seqno, the sequence number of the last
// v-update received when the alert was triggered. The second result is
// false if the alert has no history for v.
func (a Alert) SeqNo(v VarName) (int64, bool) {
	h, ok := a.Histories[v]
	if !ok || len(h.Recent) == 0 {
		return 0, false
	}
	return h.Latest().SeqNo, true
}

// MustSeqNo is SeqNo for variables known to be in the alert's variable set.
func (a Alert) MustSeqNo(v VarName) int64 {
	n, ok := a.SeqNo(v)
	if !ok {
		panic(fmt.Sprintf("event: alert %s has no history for variable %q", a.Key(), v))
	}
	return n
}

// Key returns the canonical identity of the alert: its condition name plus
// the per-variable history sequence numbers. Two alerts are "identical" in
// the sense of Algorithm AD-1 exactly when their keys are equal (given a
// fixed DM stream, sequence numbers determine values). Keys are also what
// Φ ranges over in the completeness and consistency definitions.
//
// Alerts built by NewAlert, NewAlertOf or a wire decoder carry the key
// precomputed; only a hand-built Alert{…} literal (tests) serializes on each
// call.
func (a Alert) Key() string {
	if a.key != "" {
		return a.key
	}
	return a.computeKey()
}

// keyStack sizes the stack buffers keys and display strings are serialized
// in before their one allocation; longer ones spill to the heap.
const keyStack = 128

// computeKey serializes the canonical identity, e.g. "c2|x=⟨6,7⟩" (the
// window's sequence numbers ascending, matching seq.Seq's rendering), in one
// pass over the sorted variables: one allocation, the returned string.
func (a Alert) computeKey() string {
	var (
		stack [keyStack]byte
		vars  [4]VarName
	)
	b := append(stack[:0], a.Cond...)
	for _, v := range a.Histories.AppendVars(vars[:0]) {
		b = appendKeyHistory(b, a.Histories[v])
	}
	return string(b)
}

// appendKeyHistory appends one variable's part of the canonical key:
// "|x=⟨6,7⟩".
func appendKeyHistory(b []byte, h History) []byte {
	b = append(b, '|')
	b = append(b, h.Var...)
	b = append(b, "=⟨"...)
	for i := len(h.Recent) - 1; i >= 0; i-- {
		b = strconv.AppendInt(b, h.Recent[i].SeqNo, 10)
		if i > 0 {
			b = append(b, ',')
		}
	}
	return append(b, "⟩"...)
}

// Clone deep-copies the alert. The cached key carries over: identity is
// derived from the histories, which the deep copy preserves.
func (a Alert) Clone() Alert {
	return Alert{Cond: a.Cond, Histories: a.Histories.Clone(), Source: a.Source, key: a.key}
}

// String renders the alert as a(2x,1y) in the paper's style, listing the
// latest sequence number per variable in variable order. A history with no
// updates — which no CE emits but the wire format admits — renders as ?x.
func (a Alert) String() string {
	var (
		stack [keyStack]byte
		vars  [4]VarName
	)
	b := append(stack[:0], "a("...)
	for i, v := range a.Histories.AppendVars(vars[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		if recent := a.Histories[v].Recent; len(recent) > 0 {
			b = strconv.AppendInt(b, recent[0].SeqNo, 10)
		} else {
			b = append(b, '?')
		}
		b = append(b, v...)
	}
	return string(append(b, ')'))
}

// AlertSeqNos returns Π_v(alerts): the sequence ⟨a.seqno.v | a ∈ alerts⟩.
// Alerts lacking a history for v are skipped.
func AlertSeqNos(alerts []Alert, v VarName) seq.Seq {
	var out seq.Seq
	for _, a := range alerts {
		if n, ok := a.SeqNo(v); ok {
			out = append(out, n)
		}
	}
	return out
}

// AlertKeys returns the canonical keys of the alerts in order.
func AlertKeys(alerts []Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.Key()
	}
	return out
}

// KeySet returns Φ(alerts): the set of canonical alert keys.
func KeySet(alerts []Alert) map[string]struct{} {
	out := make(map[string]struct{}, len(alerts))
	for _, a := range alerts {
		out[a.Key()] = struct{}{}
	}
	return out
}

// KeySetEqual reports ΦA = ΦB on alert key sets.
func KeySetEqual(a, b []Alert) bool {
	ka, kb := KeySet(a), KeySet(b)
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if _, ok := kb[k]; !ok {
			return false
		}
	}
	return true
}

// KeySetSubset reports ΦA ⊆ ΦB on alert key sets.
func KeySetSubset(a, b []Alert) bool {
	kb := KeySet(b)
	for _, al := range a {
		if _, ok := kb[al.Key()]; !ok {
			return false
		}
	}
	return true
}

// Window accumulates the update history of one variable at a CE: a ring of
// the `degree` most recently received updates. It is the stateful
// realization of Hx.
type Window struct {
	varName VarName
	degree  int
	// recent holds up to degree updates, most recent first.
	recent []Update
}

// NewWindow creates a window of the given degree (N ≥ 1) for variable v.
func NewWindow(v VarName, degree int) (*Window, error) {
	if degree < 1 {
		return nil, fmt.Errorf("event: window degree must be ≥ 1, got %d", degree)
	}
	return &Window{varName: v, degree: degree, recent: make([]Update, 0, degree)}, nil
}

// Var returns the variable the window tracks.
func (w *Window) Var() VarName { return w.varName }

// Push incorporates a newly received update as Hx[0], shifting older
// entries back and discarding the one that falls off the end. It rejects
// updates for the wrong variable and non-increasing sequence numbers (the
// front links deliver in order, so a well-formed CE never sees them).
func (w *Window) Push(u Update) error {
	if w.TryPush(u) {
		return nil
	}
	if u.Var != w.varName {
		return fmt.Errorf("event: window for %q received update for %q", w.varName, u.Var)
	}
	return fmt.Errorf("event: window for %q received out-of-order seqno %d after %d",
		w.varName, u.SeqNo, w.recent[0].SeqNo)
}

// TryPush is Push without the descriptive error: it reports whether the
// update was incorporated. The CE's hot path uses it so that discarding an
// out-of-order delivery stays allocation-free.
func (w *Window) TryPush(u Update) bool {
	if u.Var != w.varName {
		return false
	}
	if len(w.recent) > 0 && u.SeqNo <= w.recent[0].SeqNo {
		return false
	}
	if len(w.recent) < w.degree {
		w.recent = append(w.recent, Update{})
	}
	copy(w.recent[1:], w.recent)
	w.recent[0] = u
	return true
}

// Grow widens the window to the given degree in place, preserving the
// updates already held. Shared windows use it when a newly registered
// condition reads the same variable at a higher degree than any existing
// reader. Shrinking is not supported: a degree ≤ the current one is a
// no-op, so concurrent readers never observe history loss.
func (w *Window) Grow(degree int) {
	if degree <= w.degree {
		return
	}
	w.degree = degree
	if cap(w.recent) < degree {
		grown := make([]Update, len(w.recent), degree)
		copy(grown, w.recent)
		w.recent = grown
	}
}

// Degree returns the window's capacity (the paper's N).
func (w *Window) Degree() int { return w.degree }

// Full reports whether the window holds `degree` updates. H is undefined —
// and the condition cannot be evaluated — until the window is full
// (Section 2: "when the system is just starting up…Hx is undefined").
func (w *Window) Full() bool { return len(w.recent) == w.degree }

// Len returns the number of updates currently held.
func (w *Window) Len() int { return len(w.recent) }

// History snapshots the window as an immutable History value.
func (w *Window) History() History {
	h := History{Var: w.varName, Recent: make([]Update, len(w.recent))}
	copy(h.Recent, w.recent)
	return h
}

// Live returns a zero-copy view of the window as a History. The returned
// History aliases the window's storage: it is valid only until the next
// Push or Reset, and callers must not retain or mutate it. The CE's
// snapshot-free evaluation path reads through Live; alerts still embed
// immutable History snapshots.
func (w *Window) Live() History {
	return History{Var: w.varName, Recent: w.recent}
}

// Reset discards all state, as when a CE crashes and restarts without
// stable storage.
func (w *Window) Reset() { w.recent = w.recent[:0] }

// Restore replaces the window's contents with updates read back from a
// durable checkpoint, given most recent first as History.Recent holds
// them. The updates must carry the window's variable, hold strictly
// decreasing sequence numbers, and fit the degree; on any violation the
// window is left empty and an error returned, so a damaged checkpoint
// degrades to the Reset (crash-without-storage) behavior rather than a
// corrupt history.
func (w *Window) Restore(recent []Update) error {
	w.recent = w.recent[:0]
	if len(recent) > w.degree {
		return fmt.Errorf("event: restore of %d updates exceeds window degree %d for %q",
			len(recent), w.degree, w.varName)
	}
	for i, u := range recent {
		if u.Var != w.varName {
			return fmt.Errorf("event: restore for %q holds update for %q", w.varName, u.Var)
		}
		if i > 0 && u.SeqNo >= recent[i-1].SeqNo {
			return fmt.Errorf("event: restore for %q not strictly decreasing at index %d", w.varName, i)
		}
	}
	w.recent = append(w.recent, recent...)
	return nil
}
