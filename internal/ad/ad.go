// Package ad implements the Alert Displayer's filtering algorithms — the
// paper's core contribution. Algorithms AD-1 through AD-6 are transcribed
// from Appendix A:
//
//	AD-0  pass-through (no filtering; the corresponding non-replicated
//	      system N of Figure 2(b) uses it)
//	AD-1  exact duplicate removal (Figure A-1)
//	AD-2  single-variable orderedness (Figure A-2, maximally ordered by
//	      Theorem 5)
//	AD-3  single-variable consistency via Received/Missed sets
//	      (Figure A-3, maximally consistent by Theorem 7)
//	AD-4  AD-2 ∧ AD-3 (Figure A-4, maximally "ordered and consistent" by
//	      Theorem 9)
//	AD-5  multi-variable orderedness (Figure A-5)
//	AD-6  AD-5 ∧ multi-variable AD-3 (Figure A-6)
//
// Filters expose a two-phase Test/Accept API so that combinators like AD-4
// can ask "would every constituent pass this alert?" before committing any
// state. Offer performs the common test-then-accept sequence.
package ad

import (
	"fmt"

	"condmon/internal/event"
	"condmon/internal/seq"
)

// Filter is an AD filtering algorithm. Implementations are deterministic
// state machines over the stream of alerts offered to them. They are not
// safe for concurrent use; the runtime serializes access.
type Filter interface {
	// Name identifies the algorithm ("AD-1", …).
	Name() string
	// Test reports whether the alert would be passed through to the user,
	// without changing any state.
	Test(a event.Alert) bool
	// Accept records that the alert was displayed, updating state. Callers
	// must only Accept alerts for which Test returned true.
	Accept(a event.Alert)
}

// testAndSetter is implemented by filters whose test-then-accept sequence
// can be fused into a single state probe. Offer prefers it; the two-phase
// Test/Accept API remains the contract for combinators like AD-4, which
// must be able to test without committing.
type testAndSetter interface {
	testAndSet(a event.Alert) bool
}

// Offer runs the test-then-accept sequence and reports whether the alert
// was passed through to the output.
func Offer(f Filter, a event.Alert) bool {
	if ts, ok := f.(testAndSetter); ok {
		return ts.testAndSet(a)
	}
	if !f.Test(a) {
		return false
	}
	f.Accept(a)
	return true
}

// Run filters an already-interleaved alert stream and returns the output
// sequence A. It is the function M_{AD-i} of Appendix B for a fixed
// interleaving.
func Run(f Filter, alerts []event.Alert) []event.Alert {
	var out []event.Alert
	for _, a := range alerts {
		if Offer(f, a) {
			out = append(out, a)
		}
	}
	return out
}

// Passthrough is AD-0: every alert is displayed. A non-replicated system's
// AD performs no filtering, and Passthrough also serves as the identity
// element for comparisons between algorithms.
type Passthrough struct{}

var _ Filter = Passthrough{}

// NewPassthrough returns the AD-0 filter.
func NewPassthrough() Passthrough { return Passthrough{} }

// Name implements Filter.
func (Passthrough) Name() string { return "AD-0" }

// Test implements Filter.
func (Passthrough) Test(event.Alert) bool { return true }

// Accept implements Filter.
func (Passthrough) Accept(event.Alert) {}

// AD1 is Algorithm AD-1 (Exact Duplicate Removal, Figure A-1): an alert is
// discarded iff an identical alert — same condition, same history set — was
// already displayed.
type AD1 struct {
	seen map[string]struct{}
}

var _ Filter = (*AD1)(nil)

// NewAD1 returns a fresh AD-1 filter.
func NewAD1() *AD1 {
	return &AD1{seen: make(map[string]struct{})}
}

// Name implements Filter.
func (f *AD1) Name() string { return "AD-1" }

// Test implements Filter.
func (f *AD1) Test(a event.Alert) bool {
	_, dup := f.seen[a.Key()]
	return !dup
}

// Accept implements Filter.
func (f *AD1) Accept(a event.Alert) { f.seen[a.Key()] = struct{}{} }

// testAndSet fuses Test and Accept into one hash probe: the unconditional
// insert grows the map exactly when the alert is new. Combined with keys
// cached at alert construction, a duplicate Offer is a single map lookup
// with zero allocations.
func (f *AD1) testAndSet(a event.Alert) bool {
	before := len(f.seen)
	f.seen[a.Key()] = struct{}{}
	return len(f.seen) > before
}

// AD2 is Algorithm AD-2 (Figure A-2): discard any alert whose sequence
// number (with respect to the single monitored variable) does not exceed
// that of the last displayed alert. The output is trivially ordered, and by
// Theorem 5 no ordered algorithm passes strictly more alerts.
type AD2 struct {
	varName event.VarName
	last    int64
}

var _ Filter = (*AD2)(nil)

// NewAD2 returns a fresh AD-2 filter for the single variable v.
func NewAD2(v event.VarName) *AD2 {
	return &AD2{varName: v, last: -1}
}

// Name implements Filter.
func (f *AD2) Name() string { return "AD-2" }

// Test implements Filter.
func (f *AD2) Test(a event.Alert) bool {
	n, ok := a.SeqNo(f.varName)
	if !ok {
		return false
	}
	return n > f.last
}

// Accept implements Filter.
func (f *AD2) Accept(a event.Alert) { f.last = a.MustSeqNo(f.varName) }

// AD3 is Algorithm AD-3 (Figure A-3): the AD records, per displayed alert,
// which updates its history asserts were received and which it asserts were
// missed (the gaps in its spanning set). A new alert is discarded iff it
// conflicts — it asserts an update received that an earlier alert asserted
// missed, or vice versa. By Theorem 7 the resulting system is consistent
// and no consistent algorithm passes strictly more alerts.
//
// The multi-variable extension (used inside AD-6) keeps one Received/Missed
// pair per variable, as described in Section 5.2.
//
// AD-3 also removes exact duplicates. The Figure A-3 pseudo-code omits this
// step, but the paper requires it: the proof of Theorem 8 states that "AD-3
// filters out at least all the alerts filtered by AD-1", and Section 4.3's
// claim that AD-3's property table matches Table 1 outside the aggressive
// row needs duplicate removal for the orderedness of the lossless row
// (without it, a late-arriving duplicate re-displays an old sequence
// number).
type AD3 struct {
	// rm holds one Received/Missed pair per variable, in construction
	// order. A slice (scanned linearly — filters watch one or two
	// variables) replaces the two per-variable maps of the original
	// layout, and the sets inside are created on first Accept: building a
	// filter costs two allocations instead of seven, which is what a
	// registry churning thousands of registrations per second pays.
	rm []recvMiss
	// seen is the exact-duplicate index, also created on first Accept.
	seen map[string]struct{}
}

// recvMiss is one variable's consistency state: the updates displayed
// alerts assert were received, and the spanning-set gaps they assert were
// missed. Nil sets behave as empty (seq.Set lookups on a nil map miss);
// ensure materializes them before the first mutation.
type recvMiss struct {
	v        event.VarName
	received seq.Set
	missed   seq.Set
}

func (e *recvMiss) ensure() {
	if e.received == nil {
		e.received = make(seq.Set)
		e.missed = make(seq.Set)
	}
}

var _ Filter = (*AD3)(nil)

// NewAD3 returns a fresh AD-3 filter for the given variables (one for the
// single-variable algorithm of Figure A-3, several for the multi-variable
// extension).
func NewAD3(vars ...event.VarName) *AD3 {
	f := &AD3{rm: make([]recvMiss, len(vars))}
	for i, v := range vars {
		f.rm[i].v = v
	}
	return f
}

// Name implements Filter.
func (f *AD3) Name() string { return "AD-3" }

// Test implements Filter: exact-duplicate removal plus the Conflicts(H)
// predicate of Figure A-3.
func (f *AD3) Test(a event.Alert) bool {
	if _, dup := f.seen[a.Key()]; dup {
		return false
	}
	return !f.conflicts(a)
}

// conflicts is the Conflicts(H) predicate over every watched variable; a
// missing history also conflicts (the alert does not cover the filter).
func (f *AD3) conflicts(a event.Alert) bool {
	for i := range f.rm {
		e := &f.rm[i]
		h, ok := a.Histories[e.v]
		if !ok {
			return true
		}
		if conflict, fast := e.conflictsInOrder(h); fast {
			if conflict {
				return true
			}
			continue
		}
		// General path for histories that are not strictly in order (never
		// produced by a CE window, but the Filter contract allows them).
		win := h.SeqNosAscending().Set()
		// "foreach sequence number s in Hx: if (s in Missed) return True".
		for s := range win {
			if e.missed.Contains(s) {
				return true
			}
		}
		// "foreach s in SpanningSet(Hx): if (s not in Hx AND s in Received)
		// return True".
		for s := range seq.SpanningSet(win) {
			if !win.Contains(s) && e.received.Contains(s) {
				return true
			}
		}
	}
	return false
}

// conflictsInOrder is the Conflicts(H) predicate specialized for histories
// whose seqnos strictly ascend oldest→newest — the invariant of every
// window-built alert. It walks Recent once, probing Missed for window
// members and Received for the gaps between them, with no intermediate
// sets: the steady-state Offer allocates nothing. fast is false when the
// history violates the ordering invariant and the caller must take the
// general set-based path.
func (e *recvMiss) conflictsInOrder(h event.History) (conflict, fast bool) {
	rec := h.Recent // newest first
	var prev int64
	for i := len(rec) - 1; i >= 0; i-- {
		s := rec[i].SeqNo
		if i < len(rec)-1 {
			if s <= prev {
				return false, false
			}
			// The gaps (prev, s) are exactly SpanningSet(Hx) ∖ Hx.
			for g := prev + 1; g < s; g++ {
				if e.received.Contains(g) {
					return true, true
				}
			}
		}
		if e.missed.Contains(s) {
			return true, true
		}
		prev = s
	}
	return false, true
}

// Accept implements Filter: the UpdateState(H) procedure of Figure A-3.
func (f *AD3) Accept(a event.Alert) {
	if f.seen == nil {
		f.seen = make(map[string]struct{})
	}
	f.seen[a.Key()] = struct{}{}
	for i := range f.rm {
		e := &f.rm[i]
		e.ensure()
		if e.updateInOrder(a.Histories[e.v]) {
			continue
		}
		win := a.Histories[e.v].SeqNosAscending().Set()
		for s := range win {
			e.received.Add(s)
		}
		for s := range seq.SpanningSet(win) {
			if !win.Contains(s) {
				e.missed.Add(s)
			}
		}
	}
}

// testAndSet fuses the duplicate probe of Test with the insert of Accept:
// one map operation instead of a lookup followed by an insert. State after
// the call is identical to the two-phase sequence — a conflicting alert's
// key is backed out, so only displayed alerts are remembered.
func (f *AD3) testAndSet(a event.Alert) bool {
	if f.seen == nil {
		f.seen = make(map[string]struct{})
	}
	before := len(f.seen)
	key := a.Key()
	f.seen[key] = struct{}{}
	if len(f.seen) == before {
		return false // exact duplicate
	}
	if f.conflicts(a) {
		delete(f.seen, key)
		return false
	}
	for i := range f.rm {
		e := &f.rm[i]
		e.ensure()
		if e.updateInOrder(a.Histories[e.v]) {
			continue
		}
		win := a.Histories[e.v].SeqNosAscending().Set()
		for s := range win {
			e.received.Add(s)
		}
		for s := range seq.SpanningSet(win) {
			if !win.Contains(s) {
				e.missed.Add(s)
			}
		}
	}
	return true
}

// updateInOrder is UpdateState(H) specialized like conflictsInOrder; it
// reports false (having changed nothing) when the history is not strictly
// in order.
func (e *recvMiss) updateInOrder(h event.History) bool {
	rec := h.Recent
	for i := len(rec) - 1; i > 0; i-- {
		if rec[i].SeqNo >= rec[i-1].SeqNo {
			return false
		}
	}
	var prev int64
	for i := len(rec) - 1; i >= 0; i-- {
		s := rec[i].SeqNo
		if i < len(rec)-1 {
			for g := prev + 1; g < s; g++ {
				e.missed.Add(g)
			}
		}
		e.received.Add(s)
		prev = s
	}
	return true
}

// entry returns the consistency state for v, or nil when unwatched.
func (f *AD3) entry(v event.VarName) *recvMiss {
	for i := range f.rm {
		if f.rm[i].v == v {
			return &f.rm[i]
		}
	}
	return nil
}

// Received returns a copy of the Received set for v — the witness U′ used
// in the proof of Theorem 7 and by the consistency checker.
func (f *AD3) Received(v event.VarName) seq.Set {
	e := f.entry(v)
	if e == nil {
		return make(seq.Set)
	}
	out := make(seq.Set, len(e.received))
	for s := range e.received {
		out.Add(s)
	}
	return out
}

// Missed returns a copy of the Missed set for v.
func (f *AD3) Missed(v event.VarName) seq.Set {
	e := f.entry(v)
	if e == nil {
		return make(seq.Set)
	}
	out := make(seq.Set, len(e.missed))
	for s := range e.missed {
		out.Add(s)
	}
	return out
}

// AD5 is Algorithm AD-5 (Figure A-5): the multi-variable orderedness
// filter. It records the per-variable sequence numbers of the last
// displayed alert; a new alert conflicts if it inverts order on any
// variable, and is a duplicate if it equals the last alert on every
// variable. The pseudo-code in the paper is written for two variables; as
// the paper notes, it extends directly to any number, which this
// implementation does.
type AD5 struct {
	vars []event.VarName
	last map[event.VarName]int64
}

var _ Filter = (*AD5)(nil)

// NewAD5 returns a fresh AD-5 filter over the given variables.
func NewAD5(vars ...event.VarName) *AD5 {
	f := &AD5{vars: vars, last: make(map[event.VarName]int64, len(vars))}
	for _, v := range vars {
		f.last[v] = -1
	}
	return f
}

// Name implements Filter.
func (f *AD5) Name() string { return "AD-5" }

// Test implements Filter: the Conflicts(a) predicate of Figure A-5.
func (f *AD5) Test(a event.Alert) bool {
	allEqual := true
	for _, v := range f.vars {
		n, ok := a.SeqNo(v)
		if !ok {
			return false
		}
		if n < f.last[v] {
			return false // conflicting: order inversion on v
		}
		if n != f.last[v] {
			allEqual = false
		}
	}
	return !allEqual // all-equal means duplicate of the last alert
}

// Accept implements Filter: the UpdateState(a) procedure of Figure A-5.
func (f *AD5) Accept(a event.Alert) {
	for _, v := range f.vars {
		f.last[v] = a.MustSeqNo(v)
	}
}

// Combine is the conjunction combinator used by AD-4 and AD-6: an alert
// passes iff it passes every constituent, and constituent state advances
// only when the alert is displayed ("removes any alert that would be
// removed by either", Figure A-4).
type Combine struct {
	name    string
	filters []Filter
}

var _ Filter = (*Combine)(nil)

// NewCombine builds a conjunction filter with the given display name.
func NewCombine(name string, filters ...Filter) *Combine {
	return &Combine{name: name, filters: filters}
}

// Name implements Filter.
func (f *Combine) Name() string { return f.name }

// Test implements Filter.
func (f *Combine) Test(a event.Alert) bool {
	for _, g := range f.filters {
		if !g.Test(a) {
			return false
		}
	}
	return true
}

// Accept implements Filter.
func (f *Combine) Accept(a event.Alert) {
	for _, g := range f.filters {
		g.Accept(a)
	}
}

// NewAD4 returns Algorithm AD-4 (Figure A-4) for single variable v:
// guarantees both orderedness and consistency by discarding any alert that
// AD-2 or AD-3 would discard.
func NewAD4(v event.VarName) *Combine {
	return NewCombine("AD-4", NewAD2(v), NewAD3(v))
}

// NewAD6 returns Algorithm AD-6 (Figure A-6) for the given variables:
// AD-5 combined with the multi-variable version of AD-3.
func NewAD6(vars ...event.VarName) *Combine {
	return NewCombine("AD-6", NewAD5(vars...), NewAD3(vars...))
}

// Algorithm names accepted by NewByName, in the order they appear in the
// paper.
const (
	NameAD0 = "AD-0"
	NameAD1 = "AD-1"
	NameAD2 = "AD-2"
	NameAD3 = "AD-3"
	NameAD4 = "AD-4"
	NameAD5 = "AD-5"
	NameAD6 = "AD-6"
)

// NewByName constructs a fresh filter by algorithm name for the given
// variable set. AD-2/AD-3/AD-4 require exactly one variable; AD-5/AD-6
// accept any number. It powers the CLI tools' --ad flag.
func NewByName(name string, vars ...event.VarName) (Filter, error) {
	needSingle := func() error {
		if len(vars) != 1 {
			return fmt.Errorf("ad: %s is a single-variable algorithm, got %d variables", name, len(vars))
		}
		return nil
	}
	switch name {
	case NameAD0:
		return NewPassthrough(), nil
	case NameAD1:
		return NewAD1(), nil
	case NameAD2:
		if err := needSingle(); err != nil {
			return nil, err
		}
		return NewAD2(vars[0]), nil
	case NameAD3:
		if len(vars) == 0 {
			return nil, fmt.Errorf("ad: AD-3 needs at least one variable")
		}
		return NewAD3(vars...), nil
	case NameAD4:
		if err := needSingle(); err != nil {
			return nil, err
		}
		return NewAD4(vars[0]), nil
	case NameAD5:
		if len(vars) == 0 {
			return nil, fmt.Errorf("ad: AD-5 needs at least one variable")
		}
		return NewAD5(vars...), nil
	case NameAD6:
		if len(vars) == 0 {
			return nil, fmt.Errorf("ad: AD-6 needs at least one variable")
		}
		return NewAD6(vars...), nil
	default:
		return nil, fmt.Errorf("ad: unknown algorithm %q (known: AD-0 … AD-6)", name)
	}
}
