package cond

// Pack is the shared-evaluation engine's compilation unit: a dynamic group
// of conditions over the same variable set, evaluated together in one pass
// per update instead of one pass per condition. It generalizes the
// Appendix D disjunction trick (multicond.Reduce) from "evaluate the OR
// once" to "evaluate the whole group once and report WHICH members fired",
// and adds two sublinearity levers:
//
//   - Comparison members — a strict "E > c" or "E < c" against a constant,
//     in either operand order — are filed under their subject E: one per
//     distinct E (and degree signature), holding E's compiled code and a
//     pair of sorted limit indexes. Threshold values are the subject x[0],
//     Rise the subject x[0] - x[-1], AbsDiff abs(x[0] - y[0]). One
//     evaluation of E and one binary search per direction find every fired
//     member of the subject, so per-update cost is O(subjects · log n +
//     fired) rather than O(n).
//
//   - Every other member is an expression member, lowered through the
//     CSE-interning compiler (see compileCtx): syntactically identical
//     interior subexpressions — subjects included — compile once and
//     evaluate once per round, shared across members via memo cells.
//
// A Pack is NOT safe for concurrent use: like a bound Program, it is owned
// by a single evaluation goroutine (one CE lane of one shard).

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"condmon/internal/event"
)

// thrMergeLimit bounds the pending run of a threshold index.
// Registrations append to pending in O(1); when the run fills it is merged
// into the main run, amortizing bulk registration to O(n log n) total
// instead of O(n²) for naive sorted insertion.
const thrMergeLimit = 1024

// thrEntry is one comparison member: fire when the subject's value passes
// limit in the index's direction.
type thrEntry struct {
	limit float64
	id    int32
}

// thrIndex is a sorted limit index for one comparison direction: a main
// run and a short pending run, both ascending by limit when read. Removal
// is tombstoned: dead ids are skipped during evaluation and physically
// dropped when they outnumber the live entries.
type thrIndex struct {
	// above selects "value > limit" members; false selects "value < limit".
	above   bool
	sorted  []thrEntry // ascending by limit
	pending []thrEntry // recent additions, ascending unless dirty
	// dirty records an out-of-order append to pending since it was last
	// sorted; the next read sorts it in place.
	dirty bool
	dead  map[int32]struct{}
}

func (t *thrIndex) add(limit float64, id int32) {
	if n := len(t.pending); n > 0 && limit < t.pending[n-1].limit {
		t.dirty = true
	}
	t.pending = append(t.pending, thrEntry{limit: limit, id: id})
	if len(t.pending) >= thrMergeLimit {
		t.merge()
	}
}

func (t *thrIndex) sortPending() {
	slices.SortFunc(t.pending, func(a, b thrEntry) int { return cmp.Compare(a.limit, b.limit) })
	t.dirty = false
}

// merge folds the pending run into the main run: one linear pass over two
// sorted runs.
func (t *thrIndex) merge() {
	if t.dirty {
		t.sortPending()
	}
	merged := make([]thrEntry, 0, len(t.sorted)+len(t.pending))
	i, j := 0, 0
	for i < len(t.sorted) && j < len(t.pending) {
		if t.sorted[i].limit <= t.pending[j].limit {
			merged = append(merged, t.sorted[i])
			i++
		} else {
			merged = append(merged, t.pending[j])
			j++
		}
	}
	merged = append(merged, t.sorted[i:]...)
	merged = append(merged, t.pending[j:]...)
	t.sorted = merged
	t.pending = t.pending[:0]
}

func (t *thrIndex) remove(id int32) {
	if t.dead == nil {
		t.dead = make(map[int32]struct{})
	}
	t.dead[id] = struct{}{}
	if len(t.dead)*2 > len(t.sorted)+len(t.pending) {
		t.compact()
	}
}

// compact physically drops tombstoned entries, keeping both runs' order.
func (t *thrIndex) compact() {
	keepS := t.sorted[:0]
	for _, e := range t.sorted {
		if _, gone := t.dead[e.id]; !gone {
			keepS = append(keepS, e)
		}
	}
	t.sorted = keepS
	keepP := t.pending[:0]
	for _, e := range t.pending {
		if _, gone := t.dead[e.id]; !gone {
			keepP = append(keepP, e)
		}
	}
	t.pending = keepP
	t.dead = nil
}

// appendFired appends the ids of every member triggered by val: a
// binary-searched prefix (above) or suffix (below) of each run. The first
// read after an out-of-order add sorts the pending run first.
func (t *thrIndex) appendFired(val float64, fired []int32) []int32 {
	if math.IsNaN(val) {
		// No strict comparison against NaN holds; the search below would
		// misclassify it, so short-circuit to "nothing fires".
		return fired
	}
	if t.dirty {
		t.sortPending()
	}
	for _, run := range [2][]thrEntry{t.sorted, t.pending} {
		if t.above {
			run = run[:cut(run, val, false)]
		} else {
			run = run[cut(run, val, true):]
		}
		for _, e := range run {
			if len(t.dead) > 0 {
				if _, gone := t.dead[e.id]; gone {
					continue
				}
			}
			fired = append(fired, e.id)
		}
	}
	return fired
}

// cut returns the length of the run's prefix whose limits are below val
// (orEqual: at most val).
func cut(run []thrEntry, val float64, orEqual bool) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l := run[mid].limit; l < val || orEqual && l == val {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// subject is one comparison subject E of a pack: every live "E > c" /
// "E < c" member of one degree signature, filed by limit.
type subject struct {
	// key is canonKey(E) plus the degree signature, the pack's index key.
	key string
	// degs is the members' shared per-variable degree, aligned with
	// Pack.vars: the subject is evaluated only once every slot holds it.
	degs  []int
	code  evalFn
	above thrIndex
	below thrIndex
	liveN int
}

// index returns the subject's index for one comparison direction.
func (s *subject) index(above bool) *thrIndex {
	if above {
		return &s.above
	}
	return &s.below
}

// lowest returns the subject's lowest live member id, the one its
// evaluation errors are reported under.
func (s *subject) lowest() int32 {
	low := int32(math.MaxInt32)
	for _, t := range [2]*thrIndex{&s.above, &s.below} {
		for _, run := range [2][]thrEntry{t.sorted, t.pending} {
			for _, e := range run {
				if _, gone := t.dead[e.id]; !gone && e.id < low {
					low = e.id
				}
			}
		}
	}
	return low
}

// packMember is one registered condition inside a Pack.
type packMember struct {
	name string
	// degs is an expression member's per-variable degree, aligned with
	// Pack.vars; a member is evaluated only once every slot holds at least
	// its degree, mirroring a private evaluator's not-yet-full gating.
	degs []int
	// code is an expression member's compiled expression.
	code evalFn
	// sub is a comparison member's subject, nil for expression members;
	// above picks the subject's index holding it.
	sub   *subject
	above bool
	live  bool
}

// Pack evaluates a dynamic group of same-variable-set conditions in one
// pass per update. Member ids are monotonically increasing and never
// reused, so ascending id order is registration order.
type Pack struct {
	vars    []event.VarName
	slot    map[event.VarName]int
	maxDegs []int
	env     env
	intern  map[string]compiled
	members []packMember
	// exprIDs lists live expression members in arbitrary order (removal is
	// swap-delete); EvalAppend sorts fired ids so evaluation order never
	// shows through. subjects is likewise unordered.
	exprIDs  []int32
	subjects []*subject
	byKey    map[string]*subject
	liveN    int
	// Add's scratch: the member's degrees as a slice and as a map, and
	// its subject key. Compiled code reads degrees only while compiling,
	// and a subject or expression member keeps a copy of degs.
	degs    []int
	degrees map[event.VarName]int
	keyBuf  []byte
}

// NewPack creates an empty pack over the given variable set. The set is
// sorted and deduplicated; it is fixed for the pack's lifetime and every
// member's variable set must equal it exactly.
func NewPack(vars ...event.VarName) *Pack {
	vs := make([]event.VarName, len(vars))
	copy(vs, vars)
	vs = sortedVars(vs)
	vs = slices.Compact(vs)
	p := &Pack{
		vars:    vs,
		slot:    make(map[event.VarName]int, len(vs)),
		maxDegs: make([]int, len(vs)),
		intern:  make(map[string]compiled),
		byKey:   make(map[string]*subject),
		degrees: make(map[event.VarName]int, len(vs)),
	}
	for i, v := range vs {
		p.slot[v] = i
	}
	p.env.slots = make([]event.History, len(vs))
	return p
}

// Vars returns the pack's variable set, sorted.
func (p *Pack) Vars() []event.VarName {
	out := make([]event.VarName, len(p.vars))
	copy(out, p.vars)
	return out
}

// Len returns the number of live members.
func (p *Pack) Len() int { return p.liveN }

// Degree returns the widest degree any member (past or present) has
// required for v — the size the shared window must keep. It never shrinks
// on removal, so a window sized from it stays valid without coordination.
func (p *Pack) Degree(v event.VarName) int {
	i, ok := p.slot[v]
	if !ok {
		return 0
	}
	return p.maxDegs[i]
}

// MemberName returns the condition name registered under id, or "" if the
// id is out of range or the member was removed.
func (p *Pack) MemberName(id int32) string {
	if id < 0 || int(id) >= len(p.members) || !p.members[id].live {
		return ""
	}
	return p.members[id].name
}

// Packable reports whether Add accepts the condition. Unpackable
// conditions (opaque Funcs, scripted PairSets, Or-combinations, …) fall
// back to per-condition evaluation — the heterogeneous-straggler path.
func Packable(c Condition) bool {
	switch c.(type) {
	case Threshold, Rise, Drop, AbsDiff, GreaterThan, *Expr:
		return true
	default:
		return false
	}
}

// packAST lowers a packable condition to a DSL syntax tree equivalent to
// its EvalView. Built-ins are synthesized (Rise's guard becomes
// consecutive(v), Drop's zero-divisor guard becomes a short-circuit
// conjunct), so subjects and CSE apply uniformly across built-in and
// parsed members.
func packAST(c Condition) (expr, bool) {
	switch t := c.(type) {
	case Threshold:
		op := tokLT
		if t.Above {
			op = tokGT
		}
		return binary{op: op, l: varRef{varName: t.Var}, r: numLit{val: t.Limit}}, true
	case Rise:
		rise := binary{
			op: tokGT,
			l:  binary{op: tokMinus, l: varRef{varName: t.Var}, r: varRef{varName: t.Var, offset: -1}},
			r:  numLit{val: t.Delta},
		}
		if t.Consecutive {
			return binary{op: tokAnd, l: rise, r: consecutiveRef{varName: t.Var}}, true
		}
		return rise, true
	case Drop:
		prev := varRef{varName: t.Var, offset: -1}
		ratio := binary{
			op: tokGT,
			l: binary{op: tokSlash,
				l: binary{op: tokMinus, l: prev, r: varRef{varName: t.Var}},
				r: prev},
			r: numLit{val: t.Frac},
		}
		guarded := binary{op: tokAnd, l: binary{op: tokNE, l: prev, r: numLit{}}, r: ratio}
		if t.Consecutive {
			return binary{op: tokAnd, l: consecutiveRef{varName: t.Var}, r: guarded}, true
		}
		return guarded, true
	case AbsDiff:
		return binary{
			op: tokGT,
			l:  call{fn: "abs", args: []expr{binary{op: tokMinus, l: varRef{varName: t.X}, r: varRef{varName: t.Y}}}},
			r:  numLit{val: t.Limit},
		}, true
	case GreaterThan:
		return binary{op: tokGT, l: varRef{varName: t.X}, r: varRef{varName: t.Y}}, true
	case *Expr:
		return t.root, true
	default:
		return nil, false
	}
}

// comparisonShape recognizes subject members: a strict comparison between
// a non-constant subexpression E and a non-NaN constant, in either operand
// order. Inclusive comparisons stay expression members — the index
// implements strict semantics only — and so does a NaN constant, which no
// sorted run can hold.
func comparisonShape(root expr) (subj expr, limit float64, above, ok bool) {
	b, isBin := root.(binary)
	if !isBin || (b.op != tokGT && b.op != tokLT) {
		return nil, 0, false, false
	}
	lv, lc := constValue(b.l)
	rv, rc := constValue(b.r)
	switch {
	case rc && !lc && !math.IsNaN(rv): // E > c, E < c
		return b.l, rv, b.op == tokGT, true
	case lc && !rc && !math.IsNaN(lv): // c < E ≡ E > c, c > E ≡ E < c
		return b.r, lv, b.op == tokLT, true
	}
	return nil, 0, false, false
}

// constValue reports the value of a literal, possibly negated.
func constValue(e expr) (float64, bool) {
	switch n := e.(type) {
	case numLit:
		return n.val, true
	case unary:
		if n.op == tokMinus {
			v, ok := constValue(n.x)
			return -v, ok
		}
	}
	return 0, false
}

// Add registers a condition with the pack and returns its member id. It
// returns ok=false — leaving the pack unchanged — when the condition is
// not packable or its variable set differs from the pack's; the caller
// then falls back to a private per-condition evaluator.
func (p *Pack) Add(c Condition) (int32, bool) {
	root, ok := packAST(c)
	if !ok {
		return 0, false
	}
	cv := c.Vars()
	if len(cv) != len(p.vars) {
		return 0, false
	}
	for i, v := range cv {
		if v != p.vars[i] {
			return 0, false
		}
	}
	id := int32(len(p.members))
	m := packMember{name: c.Name(), live: true}
	p.degs = p.degs[:0]
	for i, v := range p.vars {
		d := c.Degree(v)
		p.degs = append(p.degs, d)
		p.degrees[v] = d
		p.maxDegs[i] = max(p.maxDegs[i], d)
	}
	if e, limit, above, isCmp := comparisonShape(root); isCmp {
		s := p.subjectOf(e)
		m.sub, m.above = s, above
		s.index(above).add(limit, id)
		s.liveN++
	} else {
		cx := &compileCtx{slot: p.slot, degrees: p.degrees, intern: p.intern}
		m.degs = slices.Clone(p.degs)
		m.code = compileExpr(root, cx).eval()
		p.exprIDs = append(p.exprIDs, id)
	}
	p.members = append(p.members, m)
	p.liveN++
	return id, true
}

// subjectOf returns the pack's subject for E at the degrees of the member
// being added, compiling a new one on first use.
func (p *Pack) subjectOf(e expr) *subject {
	p.keyBuf = appendCanonKey(p.keyBuf[:0], e, p.degrees)
	for _, d := range p.degs {
		p.keyBuf = append(p.keyBuf, '|')
		p.keyBuf = strconv.AppendInt(p.keyBuf, int64(d), 10)
	}
	if s, ok := p.byKey[string(p.keyBuf)]; ok {
		return s
	}
	cx := &compileCtx{slot: p.slot, degrees: p.degrees, intern: p.intern}
	s := &subject{
		key:   string(p.keyBuf),
		degs:  slices.Clone(p.degs),
		code:  compileExpr(e, cx).eval(),
		above: thrIndex{above: true},
	}
	p.byKey[s.key] = s
	p.subjects = append(p.subjects, s)
	return s
}

// Remove unregisters a member. Removing an unknown or already-removed id
// is a no-op. Ids are never reused. A subject left without members leaves
// the pack.
func (p *Pack) Remove(id int32) {
	if id < 0 || int(id) >= len(p.members) || !p.members[id].live {
		return
	}
	m := &p.members[id]
	m.live = false
	if s := m.sub; s != nil {
		s.index(m.above).remove(id)
		if s.liveN--; s.liveN == 0 {
			delete(p.byKey, s.key)
			i := slices.Index(p.subjects, s)
			last := len(p.subjects) - 1
			p.subjects[i] = p.subjects[last]
			p.subjects[last] = nil
			p.subjects = p.subjects[:last]
		}
		m.sub = nil
	} else {
		i := slices.Index(p.exprIDs, id)
		last := len(p.exprIDs) - 1
		p.exprIDs[i] = p.exprIDs[last]
		p.exprIDs = p.exprIDs[:last]
		m.code = nil
	}
	m.degs = nil
	p.liveN--
}

// ready reports whether every slot holds at least degs entries.
func (p *Pack) ready(degs []int) bool {
	for i, d := range degs {
		if len(p.env.slots[i].Recent) < d {
			return false
		}
	}
	return true
}

// EvalAppend evaluates every member against the view and appends the ids
// of those that fired, sorted ascending (= registration order). A member
// whose per-variable degree is not yet met is skipped, exactly as a
// private evaluator would skip evaluation while its windows fill. Member
// evaluation errors do not stop the pass: remaining members still
// evaluate, and the first error is returned alongside the fired set. A
// subject whose evaluation fails fires none of its members and reports the
// error once, under its lowest live member's name.
func (p *Pack) EvalAppend(h event.HistoryView, fired []int32) ([]int32, error) {
	for i, v := range p.vars {
		hv, ok := h.HistoryOf(v)
		if !ok {
			return fired, errMissingVar("pack", v)
		}
		p.env.slots[i] = hv
	}
	p.env.round++
	start := len(fired)
	var firstErr error
	for _, s := range p.subjects {
		if !p.ready(s.degs) {
			continue
		}
		p.env.err = nil
		val := s.code(&p.env)
		if p.env.err != nil {
			if firstErr == nil {
				// Errors are rare: re-run E under the reporting member's
				// name rather than resolve that name on every update. A
				// failed evaluation caches nothing, so the re-run fails
				// the same way.
				p.env.name = p.members[s.lowest()].name
				p.env.err = nil
				s.code(&p.env)
				firstErr = p.env.err
			}
			continue
		}
		fired = s.above.appendFired(val, fired)
		fired = s.below.appendFired(val, fired)
	}
	for _, id := range p.exprIDs {
		m := &p.members[id]
		if !p.ready(m.degs) {
			continue
		}
		p.env.name = m.name
		p.env.err = nil
		got := m.code(&p.env)
		if p.env.err != nil {
			if firstErr == nil {
				firstErr = p.env.err
			}
			continue
		}
		if got != 0 {
			fired = append(fired, id)
		}
	}
	slices.Sort(fired[start:])
	return fired, firstErr
}
