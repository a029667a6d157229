package ce

// Shared evaluation: one CE lane monitoring MANY conditions over ONE set of
// per-variable history windows, instead of one Evaluator (with private
// windows) per condition. Conditions are grouped by variable set into
// cond.Packs — evaluated in one pass per update with a fired-member set —
// and conditions the pack compiler cannot absorb fall back to private
// per-condition Evaluators (the heterogeneous stragglers), fed from the
// same update stream.
//
// The displayed-stream contract: for conditions registered before traffic
// starts, a SharedEvaluator fed a delivery sequence produces, per
// condition, exactly the alerts the per-condition Evaluators would produce
// from the same sequence — same histories, same order. (A condition
// registered mid-traffic instead sees the lane's warm shared windows and
// may fire immediately, where a cold private evaluator would first have to
// refill its windows; the registry documents this as a feature of live
// registration.) Two mechanisms preserve the contract:
//
//   - Gating: a pack member is evaluated only once every shared window
//     holds at least the member's own degree — the moment a private
//     evaluator's windows would have filled.
//
//   - Truncation: a firing member's alert embeds each window's most recent
//     updates at the member's own degree, so alert identities match the
//     private-window baseline even though the shared window is sized to the
//     maximum degree of its readers.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"condmon/internal/cond"
	"condmon/internal/event"
)

// SharedWindows is one shard-lane's update history store: a single
// event.Window per variable, shared by every co-sharded condition reading
// that variable, each sized to the maximum degree any reader requires.
type SharedWindows struct {
	wins map[event.VarName]*event.Window
}

// NewSharedWindows creates an empty store.
func NewSharedWindows() *SharedWindows {
	return &SharedWindows{wins: make(map[event.VarName]*event.Window)}
}

// Ensure returns the variable's window, created at the given degree or,
// when it exists, widened in place (Window.Grow) if a new reader needs
// deeper history: a window's pointer never changes once created.
func (s *SharedWindows) Ensure(v event.VarName, degree int) (*event.Window, error) {
	if w, ok := s.wins[v]; ok {
		w.Grow(degree)
		return w, nil
	}
	w, err := event.NewWindow(v, degree)
	if err != nil {
		return nil, err
	}
	s.wins[v] = w
	return w, nil
}

// Window returns the variable's window, or nil when untracked.
func (s *SharedWindows) Window(v event.VarName) *event.Window { return s.wins[v] }

// Len returns the number of tracked variables.
func (s *SharedWindows) Len() int { return len(s.wins) }

// MemberAlert is one fired condition from a shared evaluation pass. Token
// echoes the registration token (the registry's epoch), letting the alert
// fan-in fence alerts that were in flight when their condition was
// unregistered.
type MemberAlert struct {
	Token uint64
	Alert event.Alert
}

// Ref identifies a registered condition within a SharedEvaluator, for
// Unregister.
type Ref struct {
	ps *packState
	st *straggler
	id int32
}

// packState is one cond.Pack plus the per-member metadata the evaluator
// needs to emit alerts: registration tokens and per-variable degrees for
// history truncation.
type packState struct {
	pack *cond.Pack
	sig  string // the pack's key in SharedEvaluator.packs
	// slots lists the pack's variables, ascending, each with its shared
	// window: what a firing member's alert is snapshotted from. ws holds
	// the same windows in the same order, as Pack.EvalWindows reads them.
	slots []winSlot
	ws    []*event.Window
	meta  map[int32]memberMeta
}

type memberMeta struct {
	token uint64
	// degs is the member's degree per pack variable, in slots order, used
	// to truncate alert histories to the member's own view.
	degs []int
	// key is the canonical form of degs: members with equal keys that fire
	// on the same update share one history snapshot.
	key string
}

// firedSnap is the alert of the first member of one degree signature to
// fire in a pass; later members of the same signature derive theirs from it.
type firedSnap struct {
	key   string
	alert event.Alert
}

// straggler is a condition outside the pack compiler's reach, evaluated by
// a private per-condition Evaluator fed the same deliveries.
type straggler struct {
	ev    *Evaluator
	token uint64
	live  bool
}

// SharedEvaluator is one CE lane of one shard: it owns the lane's shared
// windows and evaluates every registered condition — pack members in one
// pass per pack, stragglers individually — against each delivered update.
// Like Evaluator, it is not safe for concurrent use; runtime.Engine
// guards each lane, and every VarLane record held from it, with its
// shard's lock.
type SharedEvaluator struct {
	id   string
	wins *SharedWindows
	// noPacks disables grouping: every condition becomes a straggler with
	// private windows. It is the per-condition baseline the equivalence
	// suite compares pack evaluation against.
	noPacks bool

	packs map[string]*packState // keyed by variable-set signature
	vars  map[event.VarName]*VarLane

	nMembers    int
	nStragglers int

	fired []int32     // scratch for Pack.EvalWindows
	snaps []firedSnap // scratch: one entry per degree signature fired in a pass
	m     *Metrics

	// journal, when set, receives every update delivered to the lane (in
	// delivery order, before any window mutates) so a durable layer can
	// log it; nil keeps the hot path at one nil check. Replay via Absorb
	// bypasses it.
	journal func(event.Update) error
}

// NewSharedEvaluator creates an empty lane evaluator with the given
// identity ("CE1", "CE2", …); emitted alerts carry it as Source. noPacks
// selects the per-condition baseline mode (see SharedEvaluator).
func NewSharedEvaluator(id string, noPacks bool) (*SharedEvaluator, error) {
	if id == "" {
		return nil, fmt.Errorf("ce: shared evaluator id must be non-empty")
	}
	return &SharedEvaluator{
		id:      id,
		wins:    NewSharedWindows(),
		noPacks: noPacks,
		packs:   make(map[string]*packState),
		vars:    make(map[event.VarName]*VarLane),
	}, nil
}

// VarLane is one variable's record on a lane: its shared window and every
// pack and straggler reading it — all an update of the variable is fed
// through. A record is created at the variable's first registration and
// never freed, and Register and Unregister keep it current in place, so a
// record held across them (FeedLane's handle) stays valid for the lane's
// lifetime.
type VarLane struct {
	w      *event.Window // nil until a pack reads the variable
	packs  []*packState
	strags []*straggler
}

// Lane returns the variable's record, or nil when no condition registered
// on the lane has read it.
func (s *SharedEvaluator) Lane(v event.VarName) *VarLane { return s.vars[v] }

// lane returns the variable's record, creating it on first use.
func (s *SharedEvaluator) lane(v event.VarName) *VarLane {
	vl := s.vars[v]
	if vl == nil {
		vl = &VarLane{}
		s.vars[v] = vl
	}
	return vl
}

// ID returns the lane identity.
func (s *SharedEvaluator) ID() string { return s.id }

// SetMetrics attaches (or detaches) shared instrumentation; straggler
// evaluators receive the same Metrics. Call before feeding updates.
func (s *SharedEvaluator) SetMetrics(m *Metrics) { s.m = m }

// Packs returns the number of live packs.
func (s *SharedEvaluator) Packs() int { return len(s.packs) }

// PackMembers returns the number of live pack-member conditions.
func (s *SharedEvaluator) PackMembers() int { return s.nMembers }

// Stragglers returns the number of live per-condition fallback evaluators.
func (s *SharedEvaluator) Stragglers() int { return s.nStragglers }

// Windows returns the lane's shared window store.
func (s *SharedEvaluator) Windows() *SharedWindows { return s.wins }

// varsSig is the pack key: the sorted, deduplicated variable set.
func varsSig(vars []event.VarName) string {
	n := 0
	for _, v := range vars {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for _, v := range vars {
		b = append(b, v...)
		b = append(b, 0)
	}
	return string(b)
}

// Register adds a condition to the lane under the given token. Packable
// conditions join (or create) the pack for their variable set; everything
// else gets a private straggler Evaluator. The returned Ref is the handle
// for Unregister.
func (s *SharedEvaluator) Register(c cond.Condition, token uint64) (Ref, error) {
	if !s.noPacks && cond.Packable(c) {
		vars := c.Vars()
		sig := varsSig(vars)
		ps, ok := s.packs[sig]
		if !ok {
			ps = &packState{pack: cond.NewPack(vars...), sig: sig, meta: make(map[int32]memberMeta)}
			for _, v := range ps.pack.Vars() {
				ps.slots = append(ps.slots, winSlot{v: v})
			}
			ps.ws = make([]*event.Window, len(ps.slots))
		}
		if id, added := ps.pack.Add(c); added {
			// Size the shared windows before the pack can be evaluated.
			for i := range ps.slots {
				sl := &ps.slots[i]
				w, err := s.wins.Ensure(sl.v, ps.pack.Degree(sl.v))
				if err != nil {
					ps.pack.Remove(id)
					return Ref{}, fmt.Errorf("ce: %s: register %q: %w", s.id, c.Name(), err)
				}
				if sl.w == nil { // a new pack's first member
					sl.w, ps.ws[i] = w, w
					s.lane(sl.v).w = w
				}
			}
			degs := make([]int, len(ps.slots))
			key := make([]byte, 0, 2*len(ps.slots))
			for i, sl := range ps.slots {
				degs[i] = c.Degree(sl.v)
				key = strconv.AppendInt(key, int64(degs[i]), 10)
				key = append(key, ',')
			}
			ps.meta[id] = memberMeta{token: token, degs: degs, key: string(key)}
			if !ok {
				s.packs[sig] = ps
				for _, sl := range ps.slots {
					vl := s.vars[sl.v]
					vl.packs = append(vl.packs, ps)
				}
			}
			s.nMembers++
			return Ref{ps: ps, id: id}, nil
		}
		// The pack declined (e.g. duplicated variables in the set); fall
		// through to a straggler.
	}
	ev, err := New(s.id, c)
	if err != nil {
		return Ref{}, err
	}
	ev.SetMetrics(s.m)
	st := &straggler{ev: ev, token: token, live: true}
	for _, v := range c.Vars() {
		vl := s.lane(v)
		vl.strags = append(vl.strags, st)
	}
	s.nStragglers++
	return Ref{st: st}, nil
}

// Unregister removes a previously registered condition. The lane stops
// evaluating it immediately; a pack left without members leaves the lane.
// Shared windows persist (degrees never shrink) so remaining readers are
// unaffected. Unregistering a zero or stale Ref is a no-op.
func (s *SharedEvaluator) Unregister(r Ref) {
	switch {
	case r.ps != nil:
		if _, ok := r.ps.meta[r.id]; !ok {
			return
		}
		r.ps.pack.Remove(r.id)
		delete(r.ps.meta, r.id)
		s.nMembers--
		if r.ps.pack.Len() == 0 {
			delete(s.packs, r.ps.sig)
			for _, sl := range r.ps.slots {
				vl := s.vars[sl.v]
				vl.packs = slices.DeleteFunc(vl.packs, func(ps *packState) bool { return ps == r.ps })
			}
		}
	case r.st != nil && r.st.live:
		r.st.live = false
		for _, v := range r.st.ev.Condition().Vars() {
			vl := s.vars[v]
			vl.strags = slices.DeleteFunc(vl.strags, func(st *straggler) bool { return st == r.st })
		}
		s.nStragglers--
	}
}

// Feed delivers one update to the lane: FeedLane through the record of
// the update's variable.
func (s *SharedEvaluator) Feed(u event.Update, out []MemberAlert) ([]MemberAlert, error) {
	return s.FeedLane(s.vars[u.Var], u, out)
}

// FeedLane delivers one update through vl, the record Lane returned for
// the update's variable (nil when it had none): one shared-window push,
// one evaluation pass per pack reading the variable, one private Feed per
// straggler reading it. Alerts of every firing condition are appended to
// out in registration order (per pack, then stragglers). Evaluation errors
// do not stop the pass; the first is returned at the end.
func (s *SharedEvaluator) FeedLane(vl *VarLane, u event.Update, out []MemberAlert) ([]MemberAlert, error) {
	var firstErr error
	if s.journal != nil {
		// Journal the delivery itself, not its effects: the replayed
		// sequence re-derives every window (shared and straggler) exactly,
		// as long as the registration set matches the journaled run.
		if err := s.journal(u); err != nil {
			firstErr = fmt.Errorf("ce: %s: journal: %w", s.id, err)
		}
	}
	if vl == nil {
		return out, firstErr
	}
	if w := vl.w; w != nil {
		if w.TryPush(u) {
			s.m.incFed()
			for _, ps := range vl.packs {
				var err error
				s.fired, err = ps.pack.EvalWindows(ps.ws, s.fired[:0])
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("ce: %s: %w", s.id, err)
				}
				// One truncated snapshot per distinct degree signature within
				// this (update, pack): members of equal degrees share the same
				// immutable histories (alerts never mutate them) and differ
				// only in the name their key starts with.
				s.snaps = s.snaps[:0]
				for _, id := range s.fired {
					meta, ok := ps.meta[id]
					if !ok {
						continue
					}
					s.m.incFired()
					out = append(out, MemberAlert{
						Token: meta.token,
						Alert: s.memberAlert(ps, ps.pack.MemberName(id), meta),
					})
				}
			}
		} else {
			s.m.incDiscarded()
		}
	}
	for _, st := range vl.strags {
		a, fired, err := st.ev.Feed(u)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if fired {
			out = append(out, MemberAlert{Token: st.token, Alert: a})
		}
	}
	return out, firstErr
}

// memberAlert builds the alert of one fired pack member: derived from the
// pass's earlier alert of the same degree signature when there is one,
// snapshotted from the pack's windows at the member's degrees otherwise.
func (s *SharedEvaluator) memberAlert(ps *packState, name string, meta memberMeta) event.Alert {
	for i := range s.snaps {
		if s.snaps[i].key == meta.key {
			return s.snaps[i].alert.WithCond(name)
		}
	}
	var stack [4]event.History
	a := event.NewAlertOf(name, snapshotHistories(stack[:0], ps.slots, meta.degs), s.id)
	s.snaps = append(s.snaps, firedSnap{key: meta.key, alert: a})
	return a
}

// SetJournal attaches (or, with nil, detaches) a durable journal sink: fn
// is called with every update Feed delivers, in delivery order, before
// any window mutates. A journal error surfaces as the Feed's first error.
// Call before feeding updates — not synchronized against a concurrent
// Feed.
func (s *SharedEvaluator) SetJournal(fn func(event.Update) error) { s.journal = fn }

// Absorb re-applies one journaled delivery during recovery: shared-window
// push plus straggler pushes, with no evaluation, no journaling, and no
// metrics. Replay order must match journal order; re-applied prefixes
// (a delta also covered by a later checkpoint) are rejected as stale by
// the windows and harmless.
func (s *SharedEvaluator) Absorb(u event.Update) {
	vl := s.vars[u.Var]
	if vl == nil {
		return
	}
	if vl.w != nil {
		vl.w.TryPush(u)
	}
	for _, st := range vl.strags {
		st.ev.Absorb(u)
	}
}

// Crash simulates a fail-stop restart of the whole lane without stable
// storage: shared windows and every straggler's private windows empty, as
// Evaluator.Crash does for a single condition.
func (s *SharedEvaluator) Crash() {
	for _, w := range s.wins.wins {
		w.Reset()
	}
	s.visitStragglers(func(ev *Evaluator) { ev.Crash() })
}

// SharedWindowStates snapshots every shared window for checkpointing, in
// sorted variable order so the encoding is deterministic. The histories
// are deep copies.
func (s *SharedEvaluator) SharedWindowStates() []event.History {
	vars := make([]string, 0, len(s.wins.wins))
	for v := range s.wins.wins {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	out := make([]event.History, 0, len(vars))
	for _, v := range vars {
		out = append(out, s.wins.wins[event.VarName(v)].History())
	}
	return out
}

// RestoreSharedWindows loads checkpointed shared histories back into the
// lane. It is deliberately lenient about registration drift: states for
// variables no longer tracked are skipped, and states deeper than the
// current window degree keep only their most recent entries — a restarted
// lane with a changed condition set recovers what still applies.
func (s *SharedEvaluator) RestoreSharedWindows(states []event.History) error {
	for _, h := range states {
		w := s.wins.Window(h.Var)
		if w == nil {
			continue
		}
		recent := h.Recent
		if len(recent) > w.Degree() {
			recent = recent[:w.Degree()]
		}
		if err := w.Restore(recent); err != nil {
			return fmt.Errorf("ce: %s: %w", s.id, err)
		}
	}
	return nil
}

// VisitStragglers calls fn once per live straggler evaluator, in condition
// name order (deterministic for checkpoint encoding).
func (s *SharedEvaluator) VisitStragglers(fn func(ev *Evaluator)) { s.visitStragglers(fn) }

func (s *SharedEvaluator) visitStragglers(fn func(ev *Evaluator)) {
	seen := make(map[*straggler]bool, s.nStragglers)
	evs := make([]*Evaluator, 0, s.nStragglers)
	for _, vl := range s.vars {
		for _, st := range vl.strags {
			if st.live && !seen[st] {
				seen[st] = true
				evs = append(evs, st.ev)
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		return evs[i].Condition().Name() < evs[j].Condition().Name()
	})
	for _, ev := range evs {
		fn(ev)
	}
}

// StragglerFor returns the live straggler evaluator monitoring the named
// condition, or nil — the recovery router for checkpointed straggler
// window sets.
func (s *SharedEvaluator) StragglerFor(name string) *Evaluator {
	for _, vl := range s.vars {
		for _, st := range vl.strags {
			if st.live && st.ev.Condition().Name() == name {
				return st.ev
			}
		}
	}
	return nil
}
