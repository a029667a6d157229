// Package ce implements the Condition Evaluator: the component that
// receives data updates, maintains per-variable update histories, evaluates
// a condition, and emits alerts (Section 2 of the paper).
//
// The package exposes both a stateful Evaluator — the building block of
// live systems — and the pure mapping T (Section 3, Figure 2) that sends an
// update sequence to the alert sequence a CE would generate from it. The
// two are the same code path: T runs a fresh Evaluator over the sequence.
package ce

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/obs"
)

// Metrics is the evaluator's optional instrumentation. Every field may be
// nil (obs metrics no-op on nil receivers), the whole struct may be nil
// (the default — SetMetrics was never called), and one Metrics value may be
// shared by many evaluators: the fields are atomic, and sharing is how
// runtime.MultiSystem aggregates its thousands of evaluators into one set
// of counters. With a nil Metrics the evaluator's hot path pays only a nil
// check, preserving the zero-allocation invariant the alloc tests pin.
type Metrics struct {
	// Fed counts updates accepted into a window; Discarded counts
	// out-of-order, duplicate, and irrelevant-variable deliveries;
	// MissedDown counts updates missed while the evaluator was failed —
	// the same classification as Stats, but observable live.
	Fed, Discarded, MissedDown *obs.Counter
	// Fired counts evaluations that raised an alert.
	Fired *obs.Counter
	// FeedNs and FeedBatchNs record per-call latency in nanoseconds (one
	// FeedBatchNs observation covers a whole batch).
	FeedNs, FeedBatchNs *obs.Histogram
}

// The nil-receiver helpers below let the hot path record unconditionally:
// with metrics off (m == nil) each call is a single branch.

func (m *Metrics) incFed() {
	if m != nil {
		m.Fed.Inc()
	}
}

func (m *Metrics) incDiscarded() {
	if m != nil {
		m.Discarded.Inc()
	}
}

func (m *Metrics) addMissedDown(n int64) {
	if m != nil {
		m.MissedDown.Add(n)
	}
}

func (m *Metrics) incFired() {
	if m != nil {
		m.Fired.Inc()
	}
}

func (m *Metrics) feedHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.FeedNs
}

func (m *Metrics) feedBatchHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.FeedBatchNs
}

// RegisterMetrics builds a Metrics wired to counters and histograms named
// under prefix in reg: <prefix>.fed, .discarded, .missed_down, .fired,
// .feed_ns, .feed_batch_ns. A nil registry returns nil — the off state.
func RegisterMetrics(reg *obs.Registry, prefix string) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Fed:         reg.Counter(prefix + ".fed"),
		Discarded:   reg.Counter(prefix + ".discarded"),
		MissedDown:  reg.Counter(prefix + ".missed_down"),
		Fired:       reg.Counter(prefix + ".fired"),
		FeedNs:      reg.Histogram(prefix + ".feed_ns"),
		FeedBatchNs: reg.Histogram(prefix + ".feed_batch_ns"),
	}
}

// Evaluator is one Condition Evaluator replica monitoring a single
// condition. It is not safe for concurrent use; the runtime package wraps
// it in a single goroutine.
type Evaluator struct {
	id      string
	cond    cond.Condition
	windows map[event.VarName]*event.Window
	// slots lists the same windows in ascending variable order. Lookups scan
	// it while it is short: with the paper's one-to-few-variable conditions,
	// a string-compare scan beats hashing the variable name on every
	// HistoryOf/Feed (the hot path's dominant map cost); past slotScanMax
	// variables the map wins. A firing evaluation walks it to snapshot the
	// histories in the order event.NewAlertOf wants them.
	slots []winSlot
	down  bool

	// notFull counts windows still filling; the hot path tests it instead
	// of rescanning every window per update.
	notFull int

	// Exactly one evaluation strategy is active, chosen at construction:
	// prog for compiled DSL conditions, view for built-ins with a
	// snapshot-free evaluator, neither for legacy conditions (which get a
	// materialized HistorySet per evaluation, as before).
	prog *cond.Program
	view cond.ViewCondition

	// stats
	fed        int64
	discarded  int64
	missedDown int64

	// m is the optional live instrumentation; nil (the default) means
	// metrics are off and the hot path pays only nil checks.
	m *Metrics

	// tr is the optional flight recorder; nil (the default) means tracing
	// is off and every Feed outcome site pays one nil check.
	tr *obs.Tracer

	// journal, when set, receives every update accepted into a window
	// (after TryPush succeeds, before evaluation) so a durable layer can
	// log it; nil (the default) keeps the hot path at one nil check.
	// Replay via Absorb bypasses it.
	journal func(event.Update) error
}

// winSlot pairs a variable with its window for slice-backed lookup.
type winSlot struct {
	v event.VarName
	w *event.Window
}

// slotScanMax bounds the variable-set size for which the linear-scan index
// is used instead of the map.
const slotScanMax = 8

// window resolves the variable's update window, or nil if the evaluator
// does not subscribe to it.
func (e *Evaluator) window(v event.VarName) *event.Window {
	if len(e.slots) <= slotScanMax {
		for i := range e.slots {
			if e.slots[i].v == v {
				return e.slots[i].w
			}
		}
		return nil
	}
	return e.windows[v]
}

// HistoryOf implements event.HistoryView over the evaluator's live
// windows: the read-only view conditions evaluate against on the hot path.
// Returned histories alias window storage and are only valid until the next
// Feed.
func (e *Evaluator) HistoryOf(v event.VarName) (event.History, bool) {
	w := e.window(v)
	if w == nil {
		return event.History{}, false
	}
	return w.Live(), true
}

// New creates an evaluator with the given identity ("CE1", "CE2", …)
// monitoring condition c. One evaluator monitors exactly one condition,
// matching the paper's model.
func New(id string, c cond.Condition) (*Evaluator, error) {
	if id == "" {
		return nil, fmt.Errorf("ce: evaluator id must be non-empty")
	}
	vars := c.Vars()
	if len(vars) == 0 {
		return nil, fmt.Errorf("ce: condition %q has an empty variable set", c.Name())
	}
	windows := make(map[event.VarName]*event.Window, len(vars))
	for _, v := range vars {
		w, err := event.NewWindow(v, c.Degree(v))
		if err != nil {
			return nil, fmt.Errorf("ce: condition %q, variable %q: %w", c.Name(), v, err)
		}
		windows[v] = w
	}
	e := &Evaluator{id: id, cond: c, windows: windows, notFull: len(windows)}
	e.slots = make([]winSlot, 0, len(windows))
	for v, w := range windows {
		e.slots = append(e.slots, winSlot{v: v, w: w})
	}
	slices.SortFunc(e.slots, func(a, b winSlot) int { return cmp.Compare(a.v, b.v) })
	// Pick the fastest evaluation strategy the condition supports: a bound
	// compiled program (DSL expressions), a snapshot-free view evaluator
	// (built-ins), or the legacy materialized-HistorySet path.
	switch c := c.(type) {
	case cond.Binder:
		e.prog = c.Bind()
	case cond.ViewCondition:
		e.view = c
	}
	return e, nil
}

// ID returns the evaluator's identity; emitted alerts carry it as Source.
func (e *Evaluator) ID() string { return e.id }

// Condition returns the monitored condition.
func (e *Evaluator) Condition() cond.Condition { return e.cond }

// Down reports whether the evaluator is currently failed.
func (e *Evaluator) Down() bool { return e.down }

// SetDown fails or revives the evaluator. While down it silently misses
// every update — the failure mode replication exists to mask. Reviving
// keeps the histories accumulated before the failure (the process
// descheduled but did not lose memory); see Crash for the harsher variant.
func (e *Evaluator) SetDown(down bool) { e.down = down }

// Crash simulates a fail-stop restart without stable storage: the evaluator
// loses all history state and must refill its windows before it can fire
// again.
func (e *Evaluator) Crash() {
	e.notFull = 0
	for _, w := range e.windows {
		w.Reset()
		if !w.Full() {
			e.notFull++
		}
	}
}

// Stats reports how many updates were fed, discarded as out-of-order or
// irrelevant, and missed while down.
func (e *Evaluator) Stats() (fed, discarded, missedDown int64) {
	return e.fed, e.discarded, e.missedDown
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation. The
// same Metrics may be shared across evaluators; see Metrics. Call it before
// feeding updates — it is not synchronized against a concurrent Feed.
func (e *Evaluator) SetMetrics(m *Metrics) { e.m = m }

// SetTracer attaches (or, with nil, detaches) the live flight recorder:
// every Feed/FeedBatch outcome records a StageFeed span (fed, discarded,
// missed_down, fired) under this evaluator's id. One tracer is typically
// shared by every component of a pipeline — its Record is lock-free. Call
// it before feeding updates — it is not synchronized against a concurrent
// Feed. The checks at the outcome sites are inline nil tests, not wrapper
// calls, so the tracing-off hot path keeps its zero-allocation pin.
func (e *Evaluator) SetTracer(t *obs.Tracer) { e.tr = t }

// SetJournal attaches (or, with nil, detaches) a durable journal sink:
// fn is called with every update the evaluator accepts into a window,
// in acceptance order, before the update can influence an evaluation.
// A journal error fails the Feed that carried the update (FeedBatch
// reports it as its first error), because an unjournaled-but-applied
// update would break crash/restart equivalence. Call it before feeding
// updates — it is not synchronized against a concurrent Feed.
func (e *Evaluator) SetJournal(fn func(event.Update) error) { e.journal = fn }

// Absorb re-applies one journaled update during recovery: the window push
// and bookkeeping of Feed with no evaluation, no journaling, no metrics,
// and no down-state handling. It reports whether the update was accepted
// (replaying onto a restored checkpoint makes re-applied prefixes
// harmless: their pushes are rejected as stale). Replay order must match
// journal order.
func (e *Evaluator) Absorb(u event.Update) bool {
	w := e.window(u.Var)
	if w == nil {
		return false
	}
	wasFull := w.Full()
	if !w.TryPush(u) {
		return false
	}
	e.fed++
	if !wasFull && w.Full() {
		e.notFull--
	}
	return true
}

// WindowStates snapshots every history window for checkpointing, in the
// condition's variable order (duplicate variables contribute once). The
// returned histories are deep copies, safe to serialize after further
// feeding.
func (e *Evaluator) WindowStates() []event.History {
	vars := e.cond.Vars()
	out := make([]event.History, 0, len(vars))
	seen := make(map[event.VarName]bool, len(vars))
	for _, v := range vars {
		if seen[v] {
			continue
		}
		seen[v] = true
		if w := e.window(v); w != nil {
			out = append(out, w.History())
		}
	}
	return out
}

// RestoreWindows loads checkpointed histories back into the evaluator's
// windows, replacing their contents, and recomputes the not-full count.
// States for variables outside the condition's set are an error: a
// checkpoint belongs to one (condition, evaluator) pair.
func (e *Evaluator) RestoreWindows(states []event.History) error {
	for _, h := range states {
		w := e.window(h.Var)
		if w == nil {
			return fmt.Errorf("ce: %s: restore for unknown variable %q", e.id, h.Var)
		}
		if err := w.Restore(h.Recent); err != nil {
			return fmt.Errorf("ce: %s: %w", e.id, err)
		}
	}
	e.notFull = 0
	for _, w := range e.windows {
		if !w.Full() {
			e.notFull++
		}
	}
	return nil
}

// feedSpan records one StageFeed span; callers nil-check e.tr first so the
// tracing-off path never pays the call.
func (e *Evaluator) feedSpan(u event.Update, disp string) {
	e.tr.Record(obs.Span{
		Var: string(u.Var), Seq: u.SeqNo,
		Stage: obs.StageFeed, Replica: e.id, Disp: disp,
	})
}

// Feed delivers one update to the evaluator. It returns the alert and true
// if the condition fired. Updates are handled per Section 2:
//
//   - While the evaluator is down, the update is missed entirely.
//   - Updates for variables outside the condition's variable set are
//     discarded (a CE only subscribes to V, but a broadcast medium may
//     deliver more).
//   - Updates that arrive out of order for their variable are discarded,
//     implementing the receiver side of the paper's in-order link
//     mechanism ("letting the receiver discard messages that arrive out of
//     order", Section 2.1).
//   - Otherwise the update becomes Hv[0] and the condition is re-evaluated;
//     it can only be evaluated once every window in V is full.
func (e *Evaluator) Feed(u event.Update) (event.Alert, bool, error) {
	// The latency observation is a conditional defer so the metrics-off
	// path — the default — pays one nil check and never reads the clock;
	// an extra wrapper function here would cost a real call on the
	// zero-allocation hot path.
	if h := e.m.feedHist(); h != nil {
		defer func(start time.Time) {
			h.ObserveDuration(time.Since(start))
		}(time.Now())
	}
	if e.down {
		e.missedDown++
		e.m.addMissedDown(1)
		if e.tr != nil {
			e.feedSpan(u, obs.DispMissedDown)
		}
		return event.Alert{}, false, nil
	}
	w := e.window(u.Var)
	if w == nil {
		e.discarded++
		e.m.incDiscarded()
		if e.tr != nil {
			e.feedSpan(u, obs.DispDiscarded)
		}
		return event.Alert{}, false, nil
	}
	wasFull := w.Full()
	if !w.TryPush(u) {
		// Out-of-order or duplicate delivery: discard, per Section 2.1.
		e.discarded++
		e.m.incDiscarded()
		if e.tr != nil {
			e.feedSpan(u, obs.DispDiscarded)
		}
		return event.Alert{}, false, nil
	}
	e.fed++
	e.m.incFed()
	if !wasFull && w.Full() {
		e.notFull--
	}
	if e.journal != nil {
		if err := e.journal(u); err != nil {
			return event.Alert{}, false, fmt.Errorf("ce: %s: journal %q: %w", e.id, e.cond.Name(), err)
		}
	}
	if e.notFull > 0 {
		if e.tr != nil {
			e.feedSpan(u, obs.DispFed)
		}
		return event.Alert{}, false, nil
	}
	// Evaluate against the live windows; the non-firing steady state never
	// copies a history or builds a HistorySet.
	fired, err := e.evalLive()
	if err != nil {
		return event.Alert{}, false, fmt.Errorf("ce: %s: evaluate %q: %w", e.id, e.cond.Name(), err)
	}
	if !fired {
		if e.tr != nil {
			e.feedSpan(u, obs.DispFed)
		}
		return event.Alert{}, false, nil
	}
	// Only a firing condition pays for the immutable snapshot embedded in
	// the alert (and for the alert's precomputed identity key).
	e.m.incFired()
	if e.tr != nil {
		e.feedSpan(u, obs.DispFired)
	}
	return e.alert(), true, nil
}

// FeedBatch delivers a run of updates in order, appending the alert of
// every firing evaluation to dst and returning the extended slice. It is
// observationally identical to calling Feed once per update — same
// discards, same firings, same alerts in the same order — but amortizes
// the per-update overhead across the run: the window map lookup is cached
// for same-variable runs (the shape EmitBatch produces), and for compiled
// conditions the per-variable slot binding and degree checks run once per
// batch (Program.Prepare) instead of once per update. The per-update Feed
// loop is the differential oracle; equivalence tests gate this path.
//
// Evaluation errors (e.g. a DSL division by zero) do not stop the batch,
// mirroring how the runtime's replica loop continues past a failed Feed;
// the first error is returned after the whole run is processed.
func (e *Evaluator) FeedBatch(us []event.Update, dst []event.Alert) ([]event.Alert, error) {
	// Conditional defer, as in Feed: the metrics-off path pays one nil
	// check and never reads the clock.
	if h := e.m.feedBatchHist(); h != nil {
		defer func(start time.Time) {
			h.ObserveDuration(time.Since(start))
		}(time.Now())
	}
	return e.feedBatch(us, dst)
}

// feedBatch is FeedBatch without the latency observation.
func (e *Evaluator) feedBatch(us []event.Update, dst []event.Alert) ([]event.Alert, error) {
	if e.down {
		e.missedDown += int64(len(us))
		e.m.addMissedDown(int64(len(us)))
		if e.tr != nil {
			for _, u := range us {
				e.feedSpan(u, obs.DispMissedDown)
			}
		}
		return dst, nil
	}
	var (
		firstErr error
		lastVar  event.VarName
		lastWin  *event.Window
		prepared bool
	)
	for _, u := range us {
		w := lastWin
		if w == nil || u.Var != lastVar {
			w = e.window(u.Var)
			if w == nil {
				e.discarded++
				e.m.incDiscarded()
				if e.tr != nil {
					e.feedSpan(u, obs.DispDiscarded)
				}
				lastVar, lastWin = u.Var, nil
				continue
			}
			lastVar, lastWin = u.Var, w
		}
		wasFull := w.Full()
		if !w.TryPush(u) {
			e.discarded++
			e.m.incDiscarded()
			if e.tr != nil {
				e.feedSpan(u, obs.DispDiscarded)
			}
			continue
		}
		e.fed++
		e.m.incFed()
		if !wasFull && w.Full() {
			e.notFull--
		}
		if e.journal != nil {
			if err := e.journal(u); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ce: %s: journal %q: %w", e.id, e.cond.Name(), err)
			}
		}
		if e.notFull > 0 {
			if e.tr != nil {
				e.feedSpan(u, obs.DispFed)
			}
			continue
		}
		var (
			fired bool
			err   error
		)
		if e.prog != nil {
			// Bind slots on the batch's first evaluation; every window is
			// full from here on, so the live slice headers the slots alias
			// stay valid for the rest of the run (window shifts mutate in
			// place once full).
			if !prepared {
				if err = e.prog.Prepare(e); err == nil {
					prepared = true
				}
			}
			if prepared {
				fired, err = e.prog.EvalPrepared()
			}
		} else {
			fired, err = e.evalLive()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("ce: %s: evaluate %q: %w", e.id, e.cond.Name(), err)
			}
			continue
		}
		if fired {
			e.m.incFired()
			if e.tr != nil {
				e.feedSpan(u, obs.DispFired)
			}
			dst = append(dst, e.alert())
		} else if e.tr != nil {
			e.feedSpan(u, obs.DispFed)
		}
	}
	return dst, firstErr
}

// evalLive evaluates the condition over the evaluator's live windows,
// using the strategy selected at construction.
func (e *Evaluator) evalLive() (bool, error) {
	switch {
	case e.prog != nil:
		return e.prog.Eval(e)
	case e.view != nil:
		return e.view.EvalView(e)
	default:
		return e.cond.Eval(e.historySnapshot())
	}
}

// historySnapshot builds the immutable H handed to a legacy condition.
func (e *Evaluator) historySnapshot() event.HistorySet {
	h := make(event.HistorySet, len(e.slots))
	for _, sl := range e.slots {
		h[sl.v] = sl.w.History()
	}
	return h
}

// alert builds the alert of a firing evaluation: every window snapshotted
// into one backing array, listed in slot (ascending variable) order on the
// stack, and handed to the one-pass constructor.
func (e *Evaluator) alert() event.Alert {
	var stack [4]event.History
	return event.NewAlertOf(e.cond.Name(), snapshotHistories(stack[:0], e.slots, nil), e.id)
}

// snapshotHistories appends to dst an immutable copy of each slot's window
// — its most recent degs[i] updates when degs is given, all of them
// otherwise — carved out of a single allocation.
func snapshotHistories(dst []event.History, slots []winSlot, degs []int) []event.History {
	total := 0
	for i, sl := range slots {
		n := sl.w.Len()
		if degs != nil && degs[i] < n {
			n = degs[i]
		}
		total += n
	}
	buf := make([]event.Update, total)
	for i, sl := range slots {
		live := sl.w.Live().Recent
		if degs != nil && degs[i] < len(live) {
			live = live[:degs[i]]
		}
		n := copy(buf, live)
		dst = append(dst, event.History{Var: sl.v, Recent: buf[:n:n]})
		buf = buf[n:]
	}
	return dst
}

// T is the paper's mapping T: it returns the alert sequence a single fresh
// CE generates when fed the update sequence in order (Figure 2). The
// updates may interleave multiple variables; per-variable subsequences must
// be in increasing seqno order (out-of-order entries are discarded exactly
// as Feed does).
func T(c cond.Condition, updates []event.Update) ([]event.Alert, error) {
	e, err := New("T", c)
	if err != nil {
		return nil, err
	}
	var alerts []event.Alert
	for _, u := range updates {
		a, fired, err := e.Feed(u)
		if err != nil {
			return nil, err
		}
		if fired {
			alerts = append(alerts, a)
		}
	}
	return alerts, nil
}
