package runtime

import (
	"fmt"
	"sort"
	"sync"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/multicond"
	"condmon/internal/obs"

	"math/rand"
	gort "runtime"
)

// Engine is the million-condition evolution of MultiSystem: a sharded
// multi-condition monitoring system whose condition set changes while
// updates are in flight. Three structural changes separate it from the
// static fleet:
//
//   - Registry: conditions join and leave a running Engine through
//     Register/Unregister. Each registration is stamped with a monotonic
//     epoch; the Alert Displayer (a multicond.LiveDemux) fences alerts
//     whose epoch does not match the live registration, so a removed
//     condition's in-flight alerts are suppressed cleanly — the moment
//     Unregister returns, that condition's displayed stream is final.
//
//   - Shared evaluation: each shard runs one ce.SharedEvaluator lane per
//     replica instead of one ce.Evaluator per (condition, replica). Every
//     co-sharded condition reading a variable shares that lane's single
//     history window, and packable conditions are evaluated by
//     cond.Pack — one pass per update with a fired-member set — so the
//     per-update cost grows with the number of distinct variable sets and
//     expression shapes, not the raw condition count.
//
//   - Per-lane links: loss is modeled per (shard, replica, variable)
//     front link, shared by every condition on the lane. One randomness
//     draw per update per lane — not per condition — which both matches
//     the paper's figure (links carry variables, not conditions) and
//     keeps pack evaluation byte-identical to the per-condition baseline
//     under loss: the same deliveries reach the same windows either way.
//
// The Engine runs to completion: the goroutine that emits or injects an
// update evaluates it on every subscribed shard and offers the resulting
// alerts to the Alert Displayer before the call returns. A shard is a lock
// stripe — a mutex over its lanes — not a goroutine, and alerts are offered
// while that lock is held, so each shard's alerts reach the demux in
// evaluation order (the paper's FIFO back link) even when injectors race.
// Control requests (add/remove/visit) apply inline under the same lock, so
// a registration is totally ordered after every update evaluated before
// it, and Register and Unregister return once every lane of the owning
// shard has applied the change.
//
// Locks are taken in the order regMu → dm.mu → shard mu → demux mu.
type Engine struct {
	newFilter func(c cond.Condition) ad.Filter
	loss      func(shard, replica int, v event.VarName) link.Model
	seed      int64
	noPacks   bool

	shards []*eshard
	demux  *multicond.LiveDemux

	// regMu guards the registry: the name → registration map, the epoch
	// counter, and the closed flag. Every control operation holds it.
	regMu  sync.Mutex
	regs   map[string]*engineReg
	epoch  uint64
	closed bool

	// dmMu guards creation in the dms map; each engineDM serializes its
	// own emissions.
	dmMu sync.RWMutex
	dms  map[event.VarName]*engineDM

	m *engineMetrics // nil when EngineOptions.Metrics was nil

	errMu sync.Mutex
	err   error
}

// engineReg is the registry's record of one live condition.
type engineReg struct {
	c     cond.Condition
	epoch uint64
	shard int
}

// engineDM is the Data Monitor for one variable: the sequence counter plus
// the shards with at least one subscribed condition. DMs are created at a
// variable's first registration and kept for the Engine's lifetime —
// sequence numbers must keep ascending across unregister/re-register
// cycles of the conditions reading the variable. run is the scratch the
// emitters build their runs in.
type engineDM struct {
	mu     sync.Mutex
	seq    int64
	closed bool
	shards []*eshard
	run    []event.Update
}

// eshard is one lock stripe of the Engine's pool: one SharedEvaluator
// lane per replica, guarded by mu. byName holds each registered
// condition's per-lane Unregister handles; buf is the member-alert
// scratch a run's evaluation fills before its alerts are offered.
type eshard struct {
	mu     sync.Mutex
	idx    int
	lanes  []*elane
	byName map[string][]ce.Ref
	buf    []ce.MemberAlert
}

// elane is one CE replica of one shard: a shared evaluator over the
// lane's windows, fed through one front link per variable. Links are
// created at a variable's first registration on the lane and persist so
// each link's randomness stream is continuous across churn.
type elane struct {
	se    *ce.SharedEvaluator
	links map[event.VarName]*frontLink
}

// engineMetrics is the Engine's aggregate instrumentation. All methods
// are safe on a nil receiver — the metrics-off state.
type engineMetrics struct {
	emitted     *obs.Counter
	emitBatches *obs.Counter
	delivered   *obs.Counter
	lost        *obs.Counter
	registered  *obs.Counter
	unregs      *obs.Counter
	conditions  *obs.Gauge
	ce          *ce.Metrics
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		emitted:     reg.Counter("engine.emitted"),
		emitBatches: reg.Counter("engine.emit_batches"),
		delivered:   reg.Counter("engine.delivered"),
		lost:        reg.Counter("engine.lost"),
		registered:  reg.Counter("engine.registered"),
		unregs:      reg.Counter("engine.unregistered"),
		conditions:  reg.Gauge("engine.conditions"),
		// Counters only, as in MultiSystem: latency histograms at fleet
		// scale would put a clock read on every Feed.
		ce: &ce.Metrics{
			Fed:        reg.Counter("engine.ce.fed"),
			Discarded:  reg.Counter("engine.ce.discarded"),
			MissedDown: reg.Counter("engine.ce.missed_down"),
			Fired:      reg.Counter("engine.ce.fired"),
		},
	}
}

func (m *engineMetrics) addEmitted(n int64) {
	if m != nil {
		m.emitted.Add(n)
	}
}

func (m *engineMetrics) incEmitBatches() {
	if m != nil {
		m.emitBatches.Inc()
	}
}

func (m *engineMetrics) addDelivered(n int64) {
	if m != nil {
		m.delivered.Add(n)
	}
}

func (m *engineMetrics) addLost(n int64) {
	if m != nil {
		m.lost.Add(n)
	}
}

func (m *engineMetrics) reg() {
	if m != nil {
		m.registered.Inc()
		m.conditions.Add(1)
	}
}

func (m *engineMetrics) unreg() {
	if m != nil {
		m.unregs.Inc()
		m.conditions.Add(-1)
	}
}

// EngineOptions configure NewEngine.
type EngineOptions struct {
	// Replicas is the number of CE lanes per shard (default 2).
	Replicas int
	// Workers is the size of the shard pool (default GOMAXPROCS). Unlike
	// MultiOptions.Workers it is not clamped to the condition count —
	// the condition count is zero at construction and unbounded after.
	Workers int
	// Loss returns the loss model for the front link carrying variable v
	// to replica lane r of shard s. Nil means lossless. The link is
	// shared by every condition of the shard reading v: one delivery
	// decision per update per lane.
	Loss func(shard, replica int, v event.VarName) link.Model
	// Seed drives link randomness.
	Seed int64
	// Journal, if non-nil, returns the durable journal sink for the lane
	// evaluator of (shard, replica) — see ce.SharedEvaluator.SetJournal
	// and durable.LaneJournal; a nil return leaves that lane unjournaled.
	// Nil (the default) disables lane journaling.
	Journal func(shard, replica int, se *ce.SharedEvaluator) func(event.Update) error
	// Metrics, if non-nil, instruments the engine in the given registry:
	// engine.emitted / engine.emit_batches at the DMs, engine.delivered /
	// engine.lost aggregated over every lane link, engine.ce.* counters
	// shared by all lanes, engine.registered / engine.unregistered /
	// engine.conditions for registry churn,
	// and engine.fenced / engine.suppressed / engine.displayed at the
	// alert fan-in.
	Metrics *obs.Registry
	// NoPacks disables shared-window pack evaluation: every condition
	// gets a private per-condition evaluator on its lanes. This is the
	// per-condition baseline the equivalence suite compares pack
	// evaluation against; links, sharding, fan-in and fencing are
	// identical in both modes.
	NoPacks bool
}

// NewEngine builds an empty dynamic monitoring engine; it starts no
// goroutines. newFilter is called once per registration to create the
// condition's alert-stream filter instance (a re-registered name gets a
// fresh one). A filter's Accept runs on the emitting or injecting
// goroutine, under the shard lock, so it must not call back into the
// Engine.
func NewEngine(newFilter func(c cond.Condition) ad.Filter, opts EngineOptions) (*Engine, error) {
	if newFilter == nil {
		return nil, fmt.Errorf("runtime: engine needs a filter constructor")
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("runtime: replicas must be ≥ 1, got %d", opts.Replicas)
	}
	if opts.Workers == 0 {
		opts.Workers = gort.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("runtime: workers must be ≥ 1, got %d", opts.Workers)
	}
	ng := &Engine{
		newFilter: newFilter,
		loss:      opts.Loss,
		seed:      opts.Seed,
		noPacks:   opts.NoPacks,
		shards:    make([]*eshard, opts.Workers),
		demux:     multicond.NewLiveDemux(),
		regs:      make(map[string]*engineReg),
		dms:       make(map[event.VarName]*engineDM),
	}
	if opts.Metrics != nil {
		ng.m = newEngineMetrics(opts.Metrics)
	}
	for i := range ng.shards {
		sh := &eshard{
			idx:    i,
			lanes:  make([]*elane, opts.Replicas),
			byName: make(map[string][]ce.Ref),
		}
		for r := range sh.lanes {
			se, err := ce.NewSharedEvaluator(fmt.Sprintf("S%d/CE%d", i, r+1), opts.NoPacks)
			if err != nil {
				return nil, err
			}
			if ng.m != nil {
				se.SetMetrics(ng.m.ce)
			}
			if opts.Journal != nil {
				if fn := opts.Journal(i, r, se); fn != nil {
					se.SetJournal(fn)
				}
			}
			sh.lanes[r] = &elane{se: se, links: make(map[event.VarName]*frontLink)}
		}
		ng.shards[i] = sh
	}
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("engine.fenced", func() int64 {
			return int64(ng.demux.Fenced())
		})
		opts.Metrics.GaugeFunc("engine.suppressed", func() int64 {
			return int64(ng.demux.Suppressed())
		})
		opts.Metrics.GaugeFunc("engine.displayed", func() int64 {
			return int64(ng.demux.DisplayedCount())
		})
	}
	return ng, nil
}

// shardFor maps a condition name onto a shard index.
func (ng *Engine) shardFor(name string) int {
	return int(uint64(hashVar(event.VarName(name))) % uint64(len(ng.shards)))
}

// newLaneLink builds the front link for variable v into replica lane r of
// shard s. Seeds mix all three coordinates so every lane link draws an
// independent randomness stream.
func (ng *Engine) newLaneLink(s, r int, v event.VarName) *frontLink {
	model := link.Model(link.None{})
	if ng.loss != nil {
		if m := ng.loss(s, r, v); m != nil {
			model = m
		}
	}
	_, lossless := model.(link.None)
	return &frontLink{
		model:    model,
		lossless: lossless,
		rng:      rand.New(rand.NewSource(ng.seed ^ int64(r+1)<<20 ^ int64(s+1)<<8 ^ hashVar(v))),
	}
}

// Register adds the condition to the running engine and returns its
// registration epoch. Every lane of the owning shard has installed the
// condition when Register returns, so updates emitted afterwards are
// evaluated against it. The new member sees the lane's already-warm
// shared windows, so it can fire on the very next update — a cold private
// evaluator would first refill its history — and the registry documents
// this as the semantics of live registration. Registering a name that is
// still live is an error.
func (ng *Engine) Register(c cond.Condition) (uint64, error) {
	if len(c.Vars()) == 0 {
		return 0, fmt.Errorf("runtime: condition %q has no variables", c.Name())
	}
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return 0, fmt.Errorf("runtime: Register: %w", ErrClosed)
	}
	if _, dup := ng.regs[c.Name()]; dup {
		return 0, fmt.Errorf("runtime: condition %q already registered", c.Name())
	}
	ng.epoch++
	ep := ng.epoch
	si := ng.shardFor(c.Name())
	// The demux entry must exist before the lanes can fire the condition.
	if err := ng.demux.Register(c.Name(), ep, ng.newFilter(c)); err != nil {
		return 0, err
	}
	ng.subscribe(si, c.Vars())
	if err := ng.addToShard(ng.shards[si], c, ep); err != nil {
		ng.demux.Unregister(c.Name())
		return 0, err
	}
	ng.regs[c.Name()] = &engineReg{c: c, epoch: ep, shard: si}
	ng.m.reg()
	return ep, nil
}

// Unregister removes the condition from the running engine. The alert
// fan-in is fenced first, so the moment Unregister returns the
// condition's displayed stream is final — alerts of a run still being
// evaluated are counted as fenced, never displayed. Every lane of the
// owning shard has dropped the condition when the call returns. The
// lane's shared windows persist (degrees never shrink), so co-sharded
// conditions are unaffected.
func (ng *Engine) Unregister(name string) error {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return fmt.Errorf("runtime: Unregister: %w", ErrClosed)
	}
	reg, ok := ng.regs[name]
	if !ok {
		return fmt.Errorf("runtime: condition %q not registered", name)
	}
	delete(ng.regs, name)
	ng.demux.Unregister(name)
	ng.shards[reg.shard].remove(name)
	ng.m.unreg()
	return nil
}

// Rebalance redistributes the live conditions evenly across the shard
// pool: names are sorted and assigned round-robin, and each mismatched
// condition is moved — removed from its source shard, then added to its
// destination — keeping its epoch, so nothing is fenced by the move.
// Updates evaluated on the destination shard before the move completes
// are not evaluated for the moving condition (its windows there may also
// start cold); co-sharded conditions on both shards are unaffected
// throughout. It holds one shard lock at a time and returns the number of
// conditions moved.
func (ng *Engine) Rebalance() (int, error) {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return 0, fmt.Errorf("runtime: Rebalance: %w", ErrClosed)
	}
	names := make([]string, 0, len(ng.regs))
	for name := range ng.regs {
		names = append(names, name)
	}
	sort.Strings(names)
	moved := 0
	for i, name := range names {
		dst := i % len(ng.shards)
		reg := ng.regs[name]
		if reg.shard == dst {
			continue
		}
		ng.shards[reg.shard].remove(name)
		ng.subscribe(dst, reg.c.Vars())
		if err := ng.addToShard(ng.shards[dst], reg.c, reg.epoch); err != nil {
			// Re-registration failed (should not happen for a condition
			// that registered once already): drop it cleanly.
			ng.demux.Unregister(name)
			delete(ng.regs, name)
			ng.recordEngineErr(fmt.Errorf("runtime: rebalance %q: %w", name, err))
			continue
		}
		reg.shard = dst
		moved++
	}
	return moved, nil
}

// subscribe ensures variable DMs exist and fan out to shard si.
func (ng *Engine) subscribe(si int, vars []event.VarName) {
	sh := ng.shards[si]
	for _, v := range vars {
		ng.dmMu.Lock()
		dm := ng.dms[v]
		if dm == nil {
			dm = &engineDM{}
			ng.dms[v] = dm
		}
		ng.dmMu.Unlock()
		dm.mu.Lock()
		found := false
		for _, s := range dm.shards {
			if s == sh {
				found = true
				break
			}
		}
		if !found {
			dm.shards = append(dm.shards, sh)
		}
		dm.mu.Unlock()
	}
}

// addToShard installs the condition on every lane of the shard, in lane
// order, under the shard lock; if a lane refuses it, the lanes already
// done drop it again.
func (ng *Engine) addToShard(sh *eshard, c cond.Condition, epoch uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	refs := make([]ce.Ref, len(sh.lanes))
	for i, ln := range sh.lanes {
		ref, err := ln.se.Register(c, epoch)
		if err != nil {
			for j := 0; j < i; j++ {
				sh.lanes[j].se.Unregister(refs[j])
			}
			return err
		}
		refs[i] = ref
		for _, v := range c.Vars() {
			if _, ok := ln.links[v]; !ok {
				ln.links[v] = ng.newLaneLink(sh.idx, i, v)
			}
		}
	}
	sh.byName[c.Name()] = refs
	return nil
}

// remove drops the condition from every lane of the shard under its lock.
func (sh *eshard) remove(name string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, ref := range sh.byName[name] {
		sh.lanes[i].se.Unregister(ref)
	}
	delete(sh.byName, name)
}

// deliver evaluates a run of one variable's updates on every shard
// subscribed to it; dm.mu must be held. Each shard's alerts are offered
// to the demux in evaluation order before its lock is released, so two
// injectors racing on a shard cannot reorder its alert stream.
func (ng *Engine) deliver(dm *engineDM, run []event.Update) {
	for _, sh := range dm.shards {
		ng.evalRun(sh, run)
	}
}

// evalRun is deliver's step for one shard.
func (ng *Engine) evalRun(sh *eshard, run []event.Update) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	buf := sh.buf[:0]
	for _, u := range run {
		buf = ng.laneDeliver(sh, u, buf)
	}
	for _, ma := range buf {
		ng.demux.Offer(ma.Alert, ma.Token)
	}
	sh.buf = buf
}

// laneDeliver runs one update through every lane of the shard: one link
// delivery decision per lane (shared by all the lane's conditions), then
// one shared evaluation pass. Firing members' alerts are appended to buf.
func (ng *Engine) laneDeliver(sh *eshard, u event.Update, buf []ce.MemberAlert) []ce.MemberAlert {
	for _, ln := range sh.lanes {
		l := ln.links[u.Var]
		if l == nil {
			// The shard is subscribed to the variable, but this lane's
			// link only appears once the first add naming it is applied:
			// updates racing ahead of a registration are not evaluated.
			continue
		}
		if !l.lossless && !l.model.Deliver(u, l.rng) {
			ng.m.addLost(1)
			continue
		}
		ng.m.addDelivered(1)
		var err error
		buf, err = ln.se.Feed(u, buf)
		if err != nil {
			ng.recordEngineErr(fmt.Errorf("runtime: %s: %w", ln.se.ID(), err))
		}
	}
	return buf
}

func (ng *Engine) recordEngineErr(err error) {
	ng.errMu.Lock()
	defer ng.errMu.Unlock()
	if ng.err == nil {
		ng.err = err
	}
}

func (ng *Engine) firstErr() error {
	ng.errMu.Lock()
	defer ng.errMu.Unlock()
	return ng.err
}

// lockDM returns variable v's DM with its lock held, or an error naming
// the calling operation op.
func (ng *Engine) lockDM(op string, v event.VarName) (*engineDM, error) {
	ng.dmMu.RLock()
	dm := ng.dms[v]
	ng.dmMu.RUnlock()
	if dm == nil {
		return nil, fmt.Errorf("runtime: no data monitor for variable %q", v)
	}
	dm.mu.Lock()
	if dm.closed {
		dm.mu.Unlock()
		return nil, fmt.Errorf("runtime: %s: %w", op, ErrClosed)
	}
	return dm, nil
}

// Emit publishes a new reading of variable v to every shard with a
// subscribed condition and returns its sequence number once its alerts
// are displayed or fenced. The variable must have appeared in at least
// one registration (DMs are created at first Register and kept for the
// engine's lifetime).
func (ng *Engine) Emit(v event.VarName, value float64) (int64, error) {
	dm, err := ng.lockDM("Emit", v)
	if err != nil {
		return 0, err
	}
	defer dm.mu.Unlock()
	dm.seq++
	dm.run = append(dm.run[:0], event.U(v, dm.seq, value))
	ng.deliver(dm, dm.run)
	ng.m.addEmitted(1)
	return dm.seq, nil
}

// EmitBatch publishes a run of readings of variable v as one batch,
// semantically identical to calling Emit once per value with no
// interleaved emitters. It returns the sequence number assigned to the
// last reading (zero-length batches return the current counter).
func (ng *Engine) EmitBatch(v event.VarName, values []float64) (int64, error) {
	dm, err := ng.lockDM("EmitBatch", v)
	if err != nil {
		return 0, err
	}
	defer dm.mu.Unlock()
	if len(values) == 0 {
		return dm.seq, nil
	}
	dm.run = dm.run[:0]
	for _, value := range values {
		dm.seq++
		dm.run = append(dm.run, event.U(v, dm.seq, value))
	}
	ng.deliver(dm, dm.run)
	ng.m.addEmitted(int64(len(values)))
	ng.m.incEmitBatches()
	return dm.seq, nil
}

// Inject routes one externally-sequenced update to every shard with a
// subscribed condition — the ingest-plane entry point for updates whose
// sequence numbers were assigned upstream (a remote DM behind a
// transport.UDPReceiver). The DM counter advances past u.SeqNo so a later
// Emit never reuses a sequence number; per-variable ordering is the
// caller's responsibility — the receiver's in-order acceptance provides
// it, and in multipath mode its reorder layer
// (UDPReceiverOptions.ReorderDepth) re-serializes cross-socket races
// before dispatching here.
func (ng *Engine) Inject(u event.Update) error {
	dm, err := ng.lockDM("Inject", u.Var)
	if err != nil {
		return err
	}
	defer dm.mu.Unlock()
	if u.SeqNo > dm.seq {
		dm.seq = u.SeqNo
	}
	dm.run = append(dm.run[:0], u)
	ng.deliver(dm, dm.run)
	ng.m.addEmitted(1)
	return nil
}

// InjectBatch routes a run of externally-sequenced updates of variable v
// to every shard with a subscribed condition and returns once the run is
// evaluated and its alerts displayed or fenced. The run is only read, and
// only before InjectBatch returns, so the caller may hand in a pooled
// decode buffer and reuse it at once — the contract a
// transport.UDPReceiverOptions.Dispatch callback needs. Sequence numbers
// must be ascending within the run; the DM counter advances past the last.
func (ng *Engine) InjectBatch(v event.VarName, us []event.Update) error {
	dm, err := ng.lockDM("InjectBatch", v)
	if err != nil {
		return err
	}
	defer dm.mu.Unlock()
	if len(us) == 0 {
		return nil
	}
	if last := us[len(us)-1].SeqNo; last > dm.seq {
		dm.seq = last
	}
	ng.deliver(dm, us)
	ng.m.addEmitted(int64(len(us)))
	ng.m.incEmitBatches()
	return nil
}

// Drain is a barrier for emitters running on other goroutines: it returns
// once every run that was being evaluated on a shard when Drain reached
// it has been displayed or fenced. Emit, EmitBatch, Inject and
// InjectBatch display before they return, so everything emitted before
// Drain began is displayed or fenced when it returns. It takes each shard
// lock once and does not stop the engine.
func (ng *Engine) Drain() error {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return fmt.Errorf("runtime: Drain: %w", ErrClosed)
	}
	for _, sh := range ng.shards {
		// The empty critical section is the barrier.
		sh.mu.Lock()
		sh.mu.Unlock()
	}
	return nil
}

// VisitLanes runs fn against every lane evaluator on the calling
// goroutine, under the owning shard's lock, so each visit is ordered
// after every update evaluated on the shard before it — the recovery
// hook: fn can crash a lane and replay a durable log into it
// (durable.RecoverLane) at a well-defined point of the stream. Shards are
// visited in index order and lanes in replica order; every lane is
// visited and the first error is returned. fn must not call back into
// the Engine.
func (ng *Engine) VisitLanes(fn func(shard, replica int, se *ce.SharedEvaluator) error) error {
	if fn == nil {
		return fmt.Errorf("runtime: VisitLanes needs a callback")
	}
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return fmt.Errorf("runtime: VisitLanes: %w", ErrClosed)
	}
	var first error
	for i, sh := range ng.shards {
		sh.mu.Lock()
		for r, ln := range sh.lanes {
			if err := fn(i, r, ln.se); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// ReplaceFilter swaps a registered condition's filter instance while
// keeping its epoch and displayed history — the recovery hook for
// installing a filter rebuilt from a durable log (durable.RecoverFilter)
// into a live engine.
func (ng *Engine) ReplaceFilter(name string, f ad.Filter) error {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if ng.closed {
		return fmt.Errorf("runtime: ReplaceFilter: %w", ErrClosed)
	}
	if _, ok := ng.regs[name]; !ok {
		return fmt.Errorf("runtime: condition %q not registered", name)
	}
	return ng.demux.ReplaceFilter(name, f)
}

// Demux exposes the fencing Alert Displayer for inspection.
func (ng *Engine) Demux() *multicond.LiveDemux { return ng.demux }

// Workers returns the size of the shard pool.
func (ng *Engine) Workers() int { return len(ng.shards) }

// Conditions returns the number of live registrations.
func (ng *Engine) Conditions() int {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	return len(ng.regs)
}

// Epoch returns the latest registration epoch issued.
func (ng *Engine) Epoch() uint64 {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	return ng.epoch
}

// ShardOf reports which shard currently owns the condition, and whether
// the name is registered at all (diagnostics).
func (ng *Engine) ShardOf(name string) (int, bool) {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	reg, ok := ng.regs[name]
	if !ok {
		return 0, false
	}
	return reg.shard, true
}

// Close stops the engine and returns the merged displayed sequence, plus
// the first evaluation error encountered (if any). Closing each DM under
// its lock waits out an emitter still evaluating a run, so nothing is
// evaluated or displayed after Close returns.
func (ng *Engine) Close() ([]event.Alert, error) {
	ng.regMu.Lock()
	defer ng.regMu.Unlock()
	if !ng.closed {
		ng.closed = true
		ng.dmMu.Lock()
		for _, dm := range ng.dms {
			dm.mu.Lock()
			dm.closed = true
			dm.mu.Unlock()
		}
		ng.dmMu.Unlock()
	}
	return ng.demux.Displayed(), ng.firstErr()
}
