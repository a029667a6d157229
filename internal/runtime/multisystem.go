package runtime

import (
	"fmt"
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

// MultiSystem is the live realization of Figure D-7(c): several conditions
// monitored simultaneously, each by its own set of replicated Condition
// Evaluators, all fed by the same Data Monitors, with one Alert Displayer
// that demultiplexes the merged alert stream and runs an independent
// filter instance per condition (Appendix D's reduction of the
// multi-condition problem to per-stream single-condition filtering).
//
// Fan-out is sharded: instead of one goroutine per (variable, condition,
// replica) front link — three goroutines per link in the obvious wiring,
// six thousand for a thousand-condition two-replica deployment — the
// conditions are hashed onto a fixed pool of shard workers. Each worker
// owns every station (one CE replica plus its per-variable front-link loss
// state) of the conditions assigned to it and runs them inline: an update
// frame crosses one channel per shard, then each subscribed station
// applies its own link's loss model and feeds its evaluator. Per-link
// delivery order, per-link loss schedules, and per-condition alert order
// are exactly those of the goroutine-per-link wiring; only the schedule
// across conditions (which was already nondeterministic) changes. All
// replicas of a condition live on the same shard, so each condition's
// alert stream — the unit the demux filters — is deterministic for a fixed
// seed, which is what lets the batch-equivalence tests demand
// byte-identical output.
type MultiSystem struct {
	dms     map[event.VarName]*multiDM
	shards  []*shard
	demux   *multicond.Demux
	wg      sync.WaitGroup
	byShard map[string]int // condition name → shard index (diagnostics)

	// backlink is the multiplexed back link: every station of every shard
	// shares this one channel to the Alert Displayer pump — the in-process
	// analog of transport.MuxSender's shared TCP connection, with the shard
	// index as the stream id. FIFO on one channel with one consumer
	// preserves per-stream (hence per-condition, since conditions are
	// co-sharded) alert order, which is what keeps each condition's
	// displayed stream independent of the shard schedule.
	backlink   chan backFrame
	pumpWg     sync.WaitGroup
	backGauges []*obs.Gauge // per-stream queue depth, nil when metrics off

	m  *multiMetrics // nil when MultiOptions.Metrics was nil
	tr *obs.Tracer   // nil when MultiOptions.Trace was nil

	mu     sync.Mutex
	closed bool

	// errMu guards evaluation errors surfaced from shard workers.
	errMu sync.Mutex
	err   error
}

// backFrame is one coalesced run on the multiplexed back link: the alerts
// a single shard produced for one update frame, in display order.
type backFrame struct {
	stream int
	alerts []event.Alert
	// done, when non-nil, marks a flush barrier: the pump closes it after
	// every earlier frame's alerts have been offered (see Drain).
	done chan struct{}
}

// stationVisit is a control frame run by a shard worker against every
// station it owns — the in-band barrier Drain and VisitStations ride on.
type stationVisit struct {
	// fn may be nil for a pure barrier.
	fn   func(condName string, replica int, ev *ce.Evaluator) error
	done chan error
}

// multiMetrics is the MultiSystem's aggregate instrumentation. Front-link
// delivered/lost counts are aggregated across all stations (a
// thousand-condition deployment has too many links to name individually);
// per-condition visibility comes from the ad.<condition>.* filter counters
// instead. All methods are safe on a nil receiver — the metrics-off state.
type multiMetrics struct {
	emitted     *obs.Counter
	emitBatches *obs.Counter
	delivered   *obs.Counter
	lost        *obs.Counter
	ce          *ce.Metrics // shared by every evaluator
}

func newMultiMetrics(reg *obs.Registry) *multiMetrics {
	return &multiMetrics{
		emitted:     reg.Counter("multi.emitted"),
		emitBatches: reg.Counter("multi.emit_batches"),
		delivered:   reg.Counter("multi.delivered"),
		lost:        reg.Counter("multi.lost"),
		// Counters only — deliberately not ce.RegisterMetrics. A latency
		// histogram shared by every station would make each of the
		// thousands of per-update Feed calls read the clock, which costs
		// ~3x throughput on the per-update path; per-evaluator latency is
		// a System (small-deployment) feature.
		ce: &ce.Metrics{
			Fed:        reg.Counter("multi.ce.fed"),
			Discarded:  reg.Counter("multi.ce.discarded"),
			MissedDown: reg.Counter("multi.ce.missed_down"),
			Fired:      reg.Counter("multi.ce.fired"),
		},
	}
}

func (m *multiMetrics) addEmitted(n int64) {
	if m != nil {
		m.emitted.Add(n)
	}
}

func (m *multiMetrics) incEmitBatches() {
	if m != nil {
		m.emitBatches.Inc()
	}
}

func (m *multiMetrics) addDelivered(n int64) {
	if m != nil {
		m.delivered.Add(n)
	}
}

func (m *multiMetrics) addLost(n int64) {
	if m != nil {
		m.lost.Add(n)
	}
}

// multiDM is the Data Monitor for one variable: it owns the sequence
// counter and the list of shards with at least one station subscribed to
// the variable.
type multiDM struct {
	mu     sync.Mutex
	seq    int64
	closed bool
	shards []*shard
}

// shard is one worker of the fan-out pool: a frame channel plus the
// stations it drives, indexed by the variable they subscribe to.
type shard struct {
	in    chan frame
	byVar map[event.VarName][]*station
	// stations lists every station exactly once, in the deterministic
	// construction order (condition order × replica order) — the
	// iteration domain for VisitStations.
	stations []*station
	// active is merge scratch for deliverBatchAll: the stations of the
	// current frame that fired at least once.
	active []*station
	// free recycles back-link frame buffers from the pump back to this
	// shard's worker, bounding steady-state allocation on the alert path.
	free chan []event.Alert
}

// backFreeList sizes each shard's recycled-buffer channel.
const backFreeList = 4

// frameBuf returns an empty alert buffer for a back-link frame, reusing a
// recycled one when available.
func (sh *shard) frameBuf() []event.Alert {
	select {
	case b := <-sh.free:
		return b[:0]
	default:
		return make([]event.Alert, 0, 8)
	}
}

// station is one (condition, replica) pair: an evaluator plus the
// per-variable front links feeding it. The owning shard worker is the only
// goroutine that touches it.
type station struct {
	eval    *ce.Evaluator
	links   map[event.VarName]*frontLink
	scratch []event.Alert // reused FeedBatch output buffer
	cursor  int           // merge position in scratch during deliverBatchAll
	head    int64         // triggering seqno of scratch[cursor], cached for the merge
	cname   string        // condition name, for VisitStations callbacks
	replica int           // replica index, for VisitStations callbacks
}

// frontLink is the loss state of one DM→CE link.
type frontLink struct {
	model    link.Model
	lossless bool
	rng      *rand.Rand
	kept     []event.Update // reused lossy-batch filter buffer
}

// MultiOptions configure NewMulti.
type MultiOptions struct {
	// Replicas per condition (default 2).
	Replicas int
	// Workers is the size of the shard worker pool (default GOMAXPROCS).
	// It bounds the system's goroutine count regardless of how many
	// conditions are monitored; shards beyond the condition count are not
	// spawned.
	Workers int
	// Loss returns the loss model for the front link carrying variable v
	// to replica i of condition c. Nil means lossless.
	Loss func(condName string, replica int, v event.VarName) link.Model
	// Seed drives link randomness.
	Seed int64
	// CEJournal, if non-nil, returns the durable journal sink for the
	// evaluator of (condition, replica) — see ce.Evaluator.SetJournal and
	// durable.EvaluatorJournal; a nil return leaves that station
	// unjournaled. Nil (the default) disables CE journaling.
	CEJournal func(condName string, replica int) func(event.Update) error
	// Metrics, if non-nil, instruments the system in the given registry:
	// multi.emitted / multi.emit_batches at the DMs, multi.delivered /
	// multi.lost aggregated over every front link, multi.ce.* counters
	// shared by all evaluators (fed / discarded / missed_down / fired —
	// no latency histograms at fleet scale), ad.<condition>.offered /
	// .displayed / .suppressed per condition, per-shard
	// multi.shard.<i>.queue (sampled channel depth) and
	// multi.shard.<i>.stations (occupancy) gauges, and per-stream
	// multi.backlink.<i>.queue gauges (alerts in flight on the multiplexed
	// back link, one stream per shard) plus multi.backlink.frames (frames
	// queued on the shared link). Nil (the default) leaves the pipeline
	// uninstrumented and allocation-free.
	Metrics *obs.Registry
	// Trace, if non-nil, threads the flight recorder through the sharded
	// pipeline: StageEmit spans at the DMs, StageLink delivered/lost spans
	// at every station's front link (replica labels are the station ids,
	// e.g. "c0004/CE2"), StageFeed spans in every evaluator, StageBacklink
	// sent spans on the multiplexed back link, and StageAD verdict spans in
	// every per-condition filter via ad.NewTraced. Nil (the default) leaves
	// tracing off at one nil-check per hot-path site.
	Trace *obs.Tracer
}

// NewMulti builds and starts a multi-condition system. newFilter is called
// once per condition to create that alert stream's filter instance.
func NewMulti(conds []cond.Condition, newFilter func(c cond.Condition) ad.Filter, opts MultiOptions) (*MultiSystem, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("runtime: multi-system needs at least one condition")
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
	if opts.Workers > len(conds) {
		opts.Workers = len(conds)
	}
	mkFilter := newFilter
	if opts.Metrics != nil {
		// Per-condition filter counters: ad.<condition>.offered /
		// .displayed / .suppressed, the observable suppression behavior of
		// each condition's AD-1…AD-6 instance.
		mkFilter = func(c cond.Condition) ad.Filter {
			return ad.RegisterInstrumented(opts.Metrics, "ad."+c.Name(), newFilter(c))
		}
	}
	if opts.Trace != nil {
		// Each condition's filter records its own verdict spans; the tracer
		// is lock-free, so every filter shares it.
		inner := mkFilter
		mkFilter = func(c cond.Condition) ad.Filter {
			return ad.NewTraced(inner(c), opts.Trace)
		}
	}
	demux, err := multicond.NewDemux(mkFilter, conds...)
	if err != nil {
		return nil, err
	}
	sys := &MultiSystem{
		dms:      make(map[event.VarName]*multiDM),
		shards:   make([]*shard, opts.Workers),
		demux:    demux,
		byShard:  make(map[string]int, len(conds)),
		backlink: make(chan backFrame, backlinkBuffer),
		tr:       opts.Trace,
	}
	if opts.Metrics != nil {
		sys.m = newMultiMetrics(opts.Metrics)
	}
	for i := range sys.shards {
		sys.shards[i] = &shard{
			in:    make(chan frame, frontBuffer),
			byVar: make(map[event.VarName][]*station),
			free:  make(chan []event.Alert, backFreeList),
		}
	}

	// Build every condition's stations on its shard. Iterating conds in
	// caller order and replicas in index order fixes each shard's station
	// order, making per-condition processing deterministic.
	for _, c := range conds {
		si := int(uint64(hashVar(event.VarName(c.Name()))) % uint64(opts.Workers))
		sys.byShard[c.Name()] = si
		sh := sys.shards[si]
		for i := 0; i < opts.Replicas; i++ {
			eval, err := ce.New(fmt.Sprintf("%s/CE%d", c.Name(), i+1), c)
			if err != nil {
				return nil, err
			}
			if sys.m != nil {
				// One shared Metrics for every evaluator: the fields are
				// atomic, so thousands of stations aggregate into one set
				// of multi.ce.* counters.
				eval.SetMetrics(sys.m.ce)
			}
			eval.SetTracer(opts.Trace)
			if opts.CEJournal != nil {
				if fn := opts.CEJournal(c.Name(), i); fn != nil {
					eval.SetJournal(fn)
				}
			}
			st := &station{
				eval:    eval,
				links:   make(map[event.VarName]*frontLink, len(c.Vars())),
				cname:   c.Name(),
				replica: i,
			}
			sh.stations = append(sh.stations, st)
			for _, v := range c.Vars() {
				model := link.Model(link.None{})
				if opts.Loss != nil {
					if m := opts.Loss(c.Name(), i, v); m != nil {
						model = m
					}
				}
				_, lossless := model.(link.None)
				st.links[v] = &frontLink{
					model:    model,
					lossless: lossless,
					rng:      rand.New(rand.NewSource(opts.Seed ^ int64(i+1)<<20 ^ hashVar(v) ^ hashVar(event.VarName(c.Name())))),
				}
				sh.byVar[v] = append(sh.byVar[v], st)
			}
		}
	}

	// One DM per variable in the union of all condition variable sets; each
	// knows which shards care about it.
	for _, sh := range sys.shards {
		for v := range sh.byVar {
			dm, ok := sys.dms[v]
			if !ok {
				dm = &multiDM{}
				sys.dms[v] = dm
			}
			dm.shards = append(dm.shards, sh)
		}
	}

	if opts.Metrics != nil {
		// Per-shard load gauges: queue depth is sampled at snapshot time
		// (len on a channel is safe concurrently), stations is the static
		// occupancy the condition hash produced — together they show
		// whether a hot shard is overloaded by traffic or by assignment.
		perShard := make([]int64, len(sys.shards))
		for _, si := range sys.byShard {
			perShard[si] += int64(opts.Replicas)
		}
		for i, sh := range sys.shards {
			sh := sh
			opts.Metrics.GaugeFunc(fmt.Sprintf("multi.shard.%d.queue", i), func() int64 {
				return int64(len(sh.in))
			})
			opts.Metrics.Gauge(fmt.Sprintf("multi.shard.%d.stations", i)).Set(perShard[i])
		}
		// Per-stream back-link depth, the shard-gauge pattern applied to
		// alert fan-in: stream i's gauge counts alerts enqueued by shard i
		// and not yet filtered. The shared channel's frame depth is sampled
		// separately.
		sys.backGauges = make([]*obs.Gauge, len(sys.shards))
		for i := range sys.shards {
			sys.backGauges[i] = opts.Metrics.Gauge(fmt.Sprintf("multi.backlink.%d.queue", i))
		}
		opts.Metrics.GaugeFunc("multi.backlink.frames", func() int64 {
			return int64(len(sys.backlink))
		})
	}

	for i, sh := range sys.shards {
		i, sh := i, sh
		sys.wg.Add(1)
		go func() {
			defer sys.wg.Done()
			sys.shardLoop(i, sh)
		}()
	}
	sys.pumpWg.Add(1)
	go func() {
		defer sys.pumpWg.Done()
		sys.pumpLoop()
	}()
	return sys, nil
}

// shardLoop drains one shard's frame channel, driving every subscribed
// station inline. stream is the shard's index — its back-link stream id.
func (s *MultiSystem) shardLoop(stream int, sh *shard) {
	for f := range sh.in {
		if f.visit != nil {
			// A control frame: FIFO on the shard channel totally orders it
			// after every previously enqueued update, so the callback sees
			// each station exactly as the emitted prefix left it.
			var first error
			if f.visit.fn != nil {
				for _, st := range sh.stations {
					if err := f.visit.fn(st.cname, st.replica, st.eval); err != nil && first == nil {
						first = err
					}
				}
			}
			f.visit.done <- first
			continue
		}
		if f.us != nil {
			s.deliverBatchAll(stream, sh, sh.byVar[f.us[0].Var], f.us)
			continue
		}
		for _, st := range sh.byVar[f.u.Var] {
			s.deliver(stream, sh, st, f.u)
		}
	}
}

// pumpLoop is the Alert Displayer pump: the single consumer of the
// multiplexed back link. It preserves frame order (hence per-stream and
// per-condition order) while decoupling shard workers from filter latency.
func (s *MultiSystem) pumpLoop() {
	for f := range s.backlink {
		if f.done != nil {
			// A flush barrier: every frame enqueued before it has been
			// offered to the demux by now (the pump is the sole consumer).
			close(f.done)
			continue
		}
		for _, a := range f.alerts {
			if _, err := s.demux.Offer(a); err != nil {
				s.recordErr(err)
			}
		}
		if s.backGauges != nil {
			s.backGauges[f.stream].Add(-int64(len(f.alerts)))
		}
		// Recycle the frame buffer to its producing shard; drop it if the
		// free list is full.
		select {
		case s.shards[f.stream].free <- f.alerts[:0]:
		default:
		}
	}
}

// sendBack ships one coalesced alert run down the multiplexed back link.
func (s *MultiSystem) sendBack(stream int, alerts []event.Alert) {
	if s.backGauges != nil {
		s.backGauges[stream].Add(int64(len(alerts)))
	}
	if s.tr != nil {
		for _, a := range alerts {
			for _, v := range a.Histories.Vars() {
				s.tr.Record(obs.Span{
					Var: string(v), Seq: a.Histories[v].Latest().SeqNo,
					Stage: obs.StageBacklink, Replica: a.Source, Disp: obs.DispSent,
				})
			}
		}
	}
	s.backlink <- backFrame{stream: stream, alerts: alerts}
}

// linkSpan records one station front-link span; callers nil-check s.tr
// first so the tracing-off path never pays the call.
func (s *MultiSystem) linkSpan(st *station, u event.Update, disp string) {
	s.tr.Record(obs.Span{
		Var: string(u.Var), Seq: u.SeqNo,
		Stage: obs.StageLink, Replica: st.eval.ID(), Disp: disp,
	})
}

// deliver runs one update through a station's front link and evaluator —
// the body of the former per-link and per-CE goroutines, fused.
func (s *MultiSystem) deliver(stream int, sh *shard, st *station, u event.Update) {
	l := st.links[u.Var]
	if !l.lossless && !l.model.Deliver(u, l.rng) {
		s.m.addLost(1)
		if s.tr != nil {
			s.linkSpan(st, u, obs.DispLost)
		}
		return
	}
	s.m.addDelivered(1)
	if s.tr != nil {
		s.linkSpan(st, u, obs.DispDelivered)
	}
	a, fired, err := st.eval.Feed(u)
	if err != nil {
		s.recordErr(fmt.Errorf("runtime: %s: %w", st.eval.ID(), err))
		return
	}
	if !fired {
		return
	}
	s.sendBack(stream, append(sh.frameBuf(), a))
}

// deliverBatchAll is deliver for a whole batch across every station
// subscribed to the batch's variable. Each station's link filters the run
// per update (consuming randomness exactly as the per-update path does)
// and its evaluator consumes the survivors in one FeedBatch call; the
// resulting per-station alert runs are then merged by triggering sequence
// number — station order breaking ties — which is precisely the order the
// per-update loop interleaves them in. Under loss, replicas of one
// condition diverge, so this merge is what keeps the displayed sequence
// identical between the two paths. The merged run leaves as one coalesced
// back-link frame.
func (s *MultiSystem) deliverBatchAll(stream int, sh *shard, sts []*station, us []event.Update) {
	v := us[0].Var
	// Every alert in a batch of variable v was triggered by the v update it
	// just pushed, so Histories[v].Latest().SeqNo identifies the triggering
	// update; per-station runs are already ascending in it. Only stations
	// that fired join the merge — the common all-quiet frame skips it
	// entirely — and each caches its head's triggering seqno so the merge
	// never re-reads a history.
	active := sh.active[:0]
	for _, st := range sts {
		l := st.links[v]
		kept := us
		if !l.lossless {
			k := l.kept[:0]
			for _, u := range us {
				if l.model.Deliver(u, l.rng) {
					k = append(k, u)
					if s.tr != nil {
						s.linkSpan(st, u, obs.DispDelivered)
					}
				} else if s.tr != nil {
					s.linkSpan(st, u, obs.DispLost)
				}
			}
			l.kept = k
			kept = k
			s.m.addLost(int64(len(us) - len(kept)))
		} else if s.tr != nil {
			for _, u := range us {
				s.linkSpan(st, u, obs.DispDelivered)
			}
		}
		s.m.addDelivered(int64(len(kept)))
		alerts, err := st.eval.FeedBatch(kept, st.scratch[:0])
		st.scratch = alerts
		if err != nil {
			s.recordErr(fmt.Errorf("runtime: %s: %w", st.eval.ID(), err))
		}
		if len(alerts) > 0 {
			st.cursor = 0
			st.head = alerts[0].Histories[v].Latest().SeqNo
			active = append(active, st)
		}
	}
	sh.active = active
	if len(active) == 0 {
		return
	}
	out := sh.frameBuf()
	for len(active) > 0 {
		best := 0
		for i := 1; i < len(active); i++ {
			// Strict < keeps ties on the earliest station in subscription
			// order — the order the per-update loop visits them in.
			if active[i].head < active[best].head {
				best = i
			}
		}
		st := active[best]
		// Coalesce: the station scratch buffers are reused next frame, so
		// the alert values are copied into the frame's own run.
		out = append(out, st.scratch[st.cursor])
		st.cursor++
		if st.cursor < len(st.scratch) {
			st.head = st.scratch[st.cursor].Histories[v].Latest().SeqNo
			continue
		}
		// Drop the drained station, preserving order for the tie-break.
		copy(active[best:], active[best+1:])
		active = active[:len(active)-1]
	}
	s.sendBack(stream, out)
}

func (s *MultiSystem) recordErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Workers returns the size of the shard worker pool — the system's
// goroutine count, independent of how many conditions it monitors.
func (s *MultiSystem) Workers() int { return len(s.shards) }

// Emit publishes a new reading of variable v to every condition's
// replicas: the DM assigns the next sequence number and hands the update
// to each shard with a subscribed station.
func (s *MultiSystem) Emit(v event.VarName, value float64) (int64, error) {
	dm, ok := s.dms[v]
	if !ok {
		return 0, fmt.Errorf("runtime: no data monitor for variable %q", v)
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.closed {
		return 0, fmt.Errorf("runtime: Emit: %w", ErrClosed)
	}
	dm.seq++
	f := frame{u: event.U(v, dm.seq, value)}
	for _, sh := range dm.shards {
		sh.in <- f
	}
	s.m.addEmitted(1)
	if s.tr != nil {
		s.tr.Record(obs.Span{
			Var: string(v), Seq: dm.seq,
			Stage: obs.StageEmit, Replica: "DM", Disp: obs.DispEmitted,
		})
	}
	return dm.seq, nil
}

// EmitBatch publishes a run of readings of variable v as one batch: the DM
// assigns consecutive sequence numbers and the whole run crosses each
// shard channel as a single frame, amortizing the per-update hand-offs.
// Semantically identical to calling Emit once per value with no
// interleaved emitters; the batch slice is shared across shards and never
// mutated (lossy links filter into private buffers). It returns the
// sequence number assigned to the last reading (zero-length batches return
// the current counter).
func (s *MultiSystem) EmitBatch(v event.VarName, values []float64) (int64, error) {
	dm, ok := s.dms[v]
	if !ok {
		return 0, fmt.Errorf("runtime: no data monitor for variable %q", v)
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.closed {
		return 0, fmt.Errorf("runtime: EmitBatch: %w", ErrClosed)
	}
	if len(values) == 0 {
		return dm.seq, nil
	}
	us := make([]event.Update, len(values))
	for i, value := range values {
		dm.seq++
		us[i] = event.U(v, dm.seq, value)
	}
	f := frame{us: us}
	for _, sh := range dm.shards {
		sh.in <- f
	}
	s.m.addEmitted(int64(len(values)))
	s.m.incEmitBatches()
	if s.tr != nil {
		for _, u := range us {
			s.tr.Record(obs.Span{
				Var: string(u.Var), Seq: u.SeqNo,
				Stage: obs.StageEmit, Replica: "DM", Disp: obs.DispEmitted,
			})
		}
	}
	return dm.seq, nil
}

// Inject routes one externally-sequenced update of variable v to every
// shard with a subscribed station — the ingest-plane entry point for
// updates whose sequence numbers were assigned upstream (a remote DM
// behind a transport.UDPReceiver). The DM's own counter advances past
// u.SeqNo so a later Emit never reuses a sequence number. The caller is
// responsible for per-variable ordering: the receiver's in-order
// acceptance provides it, and in multipath mode the receiver's reorder
// layer (UDPReceiverOptions.ReorderDepth) re-serializes cross-socket
// races before its Dispatch callback calls here.
func (s *MultiSystem) Inject(u event.Update) error {
	dm, ok := s.dms[u.Var]
	if !ok {
		return fmt.Errorf("runtime: no data monitor for variable %q", u.Var)
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.closed {
		return fmt.Errorf("runtime: Inject: %w", ErrClosed)
	}
	if u.SeqNo > dm.seq {
		dm.seq = u.SeqNo
	}
	f := frame{u: u}
	for _, sh := range dm.shards {
		sh.in <- f
	}
	s.m.addEmitted(1)
	return nil
}

// InjectBatch routes a run of externally-sequenced updates of variable v
// as one frame per shard. The run is copied before it crosses the shard
// channels, so the caller may reuse (or alias a pooled decode buffer for)
// us as soon as InjectBatch returns — exactly the contract a
// transport.UDPReceiverOptions.Dispatch callback needs. Sequence numbers
// must be ascending within the run; the DM counter advances past the last.
func (s *MultiSystem) InjectBatch(v event.VarName, us []event.Update) error {
	dm, ok := s.dms[v]
	if !ok {
		return fmt.Errorf("runtime: no data monitor for variable %q", v)
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.closed {
		return fmt.Errorf("runtime: InjectBatch: %w", ErrClosed)
	}
	if len(us) == 0 {
		return nil
	}
	run := make([]event.Update, len(us))
	copy(run, us)
	if last := run[len(run)-1].SeqNo; last > dm.seq {
		dm.seq = last
	}
	f := frame{us: run}
	for _, sh := range dm.shards {
		sh.in <- f
	}
	s.m.addEmitted(int64(len(run)))
	s.m.incEmitBatches()
	return nil
}

// Demux exposes the Alert Displayer for inspection.
func (s *MultiSystem) Demux() *multicond.Demux { return s.demux }

// VisitStations runs fn against every station, on the owning shard
// workers' own goroutines, totally ordered after every update enqueued
// before the call — the recovery hook: fn can crash an evaluator and
// replay a durable log into it (durable.RecoverEvaluator) at a
// well-defined point of the stream. Within a shard, stations are visited
// in the deterministic construction order (condition order × replica
// order); across shards the visits run concurrently. The call blocks
// until every shard has finished and returns the first error.
func (s *MultiSystem) VisitStations(fn func(condName string, replica int, ev *ce.Evaluator) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("runtime: VisitStations: %w", ErrClosed)
	}
	dones := make([]chan error, len(s.shards))
	for i, sh := range s.shards {
		dones[i] = make(chan error, 1)
		sh.in <- frame{visit: &stationVisit{fn: fn, done: dones[i]}}
	}
	s.mu.Unlock()
	var first error
	for _, d := range dones {
		if err := <-d; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drain blocks until every update emitted before the call has been fully
// processed: shard queues flushed through the evaluators and every
// resulting alert offered to the demux. It is the quiescent point for
// crash/recover surgery: after Drain returns, Displayed captures exactly
// the emitted prefix.
func (s *MultiSystem) Drain() error {
	// A nil-callback visit is a pure barrier through every shard queue.
	if err := s.VisitStations(nil); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("runtime: Drain: %w", ErrClosed)
	}
	flushed := make(chan struct{})
	s.backlink <- backFrame{done: flushed}
	s.mu.Unlock()
	<-flushed
	return nil
}

// ReplaceFilter swaps one condition's filter instance in the demux while
// keeping the merged displayed history — the recovery hook for installing
// a filter rebuilt from a durable log (durable.RecoverFilter). Note the
// replacement is installed as-is: re-wrap it (ad.RegisterInstrumented,
// ad.NewTraced) if the displaced instance was instrumented.
func (s *MultiSystem) ReplaceFilter(name string, f ad.Filter) error {
	return s.demux.ReplaceFilter(name, f)
}

// Close drains the pipeline and returns the merged displayed sequence,
// plus the first evaluation error encountered (if any).
func (s *MultiSystem) Close() ([]event.Alert, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.errMu.Lock()
		defer s.errMu.Unlock()
		return s.demux.Displayed(), s.err
	}
	s.closed = true
	// s.mu stays held through the channel closes: VisitStations and Drain
	// send control frames on these channels under the same lock after
	// checking closed, so the hold is what makes close/send exclusive.
	// Shard workers and the pump never take s.mu, so waiting under it
	// cannot deadlock.
	defer s.mu.Unlock()

	// Stop every DM first: once each dm.mu has been held with closed set,
	// no Emit can be mid-send, so the shard channels are safe to close.
	for _, dm := range s.dms {
		dm.mu.Lock()
		dm.closed = true
		dm.mu.Unlock()
	}
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.wg.Wait()
	// All shard workers have exited, so no sendBack is in flight: the back
	// link drains to empty and the pump exits.
	close(s.backlink)
	s.pumpWg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.demux.Displayed(), s.err
}
