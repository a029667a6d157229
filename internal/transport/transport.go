// Package transport carries updates and alerts over real sockets,
// realizing the link assumptions of Section 2.1 with the protocols the
// paper itself suggests:
//
//   - Front links (DM → CE) use UDP datagrams: cheap for a low-capability
//     sensor, naturally lossy, one update per packet. The receiver enforces
//     in-order delivery by discarding any update whose sequence number does
//     not exceed the last accepted one for its variable — the
//     sequence-number mechanism the paper describes. An optional forced
//     loss model injects deterministic drops for testing and demos, since
//     loopback UDP rarely loses packets on its own.
//
//   - The back link (CE → AD) uses TCP with length-prefixed frames:
//     reliable and ordered, matching the paper's argument that alert
//     traffic is low and too valuable to lose. The replicas of one process
//     share one connection (mux.go).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	"condmon/internal/seq"
	"condmon/internal/wire"

	"math/rand"
)

// maxFrame bounds a TCP alert frame; anything larger indicates corruption.
const maxFrame = 1 << 20

// maxDatagram is the receiver's read-buffer size; PublishBatch splits runs
// so no batch datagram exceeds it. UDPPublisherOptions.MaxDatagram may
// lower the split point but never raise it.
const maxDatagram = 64 * 1024

// minDatagram is the smallest MaxDatagram a publisher accepts: enough for
// the batch header, a long variable name, a trace trailer, and at least one
// record.
const minDatagram = 512

// maxSenders bounds the sender-lane count: beyond a few hundred source
// sockets per endpoint the file-descriptor cost dwarfs any striping gain,
// and an absurd request is almost certainly a sign error.
const maxSenders = 256

// DefaultReorderSkew is the gap-release bound used when ReorderDepth is
// set without an explicit ReorderSkew: long enough for cross-socket
// scheduling skew on a loaded host, short enough that a genuinely lost
// update stalls its variable's release for only a few milliseconds.
const DefaultReorderSkew = 5 * time.Millisecond

// updateBuffer sizes receiver channels; UDP senders never block on the
// receiver, so a full buffer simply looks like link loss — faithful to the
// medium.
const updateBuffer = 1024

// hashVarName derives a stable shard index component from a variable name
// (FNV-1a, allocation-free). Publishers use it to pin each variable to one
// sender socket; with SO_REUSEPORT receive groups the kernel hashes the
// resulting fixed 4-tuple, so every datagram of a variable lands on the
// same receive socket and per-variable in-order acceptance needs no
// cross-socket coordination.
func hashVarName(v event.VarName) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(v))
	return h.Sum64()
}

// UDPPublisherOptions configure the DM side of a front link.
type UDPPublisherOptions struct {
	// Senders is the number of source sockets per CE endpoint. Values
	// below 1 (zero, negative) mean 1; values above 256 are clamped to
	// 256. In the default pinned mode variables are sharded across senders
	// by name hash, so a variable's datagrams always leave on the same
	// socket — the 4-tuple stability that keeps an SO_REUSEPORT receive
	// group's per-variable streams on one receive socket. Different
	// senders may publish concurrently; publishes of variables sharing a
	// sender serialize on its lock.
	Senders int
	// MaxDatagram bounds the size of a batch datagram. Values outside
	// [512, 64KB] are clamped to that range; zero means 64KB — the
	// receiver's read-buffer size, which no setting may exceed.
	MaxDatagram int
	// Stripe un-pins variables from their hash lane: each datagram —
	// every Publish, every PublishBatch chunk — takes the next sender
	// lane round-robin, so one hot variable's stream spreads across all
	// lanes, all 4-tuples, and therefore all sockets of an SO_REUSEPORT
	// receive group. Striped datagrams carry a path trailer (lane id +
	// per-lane datagram seqno) so receivers can drop duplicated frames
	// cheaply. The receiving CE MUST run with ReorderDepth > 0: striping
	// trades the pinned mode's free in-order guarantee for multipath
	// parallelism, and without a reorder buffer the cross-socket races
	// are discarded as out-of-order arrivals. Receivers that predate the
	// path trailer reject striped frames as trailing garbage, which is
	// why striping is opt-in per publisher.
	Stripe bool
}

// UDPPublisher is the DM side of a front link: it multicasts each update to
// a fixed set of CE endpoints as independent datagrams (one lossy link per
// recipient, as in Figure 1(b)).
type UDPPublisher struct {
	// senders each own one socket per endpoint plus a pooled encode buffer;
	// a variable's traffic always flows through senders[hash(var)%n].
	senders []*udpSender
	// payload is the per-chunk byte budget PublishBatch splits runs
	// against: MaxDatagram minus the fixed batch-frame overhead and a
	// reserved trace trailer, hoisted to construction so the hot path only
	// subtracts the variable-name length.
	payload int
	maxDg   int

	// stripe round-robins datagrams across lanes instead of pinning by
	// name hash; rr is the shared lane cursor.
	stripe bool
	rr     atomic.Uint64

	// Optional instrumentation; nil counters no-op.
	cDatagrams *obs.Counter // datagrams written (one per endpoint per send)
	cUpdates   *obs.Counter // updates published (before fan-out)

	// Optional live tracing (SetTrace); annotate gates the whole path so
	// the tracing-off cost is one bool check.
	tr        *obs.Tracer
	traceName string
	annotate  bool
}

// udpSender is one source-socket lane of a publisher: its connected
// sockets (one per endpoint, all sharing this lane's source port per
// endpoint) and the encode buffer its datagrams are built in. Striping
// publishers also stamp each lane's datagrams with (pathID, dgSeq) — the
// path trailer that lets receivers spot duplicated frames.
type udpSender struct {
	mu     sync.Mutex
	conns  []*net.UDPConn
	buf    []byte
	pathID uint32 // random lane instance id (stripe mode)
	dgSeq  uint64 // this lane's datagram counter, from 1 (under mu)
}

// SetMetrics registers publisher counters in reg under prefix:
// <prefix>.datagrams (one per endpoint per send, so batching shows up as
// datagrams ≪ updates × endpoints) and <prefix>.updates. Call before
// publishing; a nil registry leaves metrics off.
func (p *UDPPublisher) SetMetrics(reg *obs.Registry, prefix string) {
	p.cDatagrams = reg.Counter(prefix + ".datagrams")
	p.cUpdates = reg.Counter(prefix + ".updates")
}

// SetTrace enables live tracing on the publisher: every published update
// records a StageEmit span in t under the given replica name (default
// "DM"), and every outgoing datagram gains a wire trace trailer carrying
// the emit timestamp so downstream daemons can stitch their spans to this
// origin. Receivers that predate the trailer reject annotated datagrams as
// trailing garbage, which is why annotation only happens on this opt-in.
// A nil tracer leaves tracing off.
func (p *UDPPublisher) SetTrace(t *obs.Tracer, replica string) {
	if t == nil {
		return
	}
	if replica == "" {
		replica = "DM"
	}
	p.tr, p.traceName, p.annotate = t, replica, true
}

// NewUDPPublisher connects to the given CE addresses with default options:
// one sender socket per endpoint, 64KB batch datagrams.
func NewUDPPublisher(addrs ...string) (*UDPPublisher, error) {
	return NewUDPPublisherOpts(UDPPublisherOptions{}, addrs...)
}

// NewUDPPublisherOpts connects to the given CE addresses with explicit
// sender-socket and datagram-size options.
func NewUDPPublisherOpts(opts UDPPublisherOptions, addrs ...string) (*UDPPublisher, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: publisher needs at least one address")
	}
	switch {
	case opts.Senders < 1:
		opts.Senders = 1
	case opts.Senders > maxSenders:
		opts.Senders = maxSenders
	}
	maxDg := opts.MaxDatagram
	switch {
	case maxDg <= 0:
		maxDg = maxDatagram
	case maxDg < minDatagram:
		maxDg = minDatagram
	case maxDg > maxDatagram:
		maxDg = maxDatagram
	}
	p := &UDPPublisher{
		senders: make([]*udpSender, 0, opts.Senders),
		maxDg:   maxDg,
		stripe:  opts.Stripe,
		// Fixed batch-frame overhead (tag, name length, item count) plus a
		// reserved trace trailer, whether or not tracing is on: computing
		// the budget once here is what keeps PublishBatch's split point out
		// of the per-call path.
		payload: maxDg - (1 + 2 + 2) - wire.TraceLen,
	}
	if opts.Stripe {
		p.payload -= wire.PathLen // every striped datagram carries one
	}
	dsts := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		dst, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("transport: resolve %q: %w", a, err)
		}
		dsts = append(dsts, dst)
	}
	for i := 0; i < opts.Senders; i++ {
		s := &udpSender{
			conns:  make([]*net.UDPConn, 0, len(dsts)),
			pathID: rand.Uint32(),
		}
		for _, dst := range dsts {
			conn, err := net.DialUDP("udp", nil, dst)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("transport: dial %q: %w", dst, err)
			}
			s.conns = append(s.conns, conn)
		}
		p.senders = append(p.senders, s)
	}
	return p, nil
}

// Senders returns the number of sender-socket lanes.
func (p *UDPPublisher) Senders() int { return len(p.senders) }

// MaxDatagram returns the effective (clamped) batch datagram bound.
func (p *UDPPublisher) MaxDatagram() int { return p.maxDg }

// senderFor returns the pinned sender lane that carries variable v.
func (p *UDPPublisher) senderFor(v event.VarName) *udpSender {
	if len(p.senders) == 1 {
		return p.senders[0]
	}
	return p.senders[hashVarName(v)%uint64(len(p.senders))]
}

// lane picks the sender lane for one outgoing datagram of variable v:
// the hash-pinned lane normally, the next lane round-robin in stripe
// mode — the per-datagram rotation that spreads one variable's stream
// across every 4-tuple.
func (p *UDPPublisher) lane(v event.VarName) *udpSender {
	if p.stripe && len(p.senders) > 1 {
		return p.senders[p.rr.Add(1)%uint64(len(p.senders))]
	}
	return p.senderFor(v)
}

// Publish sends the update to every CE endpoint. Send errors on individual
// endpoints are ignored — a front link is allowed to lose updates, and a
// dead receiver is indistinguishable from a lossy link.
func (p *UDPPublisher) Publish(u event.Update) error {
	s := p.lane(u.Var)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := wire.AppendUpdate(s.buf[:0], u)
	if err != nil {
		return err
	}
	if p.stripe {
		s.dgSeq++
		b = wire.AppendPath(b, wire.Path{ID: s.pathID, Seq: s.dgSeq})
	}
	if p.annotate {
		now := time.Now().UnixNano()
		b = wire.AppendTrace(b, wire.Trace{Flags: wire.TraceFlagSampled, Origin: now})
		p.tr.Record(obs.Span{
			Var: string(u.Var), Seq: u.SeqNo,
			Stage: obs.StageEmit, Replica: p.traceName, Disp: obs.DispEmitted,
			Time: now, Origin: now,
		})
	}
	s.buf = b
	for _, c := range s.conns {
		_, _ = c.Write(b) // best-effort: loss is part of the model
	}
	p.cUpdates.Inc()
	p.cDatagrams.Add(int64(len(s.conns)))
	return nil
}

// PublishBatch sends a run of in-order updates of one variable as batch
// datagrams, one syscall per endpoint per chunk instead of one per update.
// Runs too large for a single datagram are split so every chunk fits the
// publisher's MaxDatagram bound (hence the receiver's buffer); the split
// point is derived from a budget computed at construction, and chunks are
// encoded into the sender lane's pooled buffer, so a steady-state call
// allocates nothing. Like Publish, per-endpoint send errors are ignored:
// losing a whole batch datagram is just a burstier draw from the same lossy
// link the paper assumes, and the receiver's per-update sequence check
// keeps later arrivals in order.
func (p *UDPPublisher) PublishBatch(v event.VarName, us []event.Update) error {
	perChunk := (p.payload - len(v)) / 16
	if perChunk < 1 {
		return fmt.Errorf("transport: variable name %q leaves no room for updates", v)
	}
	if !p.stripe {
		// Pinned fast path: the whole run flows through one lane under one
		// lock acquisition.
		s := p.senderFor(v)
		s.mu.Lock()
		defer s.mu.Unlock()
		for len(us) > 0 {
			n := len(us)
			if n > perChunk {
				n = perChunk
			}
			if err := p.sendChunkLocked(s, v, us[:n]); err != nil {
				return err
			}
			us = us[n:]
		}
		return nil
	}
	// Stripe mode: every chunk datagram takes the next lane, so a long run
	// of one hot variable fans out across all lanes (and the receive
	// group's sockets). Locks are taken per chunk — concurrent publishers
	// interleave at datagram granularity, which the receiver's reorder
	// buffer absorbs.
	for len(us) > 0 {
		n := len(us)
		if n > perChunk {
			n = perChunk
		}
		s := p.lane(v)
		s.mu.Lock()
		err := p.sendChunkLocked(s, v, us[:n])
		s.mu.Unlock()
		if err != nil {
			return err
		}
		us = us[n:]
	}
	return nil
}

// sendChunkLocked encodes one batch chunk into s's pooled buffer, appends
// the optional path and trace trailers, and writes it to every endpoint.
// Caller holds s.mu.
func (p *UDPPublisher) sendChunkLocked(s *udpSender, v event.VarName, us []event.Update) error {
	b, err := wire.AppendBatch(s.buf[:0], v, us)
	if err != nil {
		return err
	}
	if p.stripe {
		s.dgSeq++
		b = wire.AppendPath(b, wire.Path{ID: s.pathID, Seq: s.dgSeq})
	}
	if p.annotate {
		// One trailer per chunk: the whole run shares one emit instant.
		now := time.Now().UnixNano()
		b = wire.AppendTrace(b, wire.Trace{Flags: wire.TraceFlagSampled, Origin: now})
		for _, u := range us {
			p.tr.Record(obs.Span{
				Var: string(u.Var), Seq: u.SeqNo,
				Stage: obs.StageEmit, Replica: p.traceName, Disp: obs.DispEmitted,
				Time: now, Origin: now,
			})
		}
	}
	s.buf = b
	for _, c := range s.conns {
		_, _ = c.Write(b) // best-effort: loss is part of the model
	}
	p.cUpdates.Add(int64(len(us)))
	p.cDatagrams.Add(int64(len(s.conns)))
	return nil
}

// Close releases the sockets.
func (p *UDPPublisher) Close() {
	for _, s := range p.senders {
		for _, c := range s.conns {
			_ = c.Close()
		}
	}
}

// UDPReceiverOptions configure a CE-side front link endpoint.
type UDPReceiverOptions struct {
	// ForcedLoss, if non-nil, drops delivered updates per the model — a
	// deterministic stand-in for real network loss. The model instance is
	// shared by every variable (guarded by one lock); loss randomness is
	// drawn from a per-variable generator seeded from Seed and the variable
	// name, so a stateless model's schedule for a variable depends only on
	// that variable's arrival sequence — identical however datagrams
	// interleave across sockets.
	ForcedLoss link.Model
	Seed       int64
	// LossFor, if non-nil, supersedes ForcedLoss with a fresh model
	// instance per variable — the per-variable loss lanes that make even
	// stateful models (e.g. link.Burst) deterministic per variable
	// regardless of socket count. Returning nil means lossless for that
	// variable.
	LossFor func(v event.VarName) link.Model
	// Dispatch, if non-nil, switches the receiver into direct-dispatch
	// mode: each accepted in-order run is handed to this callback
	// synchronously on the owning socket's read goroutine, and the Updates
	// channel stays empty. The run aliases a pooled decode buffer — consume
	// or copy before returning. Dispatch may be called concurrently for
	// different variables, but one variable's runs are always handed over
	// serially and in seqno order: in pinned mode because sender lanes pin
	// each variable's 4-tuple to one receive socket, and with ReorderDepth
	// set because the reorder ring releases under a per-variable lock held
	// across the hand-off. Wire it to MultiSystem.InjectBatch or
	// Engine.InjectBatch to feed shard lanes without the channel hop.
	Dispatch func(v event.VarName, us []event.Update)
	// ReorderDepth, when positive, inserts the bounded reorder/dedup
	// acceptance layer (seq.Reorder) between the sockets and delivery: a
	// per-variable ring of this many slots buffers out-of-order arrivals
	// and releases them in seqno order, which is what lets one variable's
	// stream span sender lanes and receive sockets (the publisher's Stripe
	// mode). Duplicates drop, and a missing seqno blocks its variable for
	// at most ReorderSkew before being declared lost — the paper's
	// front-link loss semantics, so every downstream property is
	// preserved. The ring assumes the system-wide convention that a
	// variable's updates are numbered from 1 (an update with seqno ≤ 0 is
	// dropped as a duplicate). Zero keeps the zero-buffer pinned fast
	// path, which requires each variable's stream to stay on one socket.
	ReorderDepth int
	// ReorderSkew bounds how long a gap (missing seqno) may block a
	// variable's release when ReorderDepth > 0; on expiry the gap is
	// counted as <prefix>.reorder.gap_loss and the buffered successors
	// release. Zero or negative means DefaultReorderSkew.
	ReorderSkew time.Duration
	// Metrics, if non-nil, registers receiver counters: accepted updates,
	// out-of-order discards, forced-loss drops, and overruns (updates
	// dropped because the consumer fell behind). Names are prefixed with
	// MetricsPrefix, default "transport.recv". Socket groups additionally
	// register per-socket <prefix>.<i>.datagrams and <prefix>.<i>.accepted
	// counters showing how the kernel spreads load across the group.
	Metrics       *obs.Registry
	MetricsPrefix string
	// Trace, if non-nil, records a StageLink span for every datagram-borne
	// update (delivered, discarded, lost) under the TraceName replica label
	// (default "CE"), carrying the origin timestamp from annotated frames.
	Trace     *obs.Tracer
	TraceName string
	// Health, if non-nil, registers this front link under TraceName (or
	// "front") and touches it on every datagram-borne update, so /healthz
	// reports the link stale after StaleAfter without activity
	// (obs.DefaultStaleAfter when ≤ 0).
	Health     *obs.Health
	StaleAfter time.Duration
}

// varState is one variable's acceptance lane: the in-order horizon and
// origin timestamp as plain atomics (readers never stall the read loops),
// plus the variable's forced-loss state. States live in a copy-on-write
// map — the per-variable striping that replaced the receiver-wide mutex.
type varState struct {
	name       event.VarName
	lastSeq    atomic.Int64 // highest seqno seen in order; -1 before the first
	lastOrigin atomic.Int64

	// Forced-loss lane; model nil means lossless. lossMu is per-variable
	// under LossFor and shared receiver-wide under legacy ForcedLoss
	// (whose model instance is itself shared).
	lossMu *sync.Mutex
	model  link.Model
	rng    *rand.Rand

	// Reorder lane, nil in pinned mode. ringMu serializes the ring AND
	// the release→deliver hand-off: holding it across deliverRun is what
	// keeps one variable's releases in seqno order even when its datagrams
	// race up through several sockets. release is the pooled output slice
	// the ring drains into; gapSeen is the last GapLost reading already
	// forwarded to the gap-loss counter.
	ringMu  sync.Mutex
	ring    *seq.Reorder[event.Update]
	release []event.Update
	gapSeen int64
}

// sockStats is one socket's load instrumentation; nil counters no-op.
type sockStats struct {
	datagrams *obs.Counter
	accepted  *obs.Counter
	reordered *obs.Counter // arrivals below the variable's highest seqno
	dup       *obs.Counter // duplicate updates dropped on this socket
}

// UDPReceiver is the CE side of a front link: one or more UDP sockets
// (SO_REUSEPORT groups on Linux) whose read goroutines decode datagrams
// into pooled buffers, enforce per-variable in-order delivery through
// lock-free acceptance lanes, optionally inject loss, and hand accepted
// updates to a channel or a direct-dispatch callback.
type UDPReceiver struct {
	conns []*net.UDPConn
	socks []sockStats
	out   chan event.Update
	// evidence carries decoded DM evidence frames ('G') to whoever asked
	// for them via Evidence(); unconsumed frames drop (they are advisory
	// digests, re-sent at the publisher's cadence).
	evidence chan wire.Evidence
	wg       sync.WaitGroup
	once     sync.Once

	// vars is the copy-on-write variable-state index: read lock-free on
	// every datagram, copied under varsMu when a new variable appears.
	vars   atomic.Pointer[map[string]*varState]
	varsMu sync.Mutex

	// Reorder layer (rDepth > 0): per-variable rings hang off varState;
	// the flusher goroutine (fwg, stopped via done) releases gaps whose
	// skew bound expired even when no more traffic arrives.
	rDepth int
	rSkew  time.Duration
	done   chan struct{}
	fwg    sync.WaitGroup

	// paths is the copy-on-write per-lane frame-dedup index: last datagram
	// seqno seen per path trailer id, so an exact replay of a lane's most
	// recent frame drops in O(1) before any per-update work.
	paths   atomic.Pointer[map[uint32]*pathSeq]
	pathsMu sync.Mutex

	discarded atomic.Int64
	forced    atomic.Int64

	dispatch     func(v event.VarName, us []event.Update)
	lossFor      func(v event.VarName) link.Model
	lossShared   link.Model
	sharedLossMu sync.Mutex
	seed         int64

	// Optional instrumentation; nil counters, tracer, and link health
	// no-op.
	cAccepted, cDiscarded, cForced, cOverrun *obs.Counter
	cReleased, cRDup, cGapLoss, cDupFrames   *obs.Counter
	cEvidence                                *obs.Counter
	gRDepth                                  *obs.Gauge
	tr                                       *obs.Tracer
	trName                                   string
	lh                                       *obs.LinkHealth
}

// pathSeq tracks one sender lane's forward-only datagram-seqno horizon.
type pathSeq struct {
	last atomic.Uint64
}

// ListenUDP starts a single-socket receiver on addr (use "127.0.0.1:0" for
// an ephemeral test port).
func ListenUDP(addr string, opts UDPReceiverOptions) (*UDPReceiver, error) {
	return ListenUDPGroup(addr, 1, opts)
}

// ListenUDPGroup starts a receiver with sockets SO_REUSEPORT sockets bound
// to one port, each drained by its own read goroutine — the parallel
// ingest plane for multi-queue NICs and many-sender fleets. The kernel
// hashes each datagram's 4-tuple to one socket of the group, so a sender
// that keeps a variable on one source socket (UDPPublisherOptions.Senders)
// gives that variable a single receive goroutine and strictly in-order
// acceptance with no cross-socket coordination. On platforms without
// SO_REUSEPORT support (anything but Linux) the group transparently falls
// back to a single socket; Sockets reports the real width.
func ListenUDPGroup(addr string, sockets int, opts UDPReceiverOptions) (*UDPReceiver, error) {
	if sockets < 1 {
		sockets = 1
	}
	if !reusePortAvailable {
		sockets = 1 // documented fallback: one socket, same semantics
	}
	conns := make([]*net.UDPConn, 0, sockets)
	fail := func(err error) (*UDPReceiver, error) {
		for _, c := range conns {
			_ = c.Close()
		}
		return nil, err
	}
	if sockets == 1 {
		laddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
		}
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
		}
		conns = append(conns, conn)
	} else {
		// Every socket of the group — including the first — must opt into
		// SO_REUSEPORT before bind; the first bind fixes the port the rest
		// join.
		first, err := listenUDPReusePort(addr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
		}
		conns = append(conns, first)
		bound := first.LocalAddr().String()
		for i := 1; i < sockets; i++ {
			c, err := listenUDPReusePort(bound)
			if err != nil {
				return fail(fmt.Errorf("transport: listen group socket %d on %q: %w", i, bound, err))
			}
			conns = append(conns, c)
		}
	}
	for _, c := range conns {
		// Best-effort: a deeper kernel buffer absorbs sender bursts while a
		// read goroutine is mid-decode.
		_ = c.SetReadBuffer(1 << 20)
	}
	r := &UDPReceiver{
		conns:    conns,
		socks:    make([]sockStats, len(conns)),
		out:      make(chan event.Update, updateBuffer),
		evidence: make(chan wire.Evidence, evidenceBuffer),
		dispatch: opts.Dispatch,
		lossFor:  opts.LossFor,
		seed:     opts.Seed,
		done:     make(chan struct{}),
	}
	if opts.ReorderDepth > 0 {
		r.rDepth = opts.ReorderDepth
		r.rSkew = opts.ReorderSkew
		if r.rSkew <= 0 {
			r.rSkew = DefaultReorderSkew
		}
	}
	if opts.LossFor == nil {
		r.lossShared = opts.ForcedLoss
	}
	m := make(map[string]*varState)
	r.vars.Store(&m)
	pm := make(map[uint32]*pathSeq)
	r.paths.Store(&pm)
	if opts.Trace != nil {
		r.tr = opts.Trace
		r.trName = opts.TraceName
		if r.trName == "" {
			r.trName = "CE"
		}
	}
	if opts.Health != nil {
		name := opts.TraceName
		if name == "" {
			name = "front"
		}
		r.lh = opts.Health.Link("front:"+name, opts.StaleAfter)
	}
	if opts.Metrics != nil {
		prefix := opts.MetricsPrefix
		if prefix == "" {
			prefix = "transport.recv"
		}
		r.cAccepted = opts.Metrics.Counter(prefix + ".accepted")
		r.cDiscarded = opts.Metrics.Counter(prefix + ".discarded")
		r.cForced = opts.Metrics.Counter(prefix + ".forced_loss")
		r.cOverrun = opts.Metrics.Counter(prefix + ".overrun")
		r.cDupFrames = opts.Metrics.Counter(prefix + ".dup_frames")
		r.cEvidence = opts.Metrics.Counter(prefix + ".evidence")
		if r.rDepth > 0 {
			r.cReleased = opts.Metrics.Counter(prefix + ".reorder.released")
			r.cRDup = opts.Metrics.Counter(prefix + ".reorder.dropped_dup")
			r.cGapLoss = opts.Metrics.Counter(prefix + ".reorder.gap_loss")
			r.gRDepth = opts.Metrics.Gauge(prefix + ".reorder.depth")
		}
		for i := range r.socks {
			r.socks[i] = sockStats{
				datagrams: opts.Metrics.Counter(fmt.Sprintf("%s.%d.datagrams", prefix, i)),
				accepted:  opts.Metrics.Counter(fmt.Sprintf("%s.%d.accepted", prefix, i)),
				reordered: opts.Metrics.Counter(fmt.Sprintf("%s.%d.reordered", prefix, i)),
				dup:       opts.Metrics.Counter(fmt.Sprintf("%s.%d.dup", prefix, i)),
			}
		}
	}
	for i := range r.conns {
		r.wg.Add(1)
		go r.readLoop(i)
	}
	if r.rDepth > 0 {
		r.fwg.Add(1)
		go r.flushLoop()
	}
	return r, nil
}

// Addr returns the bound address (useful with ephemeral ports).
func (r *UDPReceiver) Addr() string { return r.conns[0].LocalAddr().String() }

// Sockets returns the width of the receive group (1 after the
// non-SO_REUSEPORT fallback).
func (r *UDPReceiver) Sockets() int { return len(r.conns) }

// Updates returns the stream of accepted updates. The channel closes when
// the receiver is closed. In dispatch mode it stays empty.
func (r *UDPReceiver) Updates() <-chan event.Update { return r.out }

// Stats reports discarded out-of-order datagrams and force-dropped
// updates. It reads two atomics — safe to poll from any goroutine without
// stalling the read loops.
func (r *UDPReceiver) Stats() (discarded, forced int64) {
	return r.discarded.Load(), r.forced.Load()
}

// Close stops the receiver; Updates is closed after every read loop exits.
// With a reorder layer the rings are drained last — buffered updates
// release in seqno order (interior gaps declared lost), so a closing
// receiver never swallows traffic it already held.
func (r *UDPReceiver) Close() {
	r.once.Do(func() {
		close(r.done)
		r.fwg.Wait()
		for _, c := range r.conns {
			_ = c.Close()
		}
		r.wg.Wait()
		if r.rDepth > 0 {
			r.flushAllRings()
		}
		close(r.out)
		close(r.evidence)
	})
}

// state returns the acceptance lane for the encoded variable name,
// creating it on first sight. The fast path is one lock-free map read with
// no string conversion; the slow path copies the map under varsMu.
func (r *UDPReceiver) state(name []byte) *varState {
	if st, ok := (*r.vars.Load())[string(name)]; ok {
		return st
	}
	return r.addVar(string(name))
}

// intern resolves an encoded variable name for the wire decoders, sharing
// the acceptance-lane index as the intern table.
func (r *UDPReceiver) intern(name []byte) event.VarName {
	return r.state(name).name
}

// lookup fetches the lane for an already-interned variable.
func (r *UDPReceiver) lookup(v event.VarName) *varState {
	return (*r.vars.Load())[string(v)]
}

// addVar installs a new variable's acceptance lane (copy-on-write).
func (r *UDPReceiver) addVar(name string) *varState {
	r.varsMu.Lock()
	defer r.varsMu.Unlock()
	old := *r.vars.Load()
	if st, ok := old[name]; ok {
		return st // lost the race to another socket
	}
	st := &varState{name: event.VarName(name)}
	st.lastSeq.Store(-1)
	if r.rDepth > 0 {
		// DMs number every variable's updates from 1 (dm.seq++ from the
		// zero value), so the ring's release horizon anchors at 0: seqno 1
		// releases immediately and the window never waits on a phantom
		// seqno 0. Releases are strictly ascending and therefore always
		// pass the acceptance CAS below (whose own horizon starts at -1).
		st.ring = seq.NewReorder[event.Update](0, r.rDepth, int64(r.rSkew))
		st.release = make([]event.Update, 0, 64)
	}
	var model link.Model
	if r.lossFor != nil {
		model = r.lossFor(st.name)
	} else {
		model = r.lossShared
	}
	if _, lossless := model.(link.None); model != nil && !lossless {
		st.model = model
		// Per-variable randomness: a variable's draw sequence depends only
		// on its own arrival order, so loss schedules are identical for any
		// socket count — what the ingest-equivalence suite pins.
		st.rng = rand.New(rand.NewSource(r.seed ^ int64(hashVarName(st.name))))
		if r.lossFor != nil {
			st.lossMu = new(sync.Mutex)
		} else {
			st.lossMu = &r.sharedLossMu // shared model ⇒ shared lock
		}
	}
	next := make(map[string]*varState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = st
	r.vars.Store(&next)
	return st
}

// readLoop drains one socket: decode into this goroutine's pooled buffers,
// then run the shared acceptance path.
func (r *UDPReceiver) readLoop(idx int) {
	defer r.wg.Done()
	conn := r.conns[idx]
	buf := make([]byte, maxDatagram)
	scratch := make([]event.Update, 0, 64)
	for {
		// ReadFromUDPAddrPort keeps the read loop allocation-free: the
		// classic ReadFromUDP materializes a *net.UDPAddr per datagram.
		n, _, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		scratch = r.handleDatagram(idx, buf[:n], scratch)
	}
}

// handleDatagram decodes one datagram into scratch and delivers the run,
// returning the (possibly grown) scratch for reuse. Corrupt datagrams are
// dropped whole, corrupt batch items individually — both just another form
// of link loss.
func (r *UDPReceiver) handleDatagram(idx int, b []byte, scratch []event.Update) []event.Update {
	r.socks[idx].datagrams.Inc()
	if len(b) > 0 && b[0] == 'B' {
		// A batch datagram: every decodable update runs through the same
		// per-update acceptance as single datagrams.
		batch, _, rest, err := wire.DecodeBatchInto(b, scratch[:0], r.intern)
		if err != nil {
			return scratch
		}
		if len(batch.Updates) > 0 {
			scratch = batch.Updates // keep any growth
		}
		pth, pok, rest, perr := wire.TakePath(rest)
		if perr != nil {
			return scratch
		}
		t, _, rest, terr := wire.TakeTrace(rest)
		if terr != nil || len(rest) != 0 {
			return scratch
		}
		if pok && r.dupFrame(pth) {
			r.cDupFrames.Inc()
			return scratch
		}
		if len(batch.Updates) > 0 {
			r.acceptRun(idx, r.lookup(batch.Var), batch.Updates, t.Origin)
		}
		return scratch
	}
	if len(b) > 0 && b[0] == 'G' {
		// A DM evidence frame: CRC-framed prefix digest for the audit path.
		// Decoders that predate the tag drop these whole, which is why
		// evidence publishing is opt-in per daemon.
		ev, rest, err := wire.DecodeEvidence(b)
		if err != nil || len(rest) != 0 {
			return scratch
		}
		r.lh.Touch() // evidence is link activity too
		r.cEvidence.Inc()
		select {
		case r.evidence <- ev:
		default: // advisory digests: the next frame re-covers this one
		}
		return scratch
	}
	u, rest, err := wire.DecodeUpdateInto(b, r.intern)
	if err != nil {
		return scratch
	}
	pth, pok, rest, perr := wire.TakePath(rest)
	if perr != nil {
		return scratch
	}
	t, _, rest, terr := wire.TakeTrace(rest)
	if terr != nil || len(rest) != 0 {
		return scratch
	}
	if pok && r.dupFrame(pth) {
		r.cDupFrames.Inc()
		return scratch
	}
	run := append(scratch[:0], u)
	r.acceptRun(idx, r.lookup(u.Var), run, t.Origin)
	return run[:0]
}

// dupFrame reports whether this frame is an exact replay of its lane's
// most recent datagram — the O(1) duplication-safe framing check striped
// publishers enable with the path trailer. A lane's datagram seqno only
// moves forward; an equal reading is a replay, a lower one is frame
// reordering and proceeds to per-update acceptance (which catches any
// duplicate updates inside it).
func (r *UDPReceiver) dupFrame(p wire.Path) bool {
	ps, ok := (*r.paths.Load())[p.ID]
	if !ok {
		ps = r.addPath(p.ID)
	}
	for {
		last := ps.last.Load()
		switch {
		case p.Seq == last:
			return true
		case p.Seq < last:
			return false
		}
		if ps.last.CompareAndSwap(last, p.Seq) {
			return false
		}
	}
}

// addPath installs a new lane's frame-dedup horizon (copy-on-write).
func (r *UDPReceiver) addPath(id uint32) *pathSeq {
	r.pathsMu.Lock()
	defer r.pathsMu.Unlock()
	old := *r.paths.Load()
	if ps, ok := old[id]; ok {
		return ps // lost the race to another socket
	}
	ps := new(pathSeq)
	next := make(map[uint32]*pathSeq, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = ps
	r.paths.Store(&next)
	return ps
}

// acceptRun routes one decoded run of a variable into the acceptance
// machinery: through the reorder ring when the layer is on, straight to
// in-order delivery in pinned mode.
func (r *UDPReceiver) acceptRun(idx int, st *varState, us []event.Update, origin int64) {
	if st.ring != nil {
		r.reorderRun(idx, st, us, origin)
		return
	}
	r.deliverRun(idx, st, us, origin)
}

// acceptance verdicts of one update against its variable's lane.
const (
	acceptOK      = iota
	acceptDiscard // out-of-order: seqno below the horizon
	acceptDup     // exact replay: seqno equals the horizon
	acceptForced
)

// accept applies the in-order rule and forced loss to one update. The
// horizon is claimed by compare-and-swap: with sender lanes pinning each
// variable to one socket the loop never spins, but acceptance stays
// correct even if datagrams of one variable reach two sockets.
func (st *varState) accept(u event.Update) int {
	for {
		last := st.lastSeq.Load()
		if u.SeqNo == last {
			return acceptDup // replayed datagram (Section 2.1 discard rule)
		}
		if u.SeqNo < last {
			return acceptDiscard // out-of-order (Section 2.1)
		}
		if st.lastSeq.CompareAndSwap(last, u.SeqNo) {
			break
		}
	}
	if st.model != nil {
		// Forced loss still advances the order horizon (claimed above): the
		// link "lost" this update and later arrivals remain in order.
		st.lossMu.Lock()
		ok := st.model.Deliver(u, st.rng)
		st.lossMu.Unlock()
		if !ok {
			return acceptForced
		}
	}
	return acceptOK
}

// deliverRun runs one decoded in-order run (all of one variable) through
// acceptance, compacting survivors in place, then hands them to the
// dispatch callback or the output channel. origin is the annotated frame's
// emit timestamp (zero when untagged); it labels the link spans and is
// remembered per variable for LastOrigin. idx is the receiving socket, or
// -1 when the run comes from the reorder flusher rather than a read loop.
func (r *UDPReceiver) deliverRun(idx int, st *varState, us []event.Update, origin int64) {
	r.lh.Touch() // any datagram-borne update is link activity
	kept := us[:0]
	for _, u := range us {
		switch st.accept(u) {
		case acceptDiscard:
			r.discarded.Add(1)
			r.cDiscarded.Inc()
			if idx >= 0 {
				r.socks[idx].reordered.Inc()
			}
			r.linkSpan(u, obs.DispDiscarded, origin)
		case acceptDup:
			r.discarded.Add(1)
			r.cDiscarded.Inc()
			if idx >= 0 {
				r.socks[idx].dup.Inc()
			}
			r.linkSpan(u, obs.DispDiscarded, origin)
		case acceptForced:
			r.forced.Add(1)
			r.cForced.Inc()
			r.linkSpan(u, obs.DispLost, origin)
		default:
			kept = append(kept, u)
		}
	}
	if len(kept) == 0 {
		return
	}
	if origin != 0 {
		st.lastOrigin.Store(origin)
	}
	if r.dispatch != nil {
		r.dispatch(st.name, kept)
		r.cAccepted.Add(int64(len(kept)))
		if idx >= 0 {
			r.socks[idx].accepted.Add(int64(len(kept)))
		}
		if r.tr != nil {
			for _, u := range kept {
				r.linkSpan(u, obs.DispDelivered, origin)
			}
		}
		return
	}
	for _, u := range kept {
		select {
		case r.out <- u:
			r.cAccepted.Inc()
			if idx >= 0 {
				r.socks[idx].accepted.Inc()
			}
			r.linkSpan(u, obs.DispDelivered, origin)
		default:
			// Receiver overrun: drop, indistinguishable from link loss.
			r.cOverrun.Inc()
			r.linkSpan(u, obs.DispLost, origin)
		}
	}
}

// reorderRun feeds one decoded run through the variable's reorder ring and
// delivers whatever the ring releases — all under the variable's ring
// lock, which serializes both the ring state and the hand-off to
// deliverRun, so a variable's releases reach dispatch in seqno order even
// when its datagrams race up through several sockets concurrently. The
// clock is read once per datagram, not per update.
func (r *UDPReceiver) reorderRun(idx int, st *varState, us []event.Update, origin int64) {
	// Touch link health on arrival, not release: a datagram the ring fully
	// buffers (its seqnos wait behind a gap) is still link activity, and
	// /healthz must not report a front link stale while its traffic is
	// merely parked in the reorder rings.
	r.lh.Touch()
	now := time.Now().UnixNano()
	st.ringMu.Lock()
	defer st.ringMu.Unlock()
	out := st.release[:0]
	pend0 := st.ring.Pending()
	var dups, reord int64
	for _, u := range us {
		var v seq.OfferVerdict
		out, v = st.ring.Offer(u.SeqNo, u, now, out)
		if v&seq.OfferDup != 0 {
			dups++
		}
		if v&seq.OfferReordered != 0 {
			reord++
		}
	}
	r.finishReorder(idx, st, out, origin, pend0, dups, reord)
}

// finishReorder does the post-ring bookkeeping shared by arrivals and
// flushes — counters, the depth gauge delta, and delivery of the released
// run. Caller holds st.ringMu.
func (r *UDPReceiver) finishReorder(idx int, st *varState, out []event.Update, origin int64, pend0 int, dups, reord int64) {
	if dups > 0 {
		// Ring-level duplicates fold into the receiver-wide discarded
		// aggregate (the Stats identity stays sent = accepted + discarded +
		// forced for duplicate-free schedules and counts every drop
		// otherwise) and into the dedicated reorder counter.
		r.discarded.Add(dups)
		r.cDiscarded.Add(dups)
		r.cRDup.Add(dups)
		if idx >= 0 {
			r.socks[idx].dup.Add(dups)
		}
	}
	if reord > 0 && idx >= 0 {
		r.socks[idx].reordered.Add(reord)
	}
	if gl := st.ring.Stats().GapLost; gl != st.gapSeen {
		r.cGapLoss.Add(gl - st.gapSeen)
		st.gapSeen = gl
	}
	r.gRDepth.Add(int64(st.ring.Pending() - pend0))
	if len(out) > 0 {
		r.cReleased.Add(int64(len(out)))
		r.deliverRun(idx, st, out, origin)
	}
	// Keep any growth of the pooled release slice.
	st.release = out[:0]
}

// flushLoop is the reorder layer's skew clock: arrivals start gap timers
// (seq.Reorder.Offer), and this loop releases the gaps whose bound expired
// with no further traffic to observe it.
func (r *UDPReceiver) flushLoop() {
	defer r.fwg.Done()
	period := r.rSkew / 4
	if period < 200*time.Microsecond {
		period = 200 * time.Microsecond
	}
	if period > 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
			r.flushExpired(time.Now().UnixNano())
		}
	}
}

// flushExpired releases every variable's expired head gap (if any),
// declaring the missing seqnos lost.
func (r *UDPReceiver) flushExpired(now int64) {
	for _, st := range *r.vars.Load() {
		st.ringMu.Lock()
		pend0 := st.ring.Pending()
		out := st.ring.FlushExpired(now, st.release[:0])
		r.finishReorder(-1, st, out, st.lastOrigin.Load(), pend0, 0, 0)
		st.ringMu.Unlock()
	}
}

// flushAllRings drains every ring on shutdown: buffered updates release in
// seqno order with interior gaps declared lost.
func (r *UDPReceiver) flushAllRings() {
	for _, st := range *r.vars.Load() {
		st.ringMu.Lock()
		pend0 := st.ring.Pending()
		out := st.ring.FlushAll(st.release[:0])
		r.finishReorder(-1, st, out, st.lastOrigin.Load(), pend0, 0, 0)
		st.ringMu.Unlock()
	}
}

// ReorderPending returns the number of updates currently buffered across
// all reorder rings (always zero in pinned mode) — the same quantity the
// <prefix>.reorder.depth gauge tracks, but available without a registry.
func (r *UDPReceiver) ReorderPending() int {
	if r.rDepth == 0 {
		return 0
	}
	n := 0
	for _, st := range *r.vars.Load() {
		st.ringMu.Lock()
		n += st.ring.Pending()
		st.ringMu.Unlock()
	}
	return n
}

// LastOrigin returns the origin timestamp (Unix nanoseconds) carried by
// the most recently accepted annotated update for v, or zero when no
// annotated update has arrived. CE daemons use it to stamp outgoing alert
// frames with the triggering update's emit time. One atomic load — safe
// from any goroutine without stalling the read loops.
func (r *UDPReceiver) LastOrigin(v event.VarName) int64 {
	if st := r.lookup(v); st != nil {
		return st.lastOrigin.Load()
	}
	return 0
}

// linkSpan records one front-link span; no-op with tracing off.
func (r *UDPReceiver) linkSpan(u event.Update, disp string, origin int64) {
	if r.tr == nil {
		return
	}
	r.tr.Record(obs.Span{
		Var: string(u.Var), Seq: u.SeqNo,
		Stage: obs.StageLink, Replica: r.trName, Disp: disp,
		Origin: origin,
	})
}

// lenPrefix is the size of the big-endian length that precedes every
// back-link frame and, inside an 'M' frame, every alert item.
const lenPrefix = 4

// appendAlertItem appends a length prefix and the alert's encoding behind it
// — one item of a mux run — with no intermediate buffer. On an encode error
// dst is untouched.
func appendAlertItem(dst []byte, a event.Alert) ([]byte, error) {
	at := len(dst)
	out, err := wire.AppendAlert(append(dst, 0, 0, 0, 0), a)
	if err != nil {
		return dst, err
	}
	patchFrameLen(out, at)
	return out, nil
}

// patchFrameLen sets the length prefix at buf[at:] to cover the rest of buf.
func patchFrameLen(buf []byte, at int) {
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-lenPrefix))
}

// keepBuffer empties buf for reuse, letting go of one that an outsized
// message grew past limit.
func keepBuffer(buf []byte, limit int) []byte {
	if cap(buf) > limit {
		return nil
	}
	return buf[:0]
}

// readFrame reads one length-prefixed back-link frame into buf, growing it
// when the frame does not fit, and returns the frame body. The length
// prefix is read into buf too — a local array would escape through the
// io.Reader and cost every frame an allocation. An empty or over-limit
// length is an error: the stream is corrupt.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < lenPrefix {
		buf = make([]byte, lenPrefix)
	}
	hdr := buf[:lenPrefix]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > maxFrame {
		return buf, fmt.Errorf("transport: frame length %d out of range", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// closeOnDone closes conn when done closes, unblocking a handler's read at
// listener shutdown. The returned stop ends the watch when the handler
// returns first, so a connection that comes and goes leaves nothing behind.
func closeOnDone(conn net.Conn, done <-chan struct{}) (stop func()) {
	gone := make(chan struct{})
	go func() {
		select {
		case <-done:
			_ = conn.Close()
		case <-gone:
		}
	}()
	return func() { close(gone) }
}

// arrivalSpans records one StageBacklink/arrived span per history variable
// of an alert that crossed the back link. No-op with tracing off.
func arrivalSpans(tr *obs.Tracer, a event.Alert, origin int64) {
	if tr == nil {
		return
	}
	var stack [4]event.VarName
	for _, v := range a.Histories.AppendVars(stack[:0]) {
		seqNo, _ := a.SeqNo(v) // 0 for the empty history the wire admits
		tr.Record(obs.Span{
			Var: string(v), Seq: seqNo,
			Stage: obs.StageBacklink, Replica: a.Source, Disp: obs.DispArrived,
			Origin: origin,
		})
	}
}
