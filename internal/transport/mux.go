package transport

// This file is the back link (paper §2.1: lossless, in-order, CE → AD).
// Every CE replica of a process shares one TCP connection to the AD. The
// MuxSender tags each alert with a 32-bit stream id, frames alerts of one
// stream into 'M' frames — written at once while the link is quiet,
// coalesced and flushed by size or deadline once it is busy — and preserves
// per-stream order; digests ('D') and forwarded DM evidence ('G') travel
// as standalone frames on the same connection, in send order with the
// alerts. The MuxListener demultiplexes the frames back into (stream,
// alert) pairs, digests and evidence. Frames are self-describing — the
// first body byte is the wire tag — so one listener serves a mixed fleet,
// including senders that write one plain 'A' frame per alert (stream 0).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/runtime"
	"condmon/internal/wire"
)

// Default MuxSender coalescing knobs: a busy link's buffer flushes as soon
// as it holds defaultFlushBytes of frame payload, or defaultFlushEvery after
// the first unflushed Send, whichever comes first.
const (
	defaultFlushBytes = 32 * 1024
	defaultFlushEvery = 2 * time.Millisecond
)

// quietSends is how many items one FlushEvery window may carry while the
// sender still writes each of them as it is sent. One more and the link
// counts as busy: coalescing starts, and lasts until a deadline flush
// carries no more than this — until waiting bought nothing.
const quietSends = 4

// MuxSenderOptions configure the coalescing buffer of a MuxSender.
type MuxSenderOptions struct {
	// FlushBytes is the buffered payload size that forces an immediate
	// flush (default 32 KiB). Larger values coalesce more alerts per
	// syscall at the cost of latency.
	FlushBytes int
	// FlushEvery bounds how long a buffered alert may wait on a busy link
	// before the deadline flush pushes it out (default 2ms). It is also the
	// window over which the sender measures its own send rate to tell a
	// quiet link, which buffers nothing, from a busy one.
	FlushEvery time.Duration
	// Metrics, if non-nil, registers sender counters under MetricsPrefix
	// (default "transport.mux"): <prefix>.alerts, <prefix>.frames, and
	// <prefix>.flushes — alerts = frames = flushes is a quiet link, alerts
	// ≫ frames ≫ flushes is coalescing working on a busy one.
	Metrics       *obs.Registry
	MetricsPrefix string
}

func (o *MuxSenderOptions) applyDefaults() {
	if o.FlushBytes <= 0 {
		o.FlushBytes = defaultFlushBytes
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = defaultFlushEvery
	}
	if o.MetricsPrefix == "" {
		o.MetricsPrefix = "transport.mux"
	}
}

// muxStream is one stream's pending coalesced run, held exactly as it will
// sit inside its 'M' frame: for each alert in Send order a 4-byte big-endian
// length followed by that many bytes of wire.AppendAlert encoding. Send
// appends an item in place; a flush copies whole spans of it behind frame
// headers, finding the item boundaries by walking the lengths. The buffer is
// reused across flushes.
type muxStream struct {
	id  uint32
	buf []byte
}

// MuxSender is the CE side of the back link. Any number of streams (CE
// replicas, shards) send through one TCP connection, and alerts of one
// stream are delivered in Send order. The sender follows its own load: it
// is quiet until more than quietSends items are sent inside one FlushEvery
// window, and while quiet every send is written before it returns; past
// that it coalesces — small Sends gather into 'M' frames flushed by size or
// deadline — until a deadline flush finds no more than quietSends items
// waiting. The frames are the same in both states; only when they are
// written differs. All methods are safe for concurrent use — replicas of
// one process share the sender directly.
type MuxSender struct {
	opts MuxSenderOptions
	conn net.Conn

	mu      sync.Mutex
	streams map[uint32]*muxStream
	order   []*muxStream // streams with pending items, first-Send order
	pending int          // buffered bytes: pending items plus closed frames
	items   int          // sends buffered since the last flush
	out     []byte       // closed frames awaiting the next flush, reused
	timer   *time.Timer  // deadline flush, created on first use and re-armed
	armed   bool         // the timer is counting down to a flush
	closed  bool
	err     error // sticky write error: the connection is dead

	coalescing  bool      // the link is busy: sends wait for size or deadline
	windowStart time.Time // quiet state: when the current rate window opened
	windowSends int       // quiet state: sends inside that window

	cAlerts, cFrames, cFlushes *obs.Counter
}

// DialMux connects a back link to a MuxListener.
func DialMux(addr string, opts MuxSenderOptions) (*MuxSender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial mux %q: %w", addr, err)
	}
	opts.applyDefaults()
	s := &MuxSender{
		opts:    opts,
		conn:    conn,
		streams: make(map[uint32]*muxStream),
	}
	if opts.Metrics != nil {
		s.cAlerts = opts.Metrics.Counter(opts.MetricsPrefix + ".alerts")
		s.cFrames = opts.Metrics.Counter(opts.MetricsPrefix + ".frames")
		s.cFlushes = opts.Metrics.Counter(opts.MetricsPrefix + ".flushes")
	}
	return s, nil
}

// Send sends one alert on the given stream. On a quiet link it is written
// before Send returns; on a busy one it leaves in the next flush — triggered
// by the size threshold, the deadline, an explicit Flush, or Close. Either
// way it arrives after every alert previously sent on the same stream.
// After Close, Send returns the wrapped runtime.ErrClosed sentinel,
// matching the front links' Emit-after-Close contract. An alert that cannot
// be encoded or exceeds the frame limit is refused with the stream's pending
// run untouched. In the steady state — stream known, buffers grown — Send
// allocates nothing, quiet or busy.
func (s *MuxSender) Send(stream uint32, a event.Alert) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Encode behind the stream's pending run; the run only grows once the
	// new slice is stored back, so every refusal below is its own rollback.
	st := s.streams[stream]
	var run []byte
	if st != nil {
		run = st.buf
	}
	grown, err := appendAlertItem(run, a)
	if err != nil {
		return err
	}
	item := len(grown) - len(run)
	if body := item - lenPrefix; wire.MuxOverhead(1, body) > maxFrame {
		return fmt.Errorf("transport: alert of %d bytes exceeds frame limit", body)
	}
	if err := s.usableLocked(); err != nil {
		return err
	}
	if st == nil {
		st = &muxStream{id: stream}
		s.streams[stream] = st
	}
	if len(run) == 0 {
		s.order = append(s.order, st)
	}
	st.buf = grown
	s.cAlerts.Inc()
	return s.queuedLocked(item)
}

// SendTrace is Send for an alert that carries a wire trace trailer — the
// sampled flag and the triggering update's origin timestamp. A trailer
// annotates a whole frame, so the alert closes into a single-item 'M' frame
// of its own, behind every frame already pending, and leaves in the same
// write as its untraced neighbours.
func (s *MuxSender) SendTrace(stream uint32, a event.Alert, t wire.Trace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := s.openFrameLocked()
	if err != nil {
		return err
	}
	if frame, err = appendAlertItem(wire.AppendMuxHeader(frame, stream, 1), a); err != nil {
		return err
	}
	if err := s.closeFrameLocked(wire.AppendTrace(frame, t), "alert"); err != nil {
		return err
	}
	s.cAlerts.Inc()
	return nil
}

// SendDigest sends an alert digest — the compact encoding for CEs whose AD
// runs an equality-only filter — as a standalone 'D' frame, in order with
// the alerts sent before and after it.
func (s *MuxSender) SendDigest(d wire.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := s.openFrameLocked()
	if err != nil {
		return err
	}
	if frame, err = wire.AppendDigest(frame, d); err != nil {
		return err
	}
	return s.closeFrameLocked(frame, "digest")
}

// SendEvidence forwards one DM evidence frame as a standalone 'G' frame —
// how a CE relays DM digests to the AD-side auditor.
func (s *MuxSender) SendEvidence(e wire.Evidence) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := s.openFrameLocked()
	if err != nil {
		return err
	}
	if frame, err = wire.AppendEvidence(frame, e); err != nil {
		return err
	}
	return s.closeFrameLocked(frame, "evidence")
}

// usableLocked reports why the sender can take no more: closed, or the
// connection failed under an earlier flush.
func (s *MuxSender) usableLocked() error {
	if s.closed {
		return fmt.Errorf("transport: mux Send: %w", runtime.ErrClosed)
	}
	return s.err
}

// openFrameLocked starts a frame of its own behind everything pending: the
// stream runs are closed into s.out first, so the frame can neither overtake
// nor split them. The returned buffer is s.out plus an unpatched length
// prefix; nothing is kept until closeFrameLocked stores it back.
func (s *MuxSender) openFrameLocked() ([]byte, error) {
	if err := s.usableLocked(); err != nil {
		return nil, err
	}
	s.frameRunsLocked()
	return append(s.out, 0, 0, 0, 0), nil
}

// closeFrameLocked patches the length of the frame openFrameLocked began,
// keeps it for the next flush, and has queuedLocked write or schedule it.
func (s *MuxSender) closeFrameLocked(out []byte, what string) error {
	at := len(s.out)
	if n := len(out) - at - lenPrefix; n > maxFrame {
		return fmt.Errorf("transport: %s frame of %d bytes exceeds limit", what, n)
	}
	patchFrameLen(out, at)
	s.out = out
	s.cFrames.Inc()
	return s.queuedLocked(len(out) - at)
}

// queuedLocked accounts one newly buffered item of n bytes. A quiet link
// writes it now; the item that makes the window's count exceed quietSends
// turns the link busy and, like every item after it, is flushed when the
// buffer is full or no later than the deadline. Only the quiet state reads
// the clock.
func (s *MuxSender) queuedLocked(n int) error {
	s.pending += n
	s.items++
	if !s.coalescing {
		now := time.Now()
		if now.Sub(s.windowStart) >= s.opts.FlushEvery {
			s.windowStart, s.windowSends = now, 0
		}
		if s.windowSends++; s.windowSends <= quietSends {
			return s.flushLocked()
		}
		s.coalescing = true
	}
	if s.pending >= s.opts.FlushBytes {
		return s.flushLocked()
	}
	if !s.armed {
		if s.timer == nil {
			s.timer = time.AfterFunc(s.opts.FlushEvery, s.deadlineFlush)
		} else {
			s.timer.Reset(s.opts.FlushEvery)
		}
		s.armed = true
	}
	return nil
}

// deadlineFlush is the timer callback: push whatever is buffered. A deadline
// that gathered no more than quietSends items bought nothing for the wait it
// cost, so the link is quiet again. A callback that lost the race with a
// size-triggered flush finds the timer disarmed and says nothing about load.
func (s *MuxSender) deadlineFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.armed {
		return
	}
	if s.items <= quietSends {
		s.coalescing, s.windowSends = false, 0
	}
	_ = s.flushLocked() // the error is sticky; the next Send reports it
}

// Flush writes everything buffered out now. Useful before measuring and
// when a caller needs bounded delivery without waiting for the deadline.
func (s *MuxSender) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("transport: mux Flush: %w", runtime.ErrClosed)
	}
	return s.flushLocked()
}

// frameRunsLocked closes every pending stream run into s.out — 'M' header,
// then as many whole items of the run as fit under maxFrame and the 16-bit
// item count, so an oversized run becomes several frames of the same stream
// and never resets the connection. The caller holds s.mu.
func (s *MuxSender) frameRunsLocked() {
	out := s.out
	frames := 0
	for _, st := range s.order {
		for run := st.buf; len(run) > 0; frames++ {
			// Greedily take items while the frame stays under the limit and
			// the 16-bit item count has room; end already counts the items'
			// length prefixes.
			n, end := 0, 0
			for end < len(run) && n < 1<<16-1 {
				next := end + lenPrefix + int(binary.BigEndian.Uint32(run[end:]))
				if wire.MuxOverhead(0, next) > maxFrame && n > 0 {
					break
				}
				n, end = n+1, next
			}
			at := len(out)
			out = append(out, 0, 0, 0, 0) // frame length, patched below
			out = wire.AppendMuxHeader(out, st.id, n)
			out = append(out, run[:end]...)
			patchFrameLen(out, at)
			run = run[end:]
		}
		st.buf = keepBuffer(st.buf, 2*s.opts.FlushBytes)
	}
	s.order = s.order[:0]
	s.out = out
	s.cFrames.Add(int64(frames))
}

// flushLocked closes the pending runs behind the frames already closed and
// writes the lot with one syscall. The caller holds s.mu.
func (s *MuxSender) flushLocked() error {
	if s.armed {
		s.timer.Stop()
		s.armed = false
	}
	if s.err != nil {
		return s.err
	}
	s.frameRunsLocked()
	out := s.out
	if len(out) == 0 {
		return nil
	}
	s.pending, s.items = 0, 0
	s.out = keepBuffer(out, 4*s.opts.FlushBytes)
	s.cFlushes.Inc()
	if _, err := s.conn.Write(out); err != nil {
		s.err = fmt.Errorf("transport: mux flush: %w", err)
		return s.err
	}
	return nil
}

// Close flushes everything buffered and closes the connection. Later Sends
// return the wrapped runtime.ErrClosed sentinel.
func (s *MuxSender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	flushErr := s.flushLocked()
	s.closed = true
	if err := s.conn.Close(); err != nil && flushErr == nil {
		return err
	}
	return flushErr
}

// StreamAlert is one demultiplexed back-link arrival: the alert, the stream
// id its sender tagged it with, and the origin timestamp its frame's trace
// trailer carried (0 when the frame had none). Plain 'A' frames surface as
// stream 0.
type StreamAlert struct {
	Stream uint32
	Alert  event.Alert
	Origin int64
}

// MuxListenerOptions configure the AD side of the back link.
type MuxListenerOptions struct {
	// Metrics, if non-nil, registers listener counters under MetricsPrefix
	// (default "transport.muxrecv"): <prefix>.alerts, <prefix>.frames, and
	// <prefix>.item_errors (corrupt items skipped inside otherwise valid
	// frames).
	Metrics       *obs.Registry
	MetricsPrefix string
	// Trace, if non-nil, records a StageBacklink/arrived span for every
	// demultiplexed alert (one per history variable, labelled with the
	// alert's source replica).
	Trace *obs.Tracer
	// Health, if non-nil, registers the back link under "backlink" and
	// touches it on every arriving frame; /healthz reports it stale after
	// StaleAfter without traffic (obs.DefaultStaleAfter when ≤ 0).
	Health     *obs.Health
	StaleAfter time.Duration
}

// MuxListener is the AD side of the back link: it accepts any number of
// connections, decodes their frames, and merges the demultiplexed streams
// into one channel per kind — alerts, digests, evidence — while preserving
// each stream's send order.
type MuxListener struct {
	ln      net.Listener
	out     chan StreamAlert
	digests chan wire.Digest
	evs     chan wire.Evidence
	wg      sync.WaitGroup
	done    chan struct{}

	cAlerts, cFrames, cItemErrs *obs.Counter
	tr                          *obs.Tracer
	lh                          *obs.LinkHealth
}

// ListenMux starts an AD endpoint on addr.
func ListenMux(addr string, opts MuxListenerOptions) (*MuxListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen mux %q: %w", addr, err)
	}
	l := &MuxListener{
		ln:      ln,
		out:     make(chan StreamAlert, updateBuffer),
		digests: make(chan wire.Digest, updateBuffer),
		evs:     make(chan wire.Evidence, evidenceBuffer),
		done:    make(chan struct{}),
		tr:      opts.Trace,
	}
	if opts.Health != nil {
		l.lh = opts.Health.Link("backlink", opts.StaleAfter)
	}
	if opts.Metrics != nil {
		prefix := opts.MetricsPrefix
		if prefix == "" {
			prefix = "transport.muxrecv"
		}
		l.cAlerts = opts.Metrics.Counter(prefix + ".alerts")
		l.cFrames = opts.Metrics.Counter(prefix + ".frames")
		l.cItemErrs = opts.Metrics.Counter(prefix + ".item_errors")
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address.
func (l *MuxListener) Addr() string { return l.ln.Addr().String() }

// Alerts returns the merged, stream-tagged alert flow. Within one stream,
// arrival order is send order; across streams the interleaving is the
// nondeterministic merge M of the analysis model. The channel closes after
// Close once all connection handlers exit.
func (l *MuxListener) Alerts() <-chan StreamAlert { return l.out }

// Digests returns the digests received from CEs using the compact encoding.
// Full alerts keep arriving on Alerts. The channel closes with the listener.
func (l *MuxListener) Digests() <-chan wire.Digest { return l.digests }

// Evidence returns the DM evidence frames forwarded by CEs. Frames nobody
// consumes are dropped rather than backpressuring the alerts that share the
// connection. The channel closes with the listener.
func (l *MuxListener) Evidence() <-chan wire.Evidence { return l.evs }

// Close shuts the listener and all connections down and closes its channels.
func (l *MuxListener) Close() {
	close(l.done)
	_ = l.ln.Close()
	l.wg.Wait()
	close(l.out)
	close(l.digests)
	close(l.evs)
}

func (l *MuxListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go l.handle(conn)
	}
}

// muxReadBuffer sizes a connection's read buffer: one read(2) takes in
// everything that arrived since the last wake-up — a quiet sender's
// single-alert frames as well as a busy one's 32 KiB flushes — and a frame
// larger than the buffer is read straight into its own.
const muxReadBuffer = 64 * 1024

// handle reads one connection's frames until it closes or turns corrupt.
// A frame that does not decode to exactly its length — bad tag, bad body,
// trailing bytes — ends the connection, as a TCP reset would; only a corrupt
// item inside an otherwise sound 'M' frame is skipped and counted.
func (l *MuxListener) handle(conn net.Conn) {
	defer l.wg.Done()
	defer func() { _ = conn.Close() }()
	defer closeOnDone(conn, l.done)()
	// Per-connection decode memory: the read buffer, the frame buffer, the
	// alert scratch and the name cache are reused for every frame, so a
	// frame costs no allocation of its own. Decoded alerts alias none of
	// them, so they outlive the next read.
	var (
		r       = bufio.NewReaderSize(conn, muxReadBuffer)
		body    []byte
		scratch []event.Alert
		names   wire.Names
	)
	for {
		var err error
		if body, err = readFrame(r, body); err != nil {
			return
		}
		l.cFrames.Inc()
		// Alert and digest frames may carry an optional trace trailer after
		// their body.
		switch body[0] {
		case 'M':
			m, itemErrs, rest, err := wire.DecodeMuxInto(body, scratch, &names)
			if err != nil {
				return
			}
			t, _, rest, terr := wire.TakeTrace(rest)
			if terr != nil || len(rest) != 0 {
				return
			}
			l.lh.Touch()
			// Item errors never desync the frame: the corrupt alerts are
			// dropped, the rest of the run flows on.
			l.cItemErrs.Add(int64(len(itemErrs)))
			for _, a := range m.Alerts {
				if !l.deliver(StreamAlert{Stream: m.Stream, Alert: a, Origin: t.Origin}) {
					return
				}
			}
			// Keep the grown scratch, not the alerts: a quiet link must not
			// pin its last frame's histories.
			clear(m.Alerts)
			scratch = m.Alerts
		case 'A':
			a, rest, err := wire.DecodeAlertInto(body, &names)
			if err != nil {
				return
			}
			t, _, rest, terr := wire.TakeTrace(rest)
			if terr != nil || len(rest) != 0 {
				return
			}
			l.lh.Touch()
			if !l.deliver(StreamAlert{Alert: a, Origin: t.Origin}) {
				return
			}
		case 'D':
			d, rest, err := wire.DecodeDigest(body)
			if err != nil {
				return
			}
			if _, _, rest, terr := wire.TakeTrace(rest); terr != nil || len(rest) != 0 {
				return
			}
			l.lh.Touch()
			select {
			case l.digests <- d:
			case <-l.done:
				return
			}
		case 'G':
			ev, rest, err := wire.DecodeEvidence(body)
			if err != nil || len(rest) != 0 {
				return
			}
			l.lh.Touch()
			// Evidence is best-effort (the next frame's tail re-covers a
			// lost one): an AD that is not auditing, or lags, drops it
			// rather than stall the alerts behind it.
			select {
			case l.evs <- ev:
			default:
			}
		default:
			return
		}
	}
}

// deliver traces one arrival, then hands it to the merged channel,
// reporting false when the listener is shutting down.
func (l *MuxListener) deliver(sa StreamAlert) bool {
	arrivalSpans(l.tr, sa.Alert, sa.Origin)
	select {
	case l.out <- sa:
		l.cAlerts.Inc()
		return true
	case <-l.done:
		return false
	}
}
