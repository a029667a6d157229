//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"condmon/internal/event"
)

// spanName enumerates the spans the harness records around its calls into
// the layers, plus the two transit gaps between processes' worth of glue.
type spanName uint8

const (
	spWait    spanName = iota // open loop: an update's due time → its Publish call
	spPublish                 // inside UDPPublisher.Publish / PublishBatch
	spFront                   // Publish return → update handed to the CE glue
	spFeed                    // inside Evaluator.Feed
	spMuxSend                 // inside MuxSender.Send
	spBack                    // Send return → alert read from MuxListener.Alerts
	spOffer                   // inside ad.Offer (or Test, on the durable path)
	spAccept                  // inside LoggedFilter.Accept
	spAudit                   // inside ObserveDisplayed / ObserveSuppressed
	spDisplay                 // formatting and buffered write of the display line
	spInject                  // inside Engine.InjectBatch
	spDrain                   // inside Engine.Drain
	numSpanNames
)

// spanInfo gives each span its printed name and the span that causes it:
// the per-update chain runs wait → publish → front transit → feed (or
// inject), and an alert's chain continues feed → mux send → back transit →
// offer → accept / audit / display.
var spanInfo = [numSpanNames]struct {
	name   string
	parent spanName
	root   bool
}{
	spWait:    {name: "workload.wait", root: true},
	spPublish: {name: "transport.publish", parent: spWait},
	spFront:   {name: "transport.front_transit", parent: spPublish},
	spFeed:    {name: "ce.feed", parent: spFront},
	spMuxSend: {name: "transport.mux_send", parent: spFeed},
	spBack:    {name: "transport.back_transit", parent: spMuxSend},
	spOffer:   {name: "ad.offer", parent: spBack},
	spAccept:  {name: "durable.accept", parent: spOffer},
	spAudit:   {name: "audit.observe", parent: spOffer},
	spDisplay: {name: "display.write", parent: spOffer},
	spInject:  {name: "runtime.inject", parent: spFront},
	spDrain:   {name: "runtime.drain", root: true},
}

func (n spanName) layer() string {
	s := spanInfo[n].name
	for i := range s {
		if s[i] == '.' {
			return s[:i]
		}
	}
	return s
}

// span is one record of the in-memory buffer. Spans of one update share
// the id (v, seq); an alert's spans carry the id of the update whose
// arrival fired it and the replica that sent it (which together determine
// the alert's key), so an alert's chain continues its update's. The struct
// holds no pointers: the buffers live off the Go heap.
type span struct {
	name  spanName
	rep   uint8 // replica 1 or 2 the span ran on or came from; 0 = none
	v     uint8 // variable index of the id
	seq   int64
	start int64 // nanoseconds on the benchmark clock
	end   int64
}

// spanBuf is one goroutine's pre-allocated span store; only its owner
// appends, and nobody reads before the owner has been waited for.
type spanBuf struct {
	spans   []span
	dropped int64
}

func (b *spanBuf) add(s span) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// spanBufCap bounds each goroutine's buffer: fleet-steady records every id
// (≈ 2 spans per update per goroutine over warm-up and window), the other
// workloads 1 in 64.
const spanBufCap = 1 << 20

// tracer is the traced run's recorder. A nil *tracer is the untraced run:
// every method is safe on it and reports "not sampled".
type tracer struct {
	every int64
	pub   spanBuf    // publisher goroutine
	ce    [2]spanBuf // CE glue loops; for the engine, [0] is the dispatch goroutine
	ad    spanBuf    // AD glue loop
	free  []func()
}

func newTracer(every int64) (*tracer, error) {
	t := &tracer{every: every}
	for _, b := range []*spanBuf{&t.pub, &t.ce[0], &t.ce[1], &t.ad} {
		spans, free, err := offHeap[span](spanBufCap)
		if err != nil {
			t.release()
			return nil, err
		}
		b.spans, t.free = spans[:0], append(t.free, free)
	}
	return t, nil
}

// release unmaps the buffers; the spans must not be used afterwards.
func (t *tracer) release() {
	for _, free := range t.free {
		free()
	}
	t.free = nil
}

// scope is the span recorder for one id on one goroutine. Its zero value
// records nothing and never reads the clock, which is what an untraced run
// and an unsampled id get.
type scope struct {
	buf *spanBuf
	rep uint8
	v   uint8
	seq int64
}

// scope returns the recorder, into buf, for update (v, seq) as seen on
// replica rep, or the zero scope when the id is not sampled.
func (t *tracer) scope(buf *spanBuf, rep int, vars []event.VarName, v event.VarName, seq int64) scope {
	if !t.sampled(seq) {
		return scope{}
	}
	sc := scope{buf: buf, rep: uint8(rep), seq: seq}
	for i, name := range vars {
		if name == v {
			sc.v = uint8(i)
		}
	}
	return sc
}

func (sc scope) on() bool { return sc.buf != nil }

// now reads the clock when the scope records, and costs nothing otherwise.
func (sc scope) now() int64 {
	if sc.buf == nil {
		return 0
	}
	return now()
}

func (sc scope) add(name spanName, start, end int64) {
	if sc.buf != nil {
		sc.buf.add(span{name: name, rep: sc.rep, v: sc.v, seq: sc.seq, start: start, end: end})
	}
}

// sampled reports whether update seqno seq is one of the ids spans are
// recorded for.
func (t *tracer) sampled(seq int64) bool {
	return t != nil && seq%t.every == 0
}

// sampledIn reports whether the run of n seqnos starting at first contains
// a sampled id, and which.
func (t *tracer) sampledIn(first int64, n int) (int64, bool) {
	if t == nil {
		return 0, false
	}
	m := (first + int64(n) - 1) / t.every * t.every
	return m, m >= first
}

// all copies every buffer into one heap slice, for the post-run joins.
func (t *tracer) all() []span {
	var out []span
	for _, b := range []*spanBuf{&t.pub, &t.ce[0], &t.ce[1], &t.ad} {
		out = append(out, b.spans...)
	}
	return out
}

func (t *tracer) dropped() int64 {
	return t.pub.dropped + t.ce[0].dropped + t.ce[1].dropped + t.ad.dropped
}

// spanKey addresses one span of a chain for the post-run joins.
type spanKey struct {
	name spanName
	rep  uint8
	v    uint8
	seq  int64
}

// joinTransits fills in the start of every transit span. The receiving
// side only knows when an item arrived; the sending side's span of the
// same id says when it left. A front transit starts at its datagram's
// Publish return, a back transit at its alert's Send return. A transit
// whose sender span is missing (buffer full) is dropped; one that arrived
// before the send call returned — replica 1 reads a datagram while Publish
// is still writing to replica 2 — is clamped to zero length.
func joinTransits(spans []span) []span {
	ends := make(map[spanKey]int64, len(spans)/4)
	for _, s := range spans {
		switch s.name {
		case spPublish:
			ends[spanKey{spPublish, 0, s.v, s.seq}] = s.end
		case spMuxSend:
			ends[spanKey{spMuxSend, s.rep, s.v, s.seq}] = s.end
		}
	}
	out := spans[:0]
	for _, s := range spans {
		var from int64
		var ok bool
		switch s.name {
		case spFront:
			from, ok = ends[spanKey{spPublish, 0, s.v, s.seq}]
		case spBack:
			from, ok = ends[spanKey{spMuxSend, s.rep, s.v, s.seq}]
		default:
			out = append(out, s)
			continue
		}
		if !ok {
			continue
		}
		if from > s.end {
			from = s.end
		}
		s.start = from
		out = append(out, s)
	}
	return out
}

// durations collects the length of every span with the given name.
func durations(spans []span, name spanName) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// unaccounted computes, for every displayed alert whose whole chain was
// recorded, the share of its measured latency (due time of the firing
// update → end of the display write) that no span on its path covers, and
// returns the 99th percentile of those shares with the number of alerts
// checked. The path is wait, publish, front transit, feed, mux send, back
// transit, offer and display of the replica the displayed copy came from;
// where a replica received the datagram before Publish returned, only the
// part of the publish span before the hand-off is on the path.
func unaccounted(spans []span) (p99 float64, checked int) {
	// Index only the chains that ended in a display: on fleet-steady that is
	// 1 id in 24, and the index is what this function's time goes into.
	type id struct {
		v   uint8
		seq int64
	}
	shown := make(map[id]bool)
	for _, s := range spans {
		if s.name == spDisplay {
			shown[id{s.v, s.seq}] = true
		}
	}
	idx := make(map[spanKey]span, 8*len(shown))
	for _, s := range spans {
		if !shown[id{s.v, s.seq}] {
			continue
		}
		rep := s.rep
		if s.name == spWait || s.name == spPublish {
			rep = 0
		}
		idx[spanKey{s.name, rep, s.v, s.seq}] = s
	}
	var shares []int64 // parts per million
	for _, d := range spans {
		if d.name != spDisplay {
			continue
		}
		get := func(n spanName, rep uint8) (span, bool) {
			s, ok := idx[spanKey{n, rep, d.v, d.seq}]
			return s, ok
		}
		pub, ok1 := get(spPublish, 0)
		front, ok2 := get(spFront, d.rep)
		feed, ok3 := get(spFeed, d.rep)
		send, ok4 := get(spMuxSend, d.rep)
		back, ok5 := get(spBack, d.rep)
		offer, ok6 := get(spOffer, d.rep)
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
			continue
		}
		due := pub.start // closed loop: an update is due when it is published
		if wait, ok := get(spWait, 0); ok {
			due = wait.start
		}
		handoff := front.end
		pubEnd := pub.end
		if pubEnd > handoff {
			pubEnd = handoff
		}
		sum := (pub.start - due) + (pubEnd - pub.start) + (front.end - front.start) +
			(feed.end - feed.start) + (send.end - send.start) + (back.end - back.start) +
			(offer.end - offer.start) + (d.end - d.start)
		latency := d.end - due
		if latency <= 0 {
			continue
		}
		gap := latency - sum
		if gap < 0 {
			gap = -gap
		}
		shares = append(shares, gap*1e6/latency)
	}
	if len(shares) == 0 {
		return 0, 0
	}
	return float64(percentile(sortedCopy(shares), 0.99)) / 1e6, len(shares)
}

// writeSpans writes the buffer as one JSON object per line to
// dir/<workload>.spans.jsonl. README.md ("Reading the span file")
// describes the fields.
func writeSpans(dir, workload string, vars []event.VarName, spans []span) (string, error) {
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		info := spanInfo[s.name]
		line = append(line[:0], `{"name":"`...)
		line = append(line, info.name...)
		line = append(line, `","layer":"`...)
		line = append(line, s.name.layer()...)
		line = append(line, `","id":"`...)
		line = append(line, vars[s.v]...)
		line = append(line, ':')
		line = strconv.AppendInt(line, s.seq, 10)
		line = append(line, `","parent":"`...)
		if !info.root {
			line = append(line, spanInfo[info.parent].name...)
		}
		line = append(line, `","replica":`...)
		line = strconv.AppendInt(line, int64(s.rep), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
