package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/wire"
)

// recordConn is a net.Conn that keeps every Write payload (copied) and
// supports nothing else; the sender under test never reads.
type recordConn struct {
	net.Conn
	writes [][]byte
	keep   bool
}

func (c *recordConn) Write(b []byte) (int, error) {
	if c.keep {
		c.writes = append(c.writes, bytes.Clone(b))
	}
	return len(b), nil
}

func (c *recordConn) Close() error { return nil }

// newRecordedSender builds a MuxSender over a recordConn, as DialMux would
// over a socket, except that it starts out coalescing — as on a link already
// busy — so that a test decides when frames leave. Tests of the quiet state
// clear the field.
func newRecordedSender(opts MuxSenderOptions, keep bool) (*MuxSender, *recordConn) {
	opts.applyDefaults()
	conn := &recordConn{keep: keep}
	return &MuxSender{opts: opts, conn: conn, streams: make(map[uint32]*muxStream), coalescing: true}, conn
}

// refMuxSender is the sender's buffering and framing as it stood before the
// pending-buffer layout: every alert encoded into its own slice, per-stream
// lists of those, frames assembled item by item at flush. It is the oracle
// for the bytes on the wire.
type refMuxSender struct {
	flushBytes int
	streams    map[uint32]*refStream
	order      []*refStream
	pending    int
	writes     [][]byte
}

type refStream struct {
	id    uint32
	items [][]byte
}

func (s *refMuxSender) send(stream uint32, a event.Alert) error {
	body, err := wire.EncodeAlert(a)
	if err != nil {
		return err
	}
	if wire.MuxOverhead(1, len(body)) > maxFrame {
		return fmt.Errorf("transport: alert of %d bytes exceeds frame limit", len(body))
	}
	st, ok := s.streams[stream]
	if !ok {
		st = &refStream{id: stream}
		s.streams[stream] = st
	}
	if len(st.items) == 0 {
		s.order = append(s.order, st)
	}
	st.items = append(st.items, body)
	s.pending += len(body) + 4
	if s.pending >= s.flushBytes {
		s.flush()
	}
	return nil
}

func (s *refMuxSender) flush() {
	if len(s.order) == 0 {
		return
	}
	var out []byte
	for _, st := range s.order {
		items := st.items
		for len(items) > 0 {
			n, size := 0, 0
			for n < len(items) && n < 1<<16-1 {
				if sz := wire.MuxOverhead(n+1, size+len(items[n])); sz > maxFrame && n > 0 {
					break
				}
				size += len(items[n])
				n++
			}
			frame := []byte{'M'}
			frame = binary.BigEndian.AppendUint32(frame, st.id)
			frame = binary.BigEndian.AppendUint16(frame, uint16(n))
			for _, it := range items[:n] {
				frame = binary.BigEndian.AppendUint32(frame, uint32(len(it)))
				frame = append(frame, it...)
			}
			out = binary.BigEndian.AppendUint32(out, uint32(len(frame)))
			out = append(out, frame...)
			items = items[n:]
		}
		st.items = st.items[:0]
	}
	s.order = s.order[:0]
	s.pending = 0
	s.writes = append(s.writes, out)
}

// wideAlert is an alert whose encoding is about 16·degree bytes.
func wideAlert(cond string, seqNo int64, degree int) event.Alert {
	recent := make([]event.Update, degree)
	for i := range recent {
		recent[i] = event.U("x", seqNo-int64(i), float64(i))
	}
	return event.NewAlert(cond, event.HistorySet{"x": {Var: "x", Recent: recent}}, "CE1")
}

// TestMuxSenderGoldenBytes holds every Write of the sender to the bytes its
// predecessor wrote for the same Send sequence: runs split at maxFrame and
// at the 65 535-item count, interleaved streams, and size-triggered flushes.
// A quiet sender writes what the predecessor would have, flushed after
// every Send.
func TestMuxSenderGoldenBytes(t *testing.T) {
	type send struct {
		stream uint32
		alert  event.Alert
	}
	never := 1 << 30 // FlushBytes that only an explicit Flush reaches
	var interleaved, overFrame, overCount, sized []send
	for i := int64(1); i <= 40; i++ {
		interleaved = append(interleaved,
			send{7, testAlert("a", "CE1", i)},
			send{2, event.NewAlert("diff", event.HistorySet{
				"x": {Var: "x", Recent: []event.Update{event.U("x", i+1, 1), event.U("x", i, 0)}},
				"y": {Var: "y", Recent: []event.Update{event.U("y", i, 5)}},
			}, "CE2")})
		if i%3 == 0 {
			interleaved = append(interleaved, send{7, testAlert("b", "CE1", i)})
		}
	}
	for i := int64(0); i < 40; i++ { // 40 × ~64 KiB: three frames of one stream
		overFrame = append(overFrame, send{1, wideAlert("wide", 10_000+i, 4000)})
	}
	overFrame = append(overFrame, send{3, testAlert("after", "CE1", 1)})
	for i := 0; i < 70_000; i++ { // 11-byte items: the count runs out before the bytes do
		overCount = append(overCount, send{5, event.Alert{}})
	}
	for i := int64(1); i <= 3000; i++ {
		sized = append(sized, send{uint32(1 + i%2), wideAlert("c", 100+i, 2)})
	}
	for _, c := range []struct {
		name       string
		flushBytes int
		sends      []send
		writes     int
	}{
		{"interleaved streams", never, interleaved, 1},
		{"split at maxFrame", never, overFrame, 1},
		{"split at 65535 items", never, overCount, 1},
		{"size-triggered flushes", 0, sized, 5},
	} {
		s, conn := newRecordedSender(MuxSenderOptions{FlushBytes: c.flushBytes, FlushEvery: time.Hour}, true)
		ref := &refMuxSender{flushBytes: s.opts.FlushBytes, streams: map[uint32]*refStream{}}
		for i, sd := range c.sends {
			if err := s.Send(sd.stream, sd.alert); err != nil {
				t.Fatalf("%s: Send %d: %v", c.name, i, err)
			}
			if err := ref.send(sd.stream, sd.alert); err != nil {
				t.Fatalf("%s: reference send %d: %v", c.name, i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", c.name, err)
		}
		ref.flush()
		if len(conn.writes) != len(ref.writes) || len(conn.writes) < c.writes {
			t.Fatalf("%s: %d writes, reference %d, want ≥ %d", c.name, len(conn.writes), len(ref.writes), c.writes)
		}
		for i := range ref.writes {
			if !bytes.Equal(conn.writes[i], ref.writes[i]) {
				t.Fatalf("%s: write %d differs from the reference (%d vs %d bytes)",
					c.name, i, len(conn.writes[i]), len(ref.writes[i]))
			}
		}
		// The cases mean what their names say.
		frames := 0
		for _, w := range ref.writes {
			for len(w) > 0 {
				n := int(binary.BigEndian.Uint32(w))
				w = w[4+n:]
				frames++
			}
		}
		switch {
		case strings.HasPrefix(c.name, "split at maxFrame") && frames != 4,
			strings.HasPrefix(c.name, "split at 65535") && frames != 2,
			strings.HasPrefix(c.name, "interleaved") && frames != 2:
			t.Errorf("%s: %d frames on the wire", c.name, frames)
		}
	}
}

// TestMuxSendRefusalLeavesRunIntact: an alert the encoder rejects, and one
// over the frame limit, come back with the errors they always did and leave
// the stream's pending run, the sender's accounting and the next flush
// exactly as if they had never been sent.
func TestMuxSendRefusalLeavesRunIntact(t *testing.T) {
	s, conn := newRecordedSender(MuxSenderOptions{FlushBytes: 1 << 30, FlushEvery: time.Hour}, true)
	ref := &refMuxSender{flushBytes: 1 << 30, streams: map[uint32]*refStream{}}
	good := []event.Alert{testAlert("a", "CE1", 1), testAlert("a", "CE1", 2)}
	unencodable := testAlert(strings.Repeat("n", 1<<16), "CE1", 3)
	hists := event.HistorySet{}
	for i := 0; i < 17; i++ { // 17 × 64 KiB histories: each legal, together past maxFrame
		v := event.VarName(fmt.Sprintf("v%02d", i))
		recent := make([]event.Update, 4000)
		for j := range recent {
			recent[j] = event.U(v, int64(5000-j), 0)
		}
		hists[v] = event.History{Var: v, Recent: recent}
	}
	overLimit := event.NewAlert("big", hists, "CE1")

	check := func(when string, stream uint32, bad event.Alert) {
		t.Helper()
		var before []byte
		if st := s.streams[stream]; st != nil {
			before = bytes.Clone(st.buf)
		}
		pending, order, streams := s.pending, len(s.order), len(s.streams)
		err, refErr := s.Send(stream, bad), ref.send(stream, bad)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: err = %v, reference err = %v", when, err, refErr)
		}
		var after []byte
		if st := s.streams[stream]; st != nil {
			after = st.buf
		}
		if !bytes.Equal(before, after) || s.pending != pending || len(s.order) != order || len(s.streams) != streams {
			t.Fatalf("%s: pending run changed: %d→%d bytes, pending %d→%d, order %d→%d, streams %d→%d", when,
				len(before), len(after), pending, s.pending, order, len(s.order), streams, len(s.streams))
		}
	}
	check("unencodable on a fresh stream", 9, unencodable)
	check("over-limit on a fresh stream", 9, overLimit)
	for _, a := range good {
		if err := s.Send(4, a); err != nil {
			t.Fatal(err)
		}
		_ = ref.send(4, a)
	}
	check("unencodable behind a pending run", 4, unencodable)
	check("over-limit behind a pending run", 4, overLimit)
	if err := s.Send(4, testAlert("a", "CE1", 3)); err != nil {
		t.Fatal(err)
	}
	_ = ref.send(4, testAlert("a", "CE1", 3))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ref.flush()
	if len(conn.writes) != 1 || !bytes.Equal(conn.writes[0], ref.writes[0]) {
		t.Fatalf("flush after refusals differs from the reference")
	}
}

// TestMuxSendSteadyStateAllocs: once a stream's buffer and the output buffer
// have grown, Send allocates nothing in either state — coalescing: encode in
// place, an occasional size-triggered flush and its Write, re-arming the one
// timer; quiet: a clock read, then the frame and its Write every time.
func TestMuxSendSteadyStateAllocs(t *testing.T) {
	for _, quiet := range []bool{false, true} {
		s, _ := newRecordedSender(MuxSenderOptions{FlushEvery: time.Hour}, false)
		a := wideAlert("c", 1_000_000, 2)
		send := func() {
			if quiet {
				s.coalescing, s.windowSends = false, 0
			}
			if err := s.Send(1, a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ { // through several flushes
			send()
		}
		if got := testing.AllocsPerRun(5000, send); got != 0 {
			t.Errorf("steady-state Send, quiet %v: %v allocs/op, want 0", quiet, got)
		}
		_ = s.Close()
	}
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := goruntime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = goruntime.NumGoroutine()
	}
	return n
}

// A back-link connection that comes and goes must leave nothing behind in a
// listener that stays up: neither its handler nor the goroutine that waits
// to close it at listener shutdown.
func TestListenersReleaseClosedConnections(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := goruntime.NumGoroutine()
	for i := 0; i < 100; i++ {
		s, err := DialMux(l.Addr(), MuxSenderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// One alert through, so the handler is known to be running.
		if err := s.Send(0, testAlert("c", "CE1", int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, ok := <-l.Alerts(); !ok {
			t.Fatal("listener closed")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after 100 dial/close cycles, baseline %d", n, base)
	}
}

// replay writes raw bytes to a listener over a fresh connection, as a sender
// of any build would, and leaves the connection open until the test ends.
func replay(t *testing.T, l *MuxListener, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// TestMuxPerAlertOrigin: traced and untraced alerts interleaved on one stream
// leave in one write, arrive in send order, and each carries the origin of
// its own trailer — none for the untraced ones between them.
func TestMuxPerAlertOrigin(t *testing.T) {
	s, conn := newRecordedSender(MuxSenderOptions{FlushBytes: 1 << 30, FlushEvery: time.Hour}, true)
	origins := []int64{1001, 0, 1002, 0, 1003}
	for i, o := range origins {
		a := testAlert("c", "CE1", int64(i+1))
		var err error
		if o != 0 {
			err = s.SendTrace(5, a, wire.Trace{Flags: wire.TraceFlagSampled, Origin: o})
		} else {
			err = s.Send(5, a)
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 {
		t.Fatalf("%d writes, want the five frames in one", len(conn.writes))
	}
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replay(t, l, conn.writes[0])
	for i, sa := range collectStream(t, l, len(origins), 5*time.Second) {
		if seqNo, _ := sa.Alert.SeqNo("x"); sa.Stream != 5 || seqNo != int64(i+1) || sa.Origin != origins[i] {
			t.Errorf("arrival %d = stream %d seq %d origin %d, want stream 5 seq %d origin %d",
				i, sa.Stream, seqNo, sa.Origin, i+1, origins[i])
		}
	}
}

// TestMuxStandaloneFramesKeepOrder: a digest and an evidence frame sent
// between alerts leave in the same write, behind the alerts sent before them
// and ahead of those sent after, without splitting either run.
func TestMuxStandaloneFramesKeepOrder(t *testing.T) {
	s, conn := newRecordedSender(MuxSenderOptions{FlushBytes: 1 << 30, FlushEvery: time.Hour}, true)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Send(1, testAlert("c", "CE1", 1)))
	must(s.Send(1, testAlert("c", "CE1", 2)))
	must(s.SendDigest(wire.DigestOf(testAlert("c", "CE1", 2))))
	must(s.SendEvidence(wire.Evidence{Var: "x", UpTo: 2, PrefixHash: wire.EvidenceHashSeed}))
	must(s.Send(1, testAlert("c", "CE1", 3)))
	must(s.Flush())
	if len(conn.writes) != 1 {
		t.Fatalf("%d writes, want 1", len(conn.writes))
	}
	var kinds []byte
	for w := conn.writes[0]; len(w) > 0; {
		n := int(binary.BigEndian.Uint32(w))
		kinds = append(kinds, w[4])
		w = w[4+n:]
	}
	if string(kinds) != "MDGM" {
		t.Errorf("frame kinds on the wire = %q, want MDGM", kinds)
	}
}

// TestLegacyFramesInterop replays the bytes a parent-build condmon-ce wrote
// on its dedicated connection — a plain 'A' frame, an origin-stamped 'A'
// frame, a 'D' digest and a 'G' evidence frame, captured from the dedicated
// sender's Send/SendTrace/SendDigest/SendEvidence at commit 30100b8 — into
// today's listener: an AD upgraded first keeps serving CEs that are not.
func TestLegacyFramesInterop(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_dedicated.bin")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(16)
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replay(t, l, raw)

	const origin = int64(1_700_000_000_123_456_789)
	got := collectStream(t, l, 2, 5*time.Second)
	for i, want := range []struct {
		seqNo, origin int64
	}{{3, 0}, {4, origin}} {
		sa := got[i]
		if seqNo, _ := sa.Alert.SeqNo("x"); sa.Stream != 0 || sa.Alert.Cond != "c1" || sa.Alert.Source != "CE1" ||
			seqNo != want.seqNo || sa.Origin != want.origin {
			t.Errorf("alert %d = %+v, want stream-0 c1 from CE1 at x=%d with origin %d", i, sa, want.seqNo, want.origin)
		}
	}
	if s := waitSpans(t, tr, "x", 4, 1)[0]; s.Disp != obs.DispArrived || s.Origin != origin {
		t.Errorf("arrival span of the stamped alert = %+v, want origin %d", s, origin)
	}
	select {
	case d := <-l.Digests():
		if d.Key() != wire.DigestOf(got[0].Alert).Key() || d.Source != "CE1" {
			t.Errorf("digest = %+v, want the first alert's", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("digest never arrived")
	}
	select {
	case ev := <-l.Evidence():
		if ev.Var != "x" || ev.UpTo != 3 || len(ev.Vals) != 3 || ev.Vals[2] != 3200 {
			t.Errorf("evidence = %+v, want x up to 3", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evidence never arrived")
	}
}

// framesOf splits recorded writes into frame bodies, and decodes every 'M'
// frame among them into (stream, seqno of x) pairs in wire order.
func framesOf(t *testing.T, writes [][]byte) (perWrite []int, arrivals [][2]int64) {
	t.Helper()
	for _, w := range writes {
		n := 0
		for ; len(w) > 0; n++ {
			size := int(binary.BigEndian.Uint32(w))
			body := w[lenPrefix : lenPrefix+size]
			w = w[lenPrefix+size:]
			if body[0] != 'M' {
				continue
			}
			m, itemErrs, _, err := wire.DecodeMux(body)
			if err != nil || len(itemErrs) != 0 {
				t.Fatalf("recorded 'M' frame does not decode: %v, %d item errors", err, len(itemErrs))
			}
			for _, a := range m.Alerts {
				arrivals = append(arrivals, [2]int64{int64(m.Stream), a.MustSeqNo("x")})
			}
		}
		perWrite = append(perWrite, n)
	}
	return perWrite, arrivals
}

// TestMuxQuietLinkFlushesInline pins the sender's two states on a recorded
// connection: a quiet link writes every item before the send returns and
// arms no timer; the item that exceeds quietSends inside one window starts
// coalescing; a deadline flush that carried no more than quietSends items
// ends it, a fuller one does not; and streams keep their order through all
// of it.
func TestMuxQuietLinkFlushesInline(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	quietSender := func(every time.Duration) (*MuxSender, *recordConn) {
		s, conn := newRecordedSender(MuxSenderOptions{FlushEvery: every}, true)
		s.coalescing = false
		return s, conn
	}

	// Spaced sends of every kind: one Write each, at once, no timer.
	s, conn := quietSender(time.Millisecond)
	for i := 0; i < 3*quietSends; i++ {
		a := testAlert("c", "CE1", int64(i+1))
		switch i % 4 {
		case 0:
			must(s.Send(1, a))
		case 1:
			must(s.SendTrace(1, a, wire.Trace{Flags: wire.TraceFlagSampled, Origin: 1000 + int64(i)}))
		case 2:
			must(s.SendDigest(wire.DigestOf(a)))
		case 3:
			must(s.SendEvidence(wire.Evidence{Var: "x", UpTo: int64(i), PrefixHash: wire.EvidenceHashSeed}))
		}
		if len(conn.writes) != i+1 || s.timer != nil || s.coalescing {
			t.Fatalf("spaced send %d: %d writes, timer %v, coalescing %v; want one write per send, no timer, quiet",
				i, len(conn.writes), s.timer != nil, s.coalescing)
		}
		time.Sleep(3 * time.Millisecond / 2) // past the window: the next send opens a new one
	}
	if perWrite, _ := framesOf(t, conn.writes); len(perWrite) != 3*quietSends || slices.Max(perWrite) != 1 {
		t.Errorf("spaced sends: frames per write %v, want one each", perWrite)
	}

	// A burst: quietSends single-item writes, then everything else waits for
	// the deadline and leaves as one frame.
	s, conn = quietSender(time.Hour)
	for i := 0; i < 100; i++ {
		must(s.Send(1, testAlert("c", "CE1", int64(i+1))))
	}
	if len(conn.writes) != quietSends || !s.coalescing || !s.armed {
		t.Fatalf("burst: %d writes, coalescing %v, armed %v; want %d writes and a deadline pending",
			len(conn.writes), s.coalescing, s.armed, quietSends)
	}
	s.deadlineFlush()
	perWrite, arrivals := framesOf(t, conn.writes)
	if len(perWrite) != quietSends+1 || slices.Max(perWrite) != 1 || len(arrivals) != 100 {
		t.Fatalf("burst: frames per write %v carrying %d alerts, want %d single-frame writes carrying 100",
			perWrite, len(arrivals), quietSends+1)
	}
	for i, sa := range arrivals {
		if sa != [2]int64{1, int64(i + 1)} {
			t.Fatalf("burst: arrival %d = stream %d seq %d", i, sa[0], sa[1])
		}
	}
	// That flush carried 96 items: the wait paid, the link stays busy. One
	// that carries quietSends does not, and the next send is inline again.
	if !s.coalescing {
		t.Fatal("a deadline flush of 96 items returned the sender to quiet")
	}
	for i := 0; i < quietSends; i++ {
		must(s.Send(1, testAlert("c", "CE1", int64(101+i))))
	}
	if len(conn.writes) != quietSends+1 {
		t.Fatalf("busy link wrote %d times before its deadline", len(conn.writes)-quietSends-1)
	}
	s.deadlineFlush()
	if s.coalescing || len(conn.writes) != quietSends+2 {
		t.Fatalf("after a deadline flush of %d items: coalescing %v, %d writes", quietSends, s.coalescing, len(conn.writes))
	}
	must(s.Send(1, testAlert("c", "CE1", 200)))
	if len(conn.writes) != quietSends+3 || s.armed {
		t.Fatalf("send on the quiet-again link: %d writes, armed %v", len(conn.writes), s.armed)
	}
	// A deadline callback that lost the race with another flush is no
	// measurement of load.
	s.coalescing = true
	must(s.Send(1, testAlert("c", "CE1", 201)))
	must(s.Flush())
	s.deadlineFlush()
	if !s.coalescing {
		t.Error("a stale deadline callback returned the sender to quiet")
	}

	// Two goroutines, one stream each, bursts and pauses against the real
	// timer: whatever states the sender goes through, each stream arrives
	// whole and in order.
	s, conn = quietSender(time.Millisecond)
	const perStream = 300
	var wg sync.WaitGroup
	for stream := uint32(1); stream <= 2; stream++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perStream; i++ {
				if err := s.Send(stream, testAlert("c", "CE1", int64(i))); err != nil {
					t.Errorf("stream %d send %d: %v", stream, i, err)
					return
				}
				if i%(20*int(stream)) == 0 {
					time.Sleep(3 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	must(s.Close())
	_, arrivals = framesOf(t, conn.writes)
	next := map[int64]int64{1: 1, 2: 1}
	for _, sa := range arrivals {
		if sa[1] != next[sa[0]] {
			t.Fatalf("stream %d: seq %d arrived, want %d", sa[0], sa[1], next[sa[0]])
		}
		next[sa[0]]++
	}
	if next[1] != perStream+1 || next[2] != perStream+1 {
		t.Errorf("arrived %d and %d alerts, want %d each", next[1]-1, next[2]-1, perStream)
	}
}

// chunkConn is a net.Conn whose Read hands out one prepared buffer, as much
// as the caller has room for, then io.EOF; it counts the calls.
type chunkConn struct {
	net.Conn
	data  []byte
	reads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

func (c *chunkConn) Close() error { return nil }

// TestMuxListenerFrameAllocs: a hundred one-alert frames that arrived
// together cost the handler one read, and each costs exactly what decoding
// its alert costs — the frame itself is free.
func TestMuxListenerFrameAllocs(t *testing.T) {
	var raw []byte // 200 single-alert frames, as a quiet sender writes them
	var hundred int
	for i := 0; i < 200; i++ {
		frame, err := appendAlertItem(wire.AppendMuxHeader(append(raw, 0, 0, 0, 0), 1, 1), testAlert("c", "CE1", int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		patchFrameLen(frame, len(raw))
		if raw = frame; i == 99 {
			hundred = len(raw)
		}
	}

	l := &MuxListener{out: make(chan StreamAlert, 200), done: make(chan struct{})}
	handle := func(raw []byte) (reads int) {
		c := &chunkConn{data: raw}
		l.wg.Add(1)
		l.handle(c)
		for len(l.out) > 0 {
			<-l.out
		}
		return c.reads
	}
	if reads := handle(raw[:hundred]); reads > 2 {
		t.Errorf("100 frames in one buffer took %d reads, want the buffer and the EOF", reads)
	}

	// The handler's set-up allocations are the same for any number of
	// frames — give or take one for the goroutine it starts — so the
	// difference between 200 and 100 is a hundred frames'.
	perFrame := (testing.AllocsPerRun(20, func() { handle(raw) }) -
		testing.AllocsPerRun(20, func() { handle(raw[:hundred]) })) / 100
	var (
		body    = raw[lenPrefix : hundred/100]
		scratch []event.Alert
		names   wire.Names
	)
	decode := testing.AllocsPerRun(100, func() {
		m, _, _, err := wire.DecodeMuxInto(body, scratch, &names)
		if err != nil {
			t.Fatal(err)
		}
		clear(m.Alerts)
		scratch = m.Alerts
	})
	if math.Abs(perFrame-decode) >= 0.5 {
		t.Errorf("a frame costs %v allocations, decoding its alert %v: the frame is not free", perFrame, decode)
	}
}
