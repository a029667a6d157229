package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	goruntime "runtime"
	"strings"
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
// over a socket.
func newRecordedSender(opts MuxSenderOptions, keep bool) (*MuxSender, *recordConn) {
	opts.applyDefaults()
	conn := &recordConn{keep: keep}
	return &MuxSender{opts: opts, conn: conn, streams: make(map[uint32]*muxStream)}, conn
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
// have grown, Send — encode in place, an occasional size-triggered flush and
// its Write, re-arming the one timer — allocates nothing.
func TestMuxSendSteadyStateAllocs(t *testing.T) {
	s, _ := newRecordedSender(MuxSenderOptions{FlushEvery: time.Hour}, false)
	defer func() { _ = s.Close() }()
	a := wideAlert("c", 1_000_000, 2)
	send := func() {
		if err := s.Send(1, a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // through several flushes
		send()
	}
	if got := testing.AllocsPerRun(5000, send); got != 0 {
		t.Errorf("steady-state Send: %v allocs/op, want 0", got)
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
