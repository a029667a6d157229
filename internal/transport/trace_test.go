package transport

import (
	"testing"
	"time"

	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	"condmon/internal/wire"
)

// waitSpans polls a tracer until at least want spans matching the filter
// exist (recording trails the channel hand-off, so tests wait).
func waitSpans(t *testing.T, tr *obs.Tracer, varName string, seq int64, want int) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := tr.Spans(varName, seq)
		if len(spans) >= want {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("have %d spans for (%q, %d), want %d: %+v", len(spans), varName, seq, want, spans)
		}
		time.Sleep(time.Millisecond)
	}
}

// An annotated publisher and a tracing receiver: the publisher records the
// emit span and stamps the wire trailer, the receiver records per-update
// link spans carrying the origin, and LastOrigin remembers it per variable
// for the CE daemon's alert annotation.
func TestUDPTracedPublishReceive(t *testing.T) {
	tr := obs.NewTracer(256)
	hl := obs.NewHealth()
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		Trace: tr, TraceName: "CE1", Health: hl, StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()
	pub.SetTrace(tr, "DM")

	if err := pub.Publish(event.U("x", 1, 100)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(t, recv, 1, 5*time.Second)
	if len(got) != 1 {
		t.Fatalf("received %d updates, want 1", len(got))
	}

	spans := waitSpans(t, tr, "x", 1, 2)
	var emit, linkSpan *obs.Span
	for i := range spans {
		switch spans[i].Stage {
		case obs.StageEmit:
			emit = &spans[i]
		case obs.StageLink:
			linkSpan = &spans[i]
		}
	}
	if emit == nil || emit.Replica != "DM" || emit.Disp != obs.DispEmitted || emit.Origin == 0 {
		t.Errorf("emit span = %+v, want DM/emitted with origin", emit)
	}
	if linkSpan == nil || linkSpan.Replica != "CE1" || linkSpan.Disp != obs.DispDelivered {
		t.Errorf("link span = %+v, want CE1/delivered", linkSpan)
	}
	if linkSpan != nil && emit != nil && linkSpan.Origin != emit.Origin {
		t.Errorf("origin did not survive the wire: link %d, emit %d", linkSpan.Origin, emit.Origin)
	}
	if got := recv.LastOrigin("x"); emit != nil && got != emit.Origin {
		t.Errorf("LastOrigin(x) = %d, want %d", got, emit.Origin)
	}
	if rep := hl.Check(); !rep.Healthy || len(rep.Links) != 1 || rep.Links[0].Name != "front:CE1" {
		t.Errorf("health = %+v, want one fresh front:CE1 link", rep)
	}
}

// PublishBatch annotates each chunk once and records one emit span per
// update; the receiving side's link spans cover the whole batch.
func TestUDPTracedBatch(t *testing.T) {
	tr := obs.NewTracer(1024)
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{Trace: tr, TraceName: "CE1"})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()
	pub.SetTrace(tr, "DM")

	us := make([]event.Update, 300) // several chunks worth
	for i := range us {
		us[i] = event.U("x", int64(i+1), float64(i))
	}
	if err := pub.PublishBatch("x", us); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	if got := collect(t, recv, len(us), 5*time.Second); len(got) != len(us) {
		t.Fatalf("received %d updates, want %d", len(got), len(us))
	}
	spans := waitSpans(t, tr, "x", -1, 2*len(us))
	emits, links := 0, 0
	for _, s := range spans {
		switch s.Stage {
		case obs.StageEmit:
			emits++
		case obs.StageLink:
			links++
			if s.Origin == 0 {
				t.Fatalf("link span without origin: %+v", s)
			}
		}
	}
	if emits != len(us) || links != len(us) {
		t.Errorf("emit/link spans = %d/%d, want %d/%d", emits, links, len(us), len(us))
	}
}

// Forced loss and stale discards leave their own spans, so the flight
// recorder explains exactly which replica missed which update and why.
func TestUDPTracedLossAndDiscard(t *testing.T) {
	tr := obs.NewTracer(256)
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		ForcedLoss: link.NewDropSeqNos("x", 2),
		Trace:      tr, TraceName: "CE2",
	})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	for _, n := range []int64{1, 2, 3, 1} { // 2 force-dropped, trailing 1 stale
		if err := pub.Publish(event.U("x", n, 0)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if got := collect(t, recv, 2, 5*time.Second); len(got) != 2 {
		t.Fatalf("received %d updates, want 2", len(got))
	}
	spans := waitSpans(t, tr, "x", -1, 4)
	byDisp := map[string]int{}
	for _, s := range spans {
		byDisp[s.Disp]++
	}
	if byDisp[obs.DispDelivered] != 2 || byDisp[obs.DispLost] != 1 || byDisp[obs.DispDiscarded] != 1 {
		t.Errorf("dispositions = %v, want 2 delivered, 1 lost, 1 discarded", byDisp)
	}
}

// An annotated alert frame through the back link: SendTrace stamps the
// trailer, the tracing listener records arrived spans carrying the origin
// and touches the backlink health.
func TestTCPBackLinkTraced(t *testing.T) {
	tr := obs.NewTracer(64)
	hl := obs.NewHealth()
	adl, err := ListenMux("127.0.0.1:0", MuxListenerOptions{Trace: tr, Health: hl, StaleAfter: time.Hour})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer adl.Close()
	snd, err := DialMux(adl.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()

	a := event.Alert{Cond: "c1", Source: "CE1", Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 3, 3200)}},
	}}
	const origin = int64(987654321)
	if err := snd.SendTrace(0, a, wire.Trace{Flags: wire.TraceFlagSampled, Origin: origin}); err != nil {
		t.Fatalf("SendTrace: %v", err)
	}
	select {
	case got := <-adl.Alerts():
		if got.Alert.Key() != a.Key() || got.Origin != origin {
			t.Errorf("received %+v, want %v with origin %d", got, a, origin)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alert did not arrive")
	}
	spans := waitSpans(t, tr, "x", 3, 1)
	s := spans[0]
	if s.Stage != obs.StageBacklink || s.Disp != obs.DispArrived || s.Replica != "CE1" || s.Origin != origin {
		t.Errorf("arrival span = %+v, want backlink/arrived/CE1 with origin %d", s, origin)
	}
	if rep := hl.Check(); !rep.Healthy || len(rep.Links) != 1 || rep.Links[0].Name != "backlink" {
		t.Errorf("health = %+v, want one fresh backlink", rep)
	}
}

// An untraced sender against a tracing listener: every demultiplexed alert
// of a coalesced frame still leaves an arrival span.
func TestMuxTraced(t *testing.T) {
	tr := obs.NewTracer(64)
	hl := obs.NewHealth()
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{Trace: tr, Health: hl, StaleAfter: time.Hour})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	ms, err := DialMux(l.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = ms.Close() }()

	a := event.Alert{Cond: "c1", Source: "CE2", Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 9, 4100)}},
	}}
	if err := ms.Send(4, a); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case got := <-l.Alerts():
		if got.Stream != 4 || got.Alert.Key() != a.Key() {
			t.Errorf("received stream=%d %v, want 4 %v", got.Stream, got.Alert, a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alert did not arrive")
	}
	spans := waitSpans(t, tr, "x", 9, 1)
	s := spans[0]
	if s.Stage != obs.StageBacklink || s.Disp != obs.DispArrived || s.Replica != "CE2" {
		t.Errorf("arrival span = %+v, want backlink/arrived/CE2", s)
	}
	if rep := hl.Check(); !rep.Healthy {
		t.Errorf("health = %+v, want healthy backlink", rep)
	}
}
