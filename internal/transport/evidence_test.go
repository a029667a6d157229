package transport

import (
	"net"
	"testing"
	"time"

	"condmon/internal/audit"
	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/wire"
)

// A DM-side evidence builder publishing 'G' frames over the front link:
// the receiver decodes them onto its Evidence channel while the update
// stream flows untouched, and a corrupted frame drops whole without
// wedging either stream.
func TestEvidencePublishReceive(t *testing.T) {
	reg := obs.NewRegistry()
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{Metrics: reg, MetricsPrefix: "recv"})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	b := audit.NewEvidenceBuilder("x", 1, 16)
	for s := int64(1); s <= 5; s++ {
		u := event.U("x", s, float64(s)*10)
		b.Observe(u)
		if err := pub.Publish(u); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	f, ok := b.Frame()
	if !ok {
		t.Fatal("builder yielded no frame")
	}
	if err := pub.PublishEvidence(f); err != nil {
		t.Fatalf("PublishEvidence: %v", err)
	}

	select {
	case got := <-recv.Evidence():
		if got.Var != "x" || got.UpTo != 5 || got.PrefixHash != f.PrefixHash || len(got.Vals) != 5 {
			t.Fatalf("evidence = %+v, want frame for x up to 5", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evidence frame never arrived")
	}
	if p, _ := reg.Get("recv.evidence"); p.Value != 1 {
		t.Fatalf("recv.evidence = %d, want 1", p.Value)
	}

	// A corrupted evidence frame (CRC breaks) is dropped whole; the link
	// keeps working for both kinds of traffic.
	raw, err := wire.AppendEvidence(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	conn, err := net.Dial("udp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}

	b.Observe(event.U("x", 6, 60))
	f2, _ := b.Frame()
	if err := pub.PublishEvidence(f2); err != nil {
		t.Fatalf("PublishEvidence: %v", err)
	}
	select {
	case got := <-recv.Evidence():
		if got.UpTo != 6 {
			t.Fatalf("second evidence frame = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evidence after corrupt frame never arrived")
	}
	if p, _ := reg.Get("recv.evidence"); p.Value != 2 {
		t.Fatalf("recv.evidence = %d, want 2 (corrupt frame must not count)", p.Value)
	}
}

// A CE forwarding evidence over the back link: SendEvidence frames arrive
// on the listener's Evidence channel, interleaved with alerts on Alerts.
func TestEvidenceBacklinkForward(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	s, err := DialMux(l.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = s.Close() }()

	ev := wire.Evidence{Var: "reactor", Base: 0, UpTo: 3, PrefixHash: 42, Vals: []float64{1, 2, 3}}
	h := wire.EvidenceHashSeed
	for i, v := range ev.Vals {
		h = wire.EvidenceHashStep(h, int64(i+1), v)
	}
	ev.PrefixHash = h
	if err := s.SendEvidence(ev); err != nil {
		t.Fatalf("SendEvidence: %v", err)
	}
	al := event.NewAlert("c1", event.HistorySet{
		"reactor": {Var: "reactor", Recent: []event.Update{event.U("reactor", 3, 3)}},
	}, "CE1")
	if err := s.Send(0, al); err != nil {
		t.Fatalf("Send: %v", err)
	}

	select {
	case got := <-l.Evidence():
		if got.Var != "reactor" || got.UpTo != 3 || got.PrefixHash != ev.PrefixHash {
			t.Fatalf("forwarded evidence = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evidence never arrived on back link")
	}
	select {
	case got := <-l.Alerts():
		if got.Alert.Cond != "c1" {
			t.Fatalf("alert = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alert never arrived after evidence frame")
	}
}

// A CE forwarding evidence to an AD that never reads it — condmon-ad without
// -audit — must not stall the alerts behind it once the buffer is full.
func TestEvidenceUnreadDoesNotStallAlerts(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	s, err := DialMux(l.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = s.Close() }()
	for i := 0; i < 2*evidenceBuffer; i++ {
		if err := s.SendEvidence(wire.Evidence{Var: "x", PrefixHash: wire.EvidenceHashSeed}); err != nil {
			t.Fatalf("SendEvidence %d: %v", i, err)
		}
	}
	if err := s.Send(0, testAlert("c", "CE1", 1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	collectStream(t, l, 1, 5*time.Second)
}

// Satellite regression for /healthz under the reorder layer: a datagram the
// ring fully buffers (parked behind a gap, nothing released) must still
// count as front-link activity.
func TestReorderBufferedArrivalTouchesLinkHealth(t *testing.T) {
	hl := obs.NewHealth()
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		ReorderDepth: 8, ReorderSkew: time.Hour, // park the gap for the whole test
		Health: hl, StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	if rep := hl.Check(); rep.Healthy {
		t.Fatal("never-touched link must start stale")
	}
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	// Seqno 2 with 1 missing: buffered behind the gap, nothing released.
	if err := pub.Publish(event.U("x", 2, 200)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !hl.Check().Healthy {
		if time.Now().After(deadline) {
			t.Fatal("buffered arrival never touched link health")
		}
		time.Sleep(time.Millisecond)
	}
	if n := recv.ReorderPending(); n != 1 {
		t.Fatalf("ReorderPending = %d, want 1 (the update must still be parked)", n)
	}
}

// Satellite regression for /healthz under the reorder flusher: an update
// released by the skew-expiry flusher (not a fresh datagram) goes through
// the same delivery path and must advance link activity.
func TestReorderFlushReleaseTouchesLinkHealth(t *testing.T) {
	hl := obs.NewHealth()
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		ReorderDepth: 8, ReorderSkew: 50 * time.Millisecond,
		Health: hl, StaleAfter: time.Hour,
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

	lh := hl.Link("front:front", 0) // same registered instance the receiver touches
	if err := pub.Publish(event.U("x", 2, 200)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for lh.LastActivity().IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("arrival never touched link health")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := lh.LastActivity()

	// The flusher declares seqno 1 lost after the skew and releases 2 —
	// with no new datagrams in flight, any later activity is the release.
	select {
	case u := <-recv.Updates():
		if u.SeqNo != 2 {
			t.Fatalf("released update = %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never released the parked update")
	}
	deadline = time.Now().Add(5 * time.Second)
	for !lh.LastActivity().After(t0) {
		if time.Now().After(deadline) {
			t.Fatal("flush release never advanced link activity")
		}
		time.Sleep(time.Millisecond)
	}
}
