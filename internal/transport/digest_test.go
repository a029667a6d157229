package transport

import (
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/event"
	"condmon/internal/wire"
)

func TestDigestBackLinkRoundTrip(t *testing.T) {
	adl, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
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
	want := wire.DigestOf(a)
	if err := snd.SendDigest(want); err != nil {
		t.Fatalf("SendDigest: %v", err)
	}
	select {
	case got := <-adl.Digests():
		if got.Key() != want.Key() || got.Latest["x"] != 3 || got.Source != "CE1" {
			t.Errorf("received %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("digest did not arrive")
	}
}

func TestMixedAlertAndDigestFrames(t *testing.T) {
	// One CE sends full alerts, another sends digests; both arrive on the
	// right channel of the same listener, and an AD-1d filter deduplicates
	// across the two encodings.
	adl, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer adl.Close()

	full, err := DialMux(adl.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux full: %v", err)
	}
	defer func() { _ = full.Close() }()
	compact, err := DialMux(adl.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux compact: %v", err)
	}
	defer func() { _ = compact.Close() }()

	a := event.Alert{Cond: "c1", Source: "CE1", Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 3, 3200)}},
	}}
	dup := a.Clone()
	dup.Source = "CE2"
	if err := full.Send(1, a); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := compact.SendDigest(wire.DigestOf(dup)); err != nil {
		t.Fatalf("SendDigest: %v", err)
	}

	filter := ad.NewAD1Digest()
	displayed := 0
	received := 0
	deadline := time.After(5 * time.Second)
	for received < 2 {
		select {
		case sa := <-adl.Alerts():
			received++
			if filter.Test(sa.Alert) {
				filter.Accept(sa.Alert)
				displayed++
			}
		case d := <-adl.Digests():
			received++
			if filter.TestDigest(d) {
				filter.AcceptDigest(d)
				displayed++
			}
		case <-deadline:
			t.Fatalf("timed out after %d frames", received)
		}
	}
	if displayed != 1 {
		t.Errorf("displayed %d, want 1 (digest recognized as duplicate of the full alert)", displayed)
	}
}
