package transport

import (
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/props"
	"condmon/internal/seq"
)

// collect drains updates from a receiver until the expected count arrives
// or a timeout expires.
func collect(t *testing.T, r *UDPReceiver, want int, timeout time.Duration) []event.Update {
	t.Helper()
	var out []event.Update
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case u, ok := <-r.Updates():
			if !ok {
				return out
			}
			out = append(out, u)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestUDPFrontLinkDeliversInOrder(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()

	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	for i := int64(1); i <= 5; i++ {
		if err := pub.Publish(event.U("x", i, float64(i*100))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	got := collect(t, recv, 5, 5*time.Second)
	if !event.SeqNos(got, "x").Equal(seq.Seq{1, 2, 3, 4, 5}) {
		t.Errorf("received %v, want ⟨1..5⟩", event.SeqNos(got, "x"))
	}
}

func TestUDPReceiverDiscardsStaleSeqNos(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()
	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	// Send 2, then the stale 1, then 3: receiver must pass 2, 3 only.
	for _, n := range []int64{2, 1, 3} {
		if err := pub.Publish(event.U("x", n, 0)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	got := collect(t, recv, 2, 5*time.Second)
	if !event.SeqNos(got, "x").Equal(seq.Seq{2, 3}) {
		t.Errorf("received %v, want ⟨2,3⟩", event.SeqNos(got, "x"))
	}
	// Allow the stale datagram to be counted before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := recv.Stats(); d == 1 {
			break
		}
		if time.Now().After(deadline) {
			d, _ := recv.Stats()
			t.Fatalf("discarded = %d, want 1", d)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPForcedLoss(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		ForcedLoss: link.NewDropSeqNos("x", 2),
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

	for i := int64(1); i <= 3; i++ {
		if err := pub.Publish(event.U("x", i, 0)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	got := collect(t, recv, 2, 5*time.Second)
	if !event.SeqNos(got, "x").Equal(seq.Seq{1, 3}) {
		t.Errorf("received %v, want ⟨1,3⟩ with 2 force-dropped", event.SeqNos(got, "x"))
	}
}

func TestTCPBackLinkRoundTrip(t *testing.T) {
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
	if err := snd.Send(1, a); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case sa := <-adl.Alerts():
		if got := sa.Alert; got.Key() != a.Key() || got.Source != "CE1" || sa.Stream != 1 || sa.Origin != 0 {
			t.Errorf("received %+v, want %v on stream 1", sa, a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alert did not arrive")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewUDPPublisher(); err == nil {
		t.Error("publisher with no addresses should fail")
	}
	if _, err := NewUDPPublisher("not-an-address:::"); err == nil {
		t.Error("bad address should fail")
	}
	if _, err := ListenUDP("bad:::addr", UDPReceiverOptions{}); err == nil {
		t.Error("bad listen address should fail")
	}
	if _, err := DialMux("127.0.0.1:1", MuxSenderOptions{}); err == nil {
		t.Error("dialing a closed port should fail")
	}
	if _, err := ListenMux("bad:::addr", MuxListenerOptions{}); err == nil {
		t.Error("bad AD address should fail")
	}
}

func TestEndToEndNetworkedReplicatedSystem(t *testing.T) {
	// The full Figure 1(b) pipeline over real sockets: one DM publishing
	// over UDP to two CE processes, each evaluating c1 and forwarding
	// alerts over TCP to one AD running AD-1. CE2's front link
	// deterministically loses update 2 (Example 1's loss pattern).
	adl, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer adl.Close()

	recv1, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP CE1: %v", err)
	}
	defer recv1.Close()
	recv2, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{
		ForcedLoss: link.NewDropSeqNos("x", 2),
	})
	if err != nil {
		t.Fatalf("ListenUDP CE2: %v", err)
	}
	defer recv2.Close()

	// CE processes: consume updates, evaluate, send alerts.
	startCE := func(id string, stream uint32, recv *UDPReceiver) {
		snd, err := DialMux(adl.Addr(), MuxSenderOptions{})
		if err != nil {
			t.Errorf("DialMux(%s): %v", id, err)
			return
		}
		eval, err := ce.New(id, cond.NewOverheat("x"))
		if err != nil {
			t.Errorf("ce.New(%s): %v", id, err)
			return
		}
		go func() {
			defer func() { _ = snd.Close() }()
			for u := range recv.Updates() {
				a, fired, err := eval.Feed(u)
				if err != nil {
					t.Errorf("%s Feed: %v", id, err)
					return
				}
				if fired {
					if err := snd.Send(stream, a); err != nil {
						return
					}
				}
			}
		}()
	}
	startCE("CE1", 1, recv1)
	startCE("CE2", 2, recv2)

	pub, err := NewUDPPublisher(recv1.Addr(), recv2.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	for _, u := range []event.Update{
		event.U("x", 1, 2900), event.U("x", 2, 3100), event.U("x", 3, 3200),
	} {
		if err := pub.Publish(u); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		// Pace the datagrams so loopback does not coalesce-drop them.
		time.Sleep(5 * time.Millisecond)
	}

	// Expect three alerts at the AD (a1(2x), a2(3x) from CE1 and a3(3x)
	// from CE2), of which AD-1 displays two.
	filter := ad.NewAD1()
	var displayed []event.Alert
	deadline := time.After(10 * time.Second)
	for received := 0; received < 3; {
		select {
		case sa := <-adl.Alerts():
			received++
			if ad.Offer(filter, sa.Alert) {
				displayed = append(displayed, sa.Alert)
			}
		case <-deadline:
			t.Fatalf("timed out after %d alerts", received)
		}
	}
	if len(displayed) != 2 {
		t.Fatalf("displayed %d alerts, want 2 (duplicate suppressed): %v", len(displayed), displayed)
	}
	if !props.Ordered(displayed, []event.VarName{"x"}) {
		// Arrival order across TCP connections is nondeterministic, but
		// with CE1 publishing first the duplicate is the late one in
		// practice; orderedness is not guaranteed here (Theorem 2), so
		// only check the alert set.
		t.Logf("note: unordered arrival (allowed by Theorem 2): %v", displayed)
	}
	keys := event.KeySet(displayed)
	if len(keys) != 2 {
		t.Errorf("displayed duplicate alerts: %v", displayed)
	}
}

func TestUDPBatchFrontLink(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()

	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	us := make([]event.Update, 100)
	for i := range us {
		us[i] = event.U("x", int64(i+1), float64(i)*1.5)
	}
	if err := pub.PublishBatch("x", us); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	got := collect(t, recv, 100, 5*time.Second)
	if len(got) != 100 {
		t.Fatalf("received %d updates, want 100", len(got))
	}
	for i, u := range got {
		if u != us[i] {
			t.Fatalf("update %d: got %v, want %v", i, u, us[i])
		}
	}
}

func TestUDPBatchSplitsOversizedRuns(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()

	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	// More than one datagram's worth of 16-byte records (64KB / 16 ≈ 4095
	// per chunk after the header): the publisher must split, and loopback
	// rarely drops, so most should land. Require in-order, gap-free prefix
	// semantics rather than exact counts — this is still UDP.
	const n = 5000
	us := make([]event.Update, n)
	for i := range us {
		us[i] = event.U("x", int64(i+1), float64(i))
	}
	if err := pub.PublishBatch("x", us); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	// Receiver-overrun drops mean fewer than n may arrive; a short timeout
	// bounds the wait without weakening the ordering assertion below.
	got := collect(t, recv, n, time.Second)
	if len(got) == 0 {
		t.Fatal("no updates received")
	}
	last := int64(0)
	for _, u := range got {
		if u.SeqNo <= last {
			t.Fatalf("out-of-order delivery: %d after %d", u.SeqNo, last)
		}
		last = u.SeqNo
	}
}

func TestUDPBatchInOrderAcrossBatchAndSingle(t *testing.T) {
	recv, err := ListenUDP("127.0.0.1:0", UDPReceiverOptions{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer recv.Close()

	pub, err := NewUDPPublisher(recv.Addr())
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()

	// A batch, then a stale single, then a fresh single: the receiver's
	// sequence check must span datagram kinds.
	if err := pub.PublishBatch("x", []event.Update{
		event.U("x", 1, 10), event.U("x", 2, 20), event.U("x", 3, 30),
	}); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	if err := pub.Publish(event.U("x", 2, 99)); err != nil { // stale
		t.Fatalf("Publish: %v", err)
	}
	if err := pub.Publish(event.U("x", 4, 40)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(t, recv, 4, 5*time.Second)
	if !event.SeqNos(got, "x").Equal(seq.Seq{1, 2, 3, 4}) {
		t.Errorf("received %v, want ⟨1,2,3,4⟩", event.SeqNos(got, "x"))
	}
	discarded, _ := recv.Stats()
	if discarded != 1 {
		t.Errorf("discarded = %d, want 1 (the stale single)", discarded)
	}
}
