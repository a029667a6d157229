package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/runtime"
	"condmon/internal/wire"
)

// testAlert builds a small distinct alert for stream/seq.
func testAlert(cond string, source string, seqNo int64) event.Alert {
	return event.Alert{Cond: cond, Source: source, Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", seqNo, float64(seqNo)*10)}},
	}}
}

// collectStream drains n stream alerts or fails at the timeout.
func collectStream(t *testing.T, l *MuxListener, n int, timeout time.Duration) []StreamAlert {
	t.Helper()
	var out []StreamAlert
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case sa, ok := <-l.Alerts():
			if !ok {
				t.Fatalf("listener closed after %d/%d alerts", len(out), n)
			}
			out = append(out, sa)
		case <-deadline:
			t.Fatalf("timed out after %d/%d alerts", len(out), n)
		}
	}
	return out
}

// TestMuxPerStreamOrdering is the core mux contract: many streams share
// one connection, and each stream's alerts arrive in send order.
func TestMuxPerStreamOrdering(t *testing.T) {
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

	const streams, perStream = 5, 20
	for i := 0; i < perStream; i++ {
		for st := 0; st < streams; st++ {
			a := testAlert(fmt.Sprintf("c%d", st), "CE", int64(i+1))
			if err := s.Send(uint32(st), a); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := collectStream(t, l, streams*perStream, 10*time.Second)
	last := map[uint32]int64{}
	for _, sa := range got {
		seq := sa.Alert.MustSeqNo("x")
		if seq <= last[sa.Stream] {
			t.Fatalf("stream %d: seq %d arrived after %d", sa.Stream, seq, last[sa.Stream])
		}
		if want := fmt.Sprintf("c%d", sa.Stream); sa.Alert.Cond != want {
			t.Fatalf("stream %d carried alert for %q, want %q", sa.Stream, sa.Alert.Cond, want)
		}
		last[sa.Stream] = seq
	}
}

// TestMuxDeadlineFlush verifies the coalescing buffer's deadline: a single
// alert buffered on a busy link must arrive without any explicit Flush.
func TestMuxDeadlineFlush(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	s, err := DialMux(l.Addr(), MuxSenderOptions{FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = s.Close() }()
	s.coalescing = true // a quiet link would not wait for the timer
	if err := s.Send(9, testAlert("c", "CE1", 1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := collectStream(t, l, 1, 5*time.Second)
	if got[0].Stream != 9 || got[0].Alert.Cond != "c" {
		t.Errorf("got %v, want stream 9 alert c", got[0])
	}
}

// TestMuxSendAfterClose pins the sentinel contract shared with the front
// links: every send and Flush on a closed mux return the wrapped
// runtime.ErrClosed.
func TestMuxSendAfterClose(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	s, err := DialMux(l.Addr(), MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Send(0, testAlert("c", "CE1", 1)); !errors.Is(err, runtime.ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := s.SendTrace(0, testAlert("c", "CE1", 1), wire.Trace{}); !errors.Is(err, runtime.ErrClosed) {
		t.Errorf("SendTrace after Close = %v, want ErrClosed", err)
	}
	if err := s.SendDigest(wire.DigestOf(testAlert("c", "CE1", 2))); !errors.Is(err, runtime.ErrClosed) {
		t.Errorf("SendDigest after Close = %v, want ErrClosed", err)
	}
	if err := s.SendEvidence(wire.Evidence{Var: "x"}); !errors.Is(err, runtime.ErrClosed) {
		t.Errorf("SendEvidence after Close = %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, runtime.ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestMuxOversizedRunSplits is the maxFrame enforcement contract for 'M'
// frames: a coalesced run whose encoding exceeds maxFrame is split into
// several frames of the same stream — every alert still arrives, in order,
// and the connection is not reset.
func TestMuxOversizedRunSplits(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	// A huge FlushBytes keeps everything buffered until one explicit Flush,
	// forcing the flush itself to split the run across frames.
	s, err := DialMux(l.Addr(), MuxSenderOptions{FlushBytes: 1 << 30, FlushEvery: time.Hour})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = s.Close() }()

	// Each alert carries a ~64 KiB history window; 40 of them exceed the
	// 1 MiB maxFrame at least twice over.
	big := make([]event.Update, 4000)
	const n = 40
	for i := 0; i < n; i++ {
		for j := range big {
			big[j] = event.Update{Var: "x", SeqNo: int64(i*len(big) + j + 1), Value: float64(j)}
		}
		// Recent is newest-first per event.History conventions elsewhere, but
		// the wire layer round-trips any order; what matters here is size.
		a := event.Alert{Cond: "big", Source: "CE1", Histories: event.HistorySet{
			"x": {Var: "x", Recent: append([]event.Update(nil), big...)},
		}}
		if err := s.Send(1, a); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := collectStream(t, l, n, 30*time.Second)
	for i, sa := range got {
		if sa.Stream != 1 {
			t.Fatalf("alert %d arrived on stream %d, want 1", i, sa.Stream)
		}
		if want := int64((i+1)*len(big) - len(big) + 1); sa.Alert.Histories["x"].Recent[0].SeqNo != want {
			t.Fatalf("alert %d out of order: head seqno %d, want %d", i, sa.Alert.Histories["x"].Recent[0].SeqNo, want)
		}
	}
}

// TestMuxSingleOversizedAlertRejected: one alert too big for any frame is
// an error at Send time, not a poisoned connection.
func TestMuxSingleOversizedAlertRejected(t *testing.T) {
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
	// Two 60000-update histories: each is under the encoder's per-window
	// limit, but together they encode to ~1.9 MiB — past maxFrame.
	hs := event.HistorySet{}
	for i := 0; i < 2; i++ {
		v := event.VarName(fmt.Sprintf("v%d", i))
		rec := make([]event.Update, 60000)
		for j := range rec {
			rec[j] = event.Update{Var: v, SeqNo: int64(j + 1)}
		}
		hs[v] = event.History{Var: v, Recent: rec}
	}
	if err := s.Send(0, event.Alert{Cond: "huge", Histories: hs}); err == nil {
		t.Error("Send of >maxFrame alert succeeded, want error")
	}
	// The connection is still usable.
	if err := s.Send(0, testAlert("ok", "CE1", 1)); err != nil {
		t.Fatalf("Send after rejection: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := collectStream(t, l, 1, 5*time.Second)
	if got[0].Alert.Cond != "ok" {
		t.Errorf("got %v, want the follow-up alert", got[0])
	}
}

// TestMuxListenerAcceptsLegacyAlertFrames: a sender that writes one plain
// 'A' frame per alert can talk to a MuxListener; its alerts surface as
// stream 0.
func TestMuxListenerAcceptsLegacyAlertFrames(t *testing.T) {
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	frame, err := appendAlertItem(nil, testAlert("legacy", "CE1", 4))
	if err != nil {
		t.Fatalf("appendAlertItem: %v", err)
	}
	replay(t, l, frame)
	got := collectStream(t, l, 1, 5*time.Second)
	if got[0].Stream != 0 || got[0].Alert.Cond != "legacy" {
		t.Errorf("got %v, want stream-0 legacy alert", got[0])
	}
}

// TestMuxMetrics spot-checks the coalescing counters: many alerts, few
// frames, fewer flushes.
func TestMuxMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	lreg := obs.NewRegistry()
	l, err := ListenMux("127.0.0.1:0", MuxListenerOptions{Metrics: lreg})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer l.Close()
	s, err := DialMux(l.Addr(), MuxSenderOptions{Metrics: reg, FlushEvery: time.Hour})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = s.Close() }()
	s.coalescing = true // as on a busy link: nothing leaves before the Flush
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Send(uint32(i%2), testAlert("c", "CE", int64(i+1))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	collectStream(t, l, n, 10*time.Second)
	if got, _ := reg.Get("transport.mux.alerts"); got.Value != n {
		t.Errorf("transport.mux.alerts = %d, want %d", got.Value, n)
	}
	frames, _ := reg.Get("transport.mux.frames")
	if frames.Value < 2 || frames.Value > 4 {
		t.Errorf("transport.mux.frames = %d, want 2 streams' worth (2-4)", frames.Value)
	}
	if got, _ := lreg.Get("transport.muxrecv.alerts"); got.Value != n {
		t.Errorf("transport.muxrecv.alerts = %d, want %d", got.Value, n)
	}
	if got, _ := lreg.Get("transport.muxrecv.item_errors"); got.Value != 0 {
		t.Errorf("transport.muxrecv.item_errors = %d, want 0", got.Value)
	}
}
