package main

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"condmon/internal/event"
	"condmon/internal/transport"
	"condmon/internal/wire"
)

// syncWriter guards output shared between the run goroutine and the test.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// The daemon on the coalesced back link: alerts arrive tagged with the
// replica's -stream id, and with -audit the DM's evidence frames are relayed
// on the same connection.
func TestRunEvaluatesAndForwards(t *testing.T) {
	adl, err := transport.ListenMux("127.0.0.1:0", transport.MuxListenerOptions{})
	if err != nil {
		t.Fatalf("ListenMux: %v", err)
	}
	defer adl.Close()

	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-id", "CE1", "-listen", "127.0.0.1:0", "-ad", adl.Addr(),
			"-cond", "x[0] > 3000", "-n", "3", "-stream", "7", "-audit",
		}, out)
	}()

	// Wait for the CE to announce its ephemeral port, then publish.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	re := regexp.MustCompile(`listening on ([0-9.:]+)`)
	for addr == "" {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatal("CE never announced its address")
		}
		time.Sleep(5 * time.Millisecond)
	}

	pub, err := transport.NewUDPPublisher(addr)
	if err != nil {
		t.Fatalf("NewUDPPublisher: %v", err)
	}
	defer pub.Close()
	if err := pub.PublishEvidence(wire.Evidence{Var: "x", PrefixHash: wire.EvidenceHashSeed}); err != nil {
		t.Fatalf("PublishEvidence: %v", err)
	}
	for i, val := range []float64{2900, 3100, 3200} {
		if err := pub.Publish(event.U("x", int64(i+1), val)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two alerts and the evidence frame must arrive at the AD.
	alerts, evidence := 0, 0
	timeout := time.After(10 * time.Second)
	for alerts < 2 || evidence < 1 {
		select {
		case sa := <-adl.Alerts():
			if sa.Stream != 7 || sa.Alert.Source != "CE1" {
				t.Errorf("alert %+v, want stream 7 from CE1", sa)
			}
			alerts++
		case ev := <-adl.Evidence():
			if ev.Var != "x" {
				t.Errorf("evidence %+v, want x", ev)
			}
			evidence++
		case <-timeout:
			t.Fatalf("received %d alerts and %d evidence frames, want 2 and 1", alerts, evidence)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CE did not exit after -n updates")
	}
}

func TestRunErrors(t *testing.T) {
	out := &syncWriter{}
	if err := run([]string{}, out); err == nil {
		t.Error("missing flags should fail")
	}
	if err := run([]string{"-ad", "127.0.0.1:1", "-cond", "x[0] >"}, out); err == nil {
		t.Error("bad condition should fail")
	}
	if err := run([]string{"-ad", "127.0.0.1:1", "-cond", "x[0] > 1", "-drop", "7"}, out); err == nil {
		t.Error("bad drop probability should fail")
	}
	if err := run([]string{"-ad", "127.0.0.1:1", "-cond", "x[0] > 1"}, out); err == nil {
		t.Error("dialing a dead AD should fail")
	}
}
