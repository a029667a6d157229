package main

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"condmon/internal/event"
	"condmon/internal/transport"
)

// syncWriter guards the output builder shared between the run goroutine
// and the test's polling loop.
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

func TestRunDisplaysAndSuppresses(t *testing.T) {
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x", "-n", "3"}, out)
	}()

	var addr string
	re := regexp.MustCompile(`listening on ([0-9.:]+)`)
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatal("AD never announced its address")
		}
		time.Sleep(5 * time.Millisecond)
	}

	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()
	a := event.Alert{Cond: "c1", Source: "CE1", Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 1, 3100)}},
	}}
	b := a.Clone()
	b.Source = "CE2"
	c := a.Clone()
	c.Histories["x"].Recent[0] = event.U("x", 2, 3200)
	for i, alert := range []event.Alert{a, b, c} {
		if err := snd.Send(uint32(i%2), alert); err != nil { // CE2's duplicate rides stream 1
			t.Fatalf("Send: %v", err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AD did not exit after -n alerts")
	}
	got := out.String()
	if !strings.Contains(got, "displayed=2") || !strings.Contains(got, "suppressed=1") {
		t.Errorf("summary missing:\n%s", got)
	}
	if !strings.Contains(got, "from CE2 [stream 1])") || strings.Contains(got, "[stream 0]") {
		t.Errorf("want the duplicate tagged [stream 1] and stream 0 untagged:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	out := &syncWriter{}
	if err := run([]string{"-ad-algo", "AD-9"}, out); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if err := run([]string{"-ad-algo", "AD-2", "-vars", "x,y"}, out); err == nil {
		t.Error("AD-2 with two variables should fail")
	}
	if err := run([]string{"-listen", "bad:::addr", "-vars", "x"}, out); err == nil {
		t.Error("bad listen address should fail")
	}
}
