package main

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"condmon/internal/audit"
	"condmon/internal/event"
	"condmon/internal/transport"
	"condmon/internal/wire"
)

// evidenceFor builds a chained prefix digest for x⟨1..n⟩ with the given
// values.
func evidenceFor(t *testing.T, vals []float64) wire.Evidence {
	t.Helper()
	h := wire.EvidenceHashSeed
	for i, v := range vals {
		h = wire.EvidenceHashStep(h, int64(i+1), v)
	}
	return wire.Evidence{Var: "x", Base: 0, UpTo: int64(len(vals)), PrefixHash: h, Vals: vals}
}

// startAD launches run in a goroutine and waits for the announced back-link
// address.
func startAD(t *testing.T, args []string) (*syncWriter, string, chan error) {
	t.Helper()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run(args, out) }()
	re := regexp.MustCompile(`listening on ([0-9.:]+)`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return out, m[1], done
		}
		if time.Now().After(deadline) {
			t.Fatalf("AD never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitADExit(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AD did not exit after -n alerts")
	}
}

func adAlert(seq int64, value float64, source string) event.Alert {
	return event.Alert{Cond: "c1", Source: source, Histories: event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", seq, value)}},
	}}
}

// A clean run under -audit: the correct filter keeps the matrix free of
// violations, orderedness and consistency confirmed, completeness
// PLAUSIBLE (no evidence reaches a bare displayer).
func TestRunAuditClean(t *testing.T) {
	out, addr, done := startAD(t, []string{
		"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x", "-audit", "-n", "3"})
	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()
	for _, a := range []event.Alert{
		adAlert(1, 3100, "CE1"), adAlert(1, 3100, "CE2"), adAlert(2, 3200, "CE1"),
	} {
		if err := snd.Send(0, a); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitADExit(t, done)
	got := out.String()
	if !strings.Contains(got, "audit: ordered=CONFIRMED complete=PLAUSIBLE consistent=CONFIRMED violations=0") {
		t.Errorf("clean audit summary missing:\n%s", got)
	}
}

// The dedup negative control: the broken filter displays the duplicate,
// and the auditor flips Complete to VIOLATED with the duplicate named.
func TestRunAuditBreakDedup(t *testing.T) {
	out, addr, done := startAD(t, []string{
		"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x",
		"-audit", "-audit-break", "dedup", "-n", "2"})
	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()
	for _, a := range []event.Alert{adAlert(1, 3100, "CE1"), adAlert(1, 3100, "CE2")} {
		if err := snd.Send(0, a); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitADExit(t, done)
	got := out.String()
	if !strings.Contains(got, "complete=VIOLATED") {
		t.Errorf("broken dedup must flip Complete:\n%s", got)
	}
	if !strings.Contains(got, "duplicate displayed alert") {
		t.Errorf("violation detail missing:\n%s", got)
	}
}

// The reorder negative control: adjacent alerts are swapped before
// offering, so an ascending pair displays descending and Ordered flips.
func TestRunAuditBreakReorder(t *testing.T) {
	out, addr, done := startAD(t, []string{
		"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x",
		"-audit", "-audit-break", "reorder", "-n", "2"})
	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()
	for _, a := range []event.Alert{adAlert(1, 3100, "CE1"), adAlert(2, 3200, "CE1")} {
		if err := snd.Send(0, a); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitADExit(t, done)
	got := out.String()
	if !strings.Contains(got, "ordered=VIOLATED") {
		t.Errorf("injected reorder must flip Ordered:\n%s", got)
	}
	if !strings.Contains(got, "violations=1") {
		t.Errorf("violation count missing:\n%s", got)
	}
}

// Evidence forwarded over the back link refutes a displayed value the DM
// never emitted: both evidence-backed properties flip.
func TestRunAuditEvidenceContradiction(t *testing.T) {
	out, addr, done := startAD(t, []string{
		"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x", "-audit", "-n", "1"})
	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()

	ev := evidenceFor(t, []float64{3100, 3200})
	if err := snd.SendEvidence(ev); err != nil {
		t.Fatalf("SendEvidence: %v", err)
	}
	// The displayed alert claims x@2 = 9999, contradicting the digest. Give
	// the evidence goroutine a moment to absorb the frame first.
	time.Sleep(100 * time.Millisecond)
	if err := snd.Send(0, adAlert(2, 9999, "CE1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitADExit(t, done)
	got := out.String()
	if !strings.Contains(got, "complete=VIOLATED consistent=VIOLATED") {
		t.Errorf("evidence contradiction must flip Complete and Consistent:\n%s", got)
	}
	if !strings.Contains(got, "contradicts evidenced") {
		t.Errorf("violation detail missing:\n%s", got)
	}
}

// Two replicas' origin-stamped duplicates on two streams: the displayed
// alert's stamp anchors the auditor's latency (and breaches a 1ns SLO); the
// suppressed duplicate's stamp is dropped with it — one latency sample, one
// breach.
func TestRunAuditOriginAcrossStreams(t *testing.T) {
	out, addr, done := startAD(t, []string{
		"-listen", "127.0.0.1:0", "-ad-algo", "AD-1", "-vars", "x",
		"-audit", "-audit-slo", "1ns", "-metrics", "127.0.0.1:0", "-n", "3"})
	m := regexp.MustCompile(`metrics: http://([^/]+)/metrics`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("metrics endpoint not announced:\n%s", out.String())
	}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	snd, err := transport.DialMux(addr, transport.MuxSenderOptions{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer func() { _ = snd.Close() }()
	origin := time.Now().Add(-time.Millisecond).UnixNano()
	stamp := wire.Trace{Flags: wire.TraceFlagSampled, Origin: origin}
	for i, src := range []string{"CE1", "CE2"} {
		if err := snd.SendTrace(uint32(i+1), adAlert(1, 3100, src), stamp); err != nil {
			t.Fatalf("SendTrace: %v", err)
		}
	}

	var rep audit.Report
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON("/audit", &rep)
		if len(rep.Conds) == 1 && rep.Conds[0].Suppressed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auditor never saw the duplicate: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := rep.Conds[0]; c.Displayed != 1 || c.LastLatencyNanos <= 0 || c.SLOOK {
		t.Errorf("cond report = %+v, want 1 displayed with a positive latency over the SLO", c)
	}
	var points map[string]any
	getJSON("/metrics", &points)
	if v, _ := points["audit.slo_breaches"].(float64); v != 1 {
		t.Errorf("audit.slo_breaches = %v, want 1", points["audit.slo_breaches"])
	}
	if h, _ := points["audit.latency_ns"].(map[string]any); h["count"] != float64(1) {
		t.Errorf("audit.latency_ns = %v, want one sample", points["audit.latency_ns"])
	}

	if err := snd.Send(1, adAlert(2, 3200, "CE1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitADExit(t, done)
	if got := out.String(); !strings.Contains(got, "received=3 displayed=2 suppressed=1") {
		t.Errorf("summary missing:\n%s", got)
	}
}
