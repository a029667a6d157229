package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

// The nil no-op contract on the tracing handle: every Tracer method must
// be safe (and cheap) on a nil receiver, so pipelines thread the pointer
// unconditionally and the tracing-off state costs one nil check.
func TestTracerNilNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Var: "x", Seq: 1, Stage: StageEmit, Disp: DispEmitted})
	if got := tr.Cap(); got != 0 {
		t.Errorf("nil Cap() = %d, want 0", got)
	}
	if got := tr.Recorded(); got != 0 {
		t.Errorf("nil Recorded() = %d, want 0", got)
	}
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil Snapshot() = %v, want nil", got)
	}
	if got := tr.Spans("x", 1); got != nil {
		t.Errorf("nil Spans() = %v, want nil", got)
	}
}

// Record on a nil tracer — the tracing-off hot path — must not allocate.
func TestTracerNilRecordZeroAllocs(t *testing.T) {
	var tr *Tracer
	s := Span{Var: "x", Seq: 1, Stage: StageFeed, Disp: DispFed, Time: 1}
	if allocs := testing.AllocsPerRun(500, func() { tr.Record(s) }); allocs != 0 {
		t.Errorf("nil Record: %v allocs/op, want 0", allocs)
	}
}

// Record on a live tracer pays exactly one small allocation — the
// immutable span copy its atomic publication hands to readers. Pinning the
// exact count documents the tracing-on cost the same way the zero pins
// document the off state.
func TestTracerRecordOneAlloc(t *testing.T) {
	tr := NewTracer(64)
	s := Span{Var: "x", Seq: 1, Stage: StageFeed, Disp: DispFed, Time: 1}
	if allocs := testing.AllocsPerRun(500, func() { tr.Record(s) }); allocs != 1 {
		t.Errorf("Record: %v allocs/op, want 1 (the published span copy)", allocs)
	}
}

func TestTracerCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultTraceCap}, {-5, DefaultTraceCap}, {1, 1}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewTracer(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewTracer(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// The ring keeps only the most recent Cap() spans, oldest first, and
// Recorded counts everything that was ever written.
func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := int64(1); i <= 10; i++ {
		tr.Record(Span{Var: "x", Seq: i, Stage: StageEmit, Disp: DispEmitted, Time: i})
	}
	if got := tr.Recorded(); got != 10 {
		t.Errorf("Recorded() = %d, want 10", got)
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot() returned %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int64(7 + i); s.Seq != want {
			t.Errorf("span %d: Seq = %d, want %d (oldest-first tail of the ring)", i, s.Seq, want)
		}
	}
}

func TestTracerSpansFilter(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Var: "x", Seq: 1, Stage: StageEmit, Disp: DispEmitted, Time: 1})
	tr.Record(Span{Var: "x", Seq: 2, Stage: StageEmit, Disp: DispEmitted, Time: 2})
	tr.Record(Span{Var: "y", Seq: 1, Stage: StageEmit, Disp: DispEmitted, Time: 3})
	if got := len(tr.Spans("x", -1)); got != 2 {
		t.Errorf("Spans(x, -1): %d spans, want 2", got)
	}
	if got := len(tr.Spans("", 1)); got != 2 {
		t.Errorf("Spans(\"\", 1): %d spans, want 2", got)
	}
	if got := len(tr.Spans("y", 1)); got != 1 {
		t.Errorf("Spans(y, 1): %d spans, want 1", got)
	}
	if got := len(tr.Spans("z", -1)); got != 0 {
		t.Errorf("Spans(z, -1): %d spans, want 0", got)
	}
}

// Record stamps the wall clock only when the caller left Time zero.
func TestTracerRecordStampsTime(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Var: "x", Seq: 1, Stage: StageEmit, Disp: DispEmitted})
	tr.Record(Span{Var: "x", Seq: 2, Stage: StageEmit, Disp: DispEmitted, Time: 42})
	got := tr.Snapshot()
	if len(got) != 2 {
		t.Fatalf("Snapshot() returned %d spans, want 2", len(got))
	}
	if got[0].Time == 0 {
		t.Error("zero Time was not stamped by Record")
	}
	if got[1].Time != 42 {
		t.Errorf("caller-set Time overwritten: got %d, want 42", got[1].Time)
	}
}

// Concurrent writers and readers: nothing torn, nothing lost from the
// counter, and every span a reader observes is internally consistent
// (Var/Seq agree — a torn mix of two writers' spans would not).
func TestTracerConcurrentRecordSnapshot(t *testing.T) {
	tr := NewTracer(64)
	const writers, perW = 4, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader racing the writers
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range tr.Snapshot() {
				if s.Seq != int64(s.Time) {
					t.Errorf("torn span observed: Seq=%d Time=%d", s.Seq, s.Time)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// From 1: Record stamps the wall clock over a zero Time, and
				// that span would read as torn.
				seq := int64(w*perW + i + 1)
				tr.Record(Span{Var: "x", Seq: seq, Stage: StageFeed, Disp: DispFed, Time: seq})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := tr.Recorded(); got != writers*perW {
		t.Errorf("Recorded() = %d, want %d", got, writers*perW)
	}
}

// The /trace endpoint: JSON shape, var/seq/stage/limit filters, and the
// nil-tracer empty response daemons rely on to mount it unconditionally.
func TestTraceHandler(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Var: "x", Seq: 1, Stage: StageEmit, Disp: DispEmitted, Time: 1})
	tr.Record(Span{Var: "x", Seq: 1, Stage: StageLink, Replica: "CE1", Disp: DispDelivered, Time: 2})
	tr.Record(Span{Var: "x", Seq: 2, Stage: StageLink, Replica: "CE1", Disp: DispLost, Time: 3})
	tr.Record(Span{Var: "y", Seq: 9, Stage: StageAD, Replica: "CE1", Disp: DispSuppressed, Rule: "AD-1", Time: 4})

	get := func(url string) traceResponse {
		t.Helper()
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		TraceHandler(tr).ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d", url, w.Code)
		}
		var resp traceResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp
	}

	if resp := get("/trace"); len(resp.Spans) != 4 || resp.Cap != 16 || resp.Recorded != 4 {
		t.Errorf("unfiltered: %d spans cap=%d recorded=%d, want 4/16/4", len(resp.Spans), resp.Cap, resp.Recorded)
	}
	if resp := get("/trace?var=x&seq=1"); len(resp.Spans) != 2 {
		t.Errorf("var=x&seq=1: %d spans, want 2", len(resp.Spans))
	}
	if resp := get("/trace?stage=ad"); len(resp.Spans) != 1 || resp.Spans[0].Rule != "AD-1" {
		t.Errorf("stage=ad: %+v, want one suppressed span naming AD-1", resp.Spans)
	}
	if resp := get("/trace?limit=1"); len(resp.Spans) != 1 || resp.Spans[0].Var != "y" {
		t.Errorf("limit=1: %+v, want only the most recent span", resp.Spans)
	}

	// Bad parameters are rejected, not ignored.
	for _, url := range []string{"/trace?seq=no", "/trace?seq=-2", "/trace?limit=no"} {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		TraceHandler(tr).ServeHTTP(w, req)
		if w.Code != 400 {
			t.Errorf("GET %s: status %d, want 400", url, w.Code)
		}
	}

	// A nil tracer serves an empty recorder.
	req := httptest.NewRequest("GET", "/trace", nil)
	w := httptest.NewRecorder()
	TraceHandler(nil).ServeHTTP(w, req)
	var resp traceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if w.Code != 200 || resp.Cap != 0 || len(resp.Spans) != 0 {
		t.Errorf("nil tracer: status=%d cap=%d spans=%d, want 200/0/0", w.Code, resp.Cap, len(resp.Spans))
	}
}
