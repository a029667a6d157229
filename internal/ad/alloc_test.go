package ad

import (
	"testing"

	"condmon/internal/event"
	"condmon/internal/wire"
)

// The duplicate-discard path of AD-1 is the steady state of a replicated
// system: r-1 of every r alert copies are dropped. With the alert's identity
// key precomputed at construction and the fused single-probe testAndSet,
// discarding a duplicate must not allocate.
func TestAD1DuplicateOfferZeroAllocs(t *testing.T) {
	f := NewAD1()
	a := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 7, 1), event.U("x", 6, 0)}},
	}, "CE1")
	if !Offer(f, a) {
		t.Fatal("first copy should pass")
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if Offer(f, a) {
			t.Fatal("duplicate alert passed the filter")
		}
	}); allocs != 0 {
		t.Errorf("duplicate Offer: %v allocs/op, want 0", allocs)
	}
}

// AD-3's steady state — duplicate and conflicting alerts being suppressed —
// must not allocate: the in-order fast path probes Received/Missed directly
// off the history window instead of materializing per-Offer sets.
func TestAD3SuppressedOfferZeroAllocs(t *testing.T) {
	f := NewAD3("x")
	first := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 7, 1), event.U("x", 6, 0)}},
	}, "CE1")
	if !Offer(f, first) {
		t.Fatal("first alert should pass")
	}
	dup := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 7, 1), event.U("x", 6, 0)}},
	}, "CE1")
	// Asserts 7 missed (gap between 6 and 8) though it was received.
	conflicting := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 8, 2), event.U("x", 6, 0)}},
	}, "CE2")
	if allocs := testing.AllocsPerRun(500, func() {
		if Offer(f, dup) {
			t.Fatal("duplicate alert passed AD-3")
		}
		if Offer(f, conflicting) {
			t.Fatal("conflicting alert passed AD-3")
		}
	}); allocs != 0 {
		t.Errorf("suppressed AD-3 Offer: %v allocs/op, want 0", allocs)
	}
}

// AD-3 construction is on the registry's churn path: a dynamic engine
// builds one filter per registration, thousands per second under churn.
// With the slice-backed Received/Missed layout and lazily created sets,
// NewAD3 costs two allocations (the filter and its per-variable slice) —
// the pin includes a third for the variadic argument slice.
func TestAD3ConstructionAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(500, func() {
		f := NewAD3("x")
		if f.Name() != "AD-3" {
			t.Fatal("wrong filter")
		}
	}); allocs > 3 {
		t.Errorf("NewAD3: %v allocs/op, want ≤ 3", allocs)
	}
}

// The first displayed alert pays the deferred set/map construction; after
// that, an accepted in-order alert costs only map inserts. Pin the
// steady-state accept path too: extending Received by one consecutive
// seqno must not allocate once the maps have grown to capacity.
func TestAD3AcceptSteadyStateAllocs(t *testing.T) {
	f := NewAD3("x")
	// Warm up: grow the seen and received maps well past the test range.
	for i := int64(1); i <= 512; i++ {
		a := event.NewAlert("c", event.HistorySet{
			"x": {Var: "x", Recent: []event.Update{event.U("x", i, 1)}},
		}, "CE1")
		if !Offer(f, a) {
			t.Fatalf("in-order alert %d rejected", i)
		}
	}
	const runs = 100
	alerts := make([]event.Alert, 0, runs+1)
	for i := int64(513); i <= 513+runs; i++ {
		alerts = append(alerts, event.NewAlert("c", event.HistorySet{
			"x": {Var: "x", Recent: []event.Update{event.U("x", i, 1)}},
		}, "CE1"))
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if !Offer(f, alerts[next]) {
			t.Fatal("in-order alert rejected")
		}
		next++
	}); allocs > 1 { // amortized map growth only
		t.Errorf("steady-state accepted Offer: %v allocs/op, want ≤ 1", allocs)
	}
}

// The same holds for AD-4, whose Test runs AD-2 and AD-3 in sequence.
func TestAD4SuppressedOfferZeroAllocs(t *testing.T) {
	f := NewAD4("x")
	first := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 7, 1), event.U("x", 6, 0)}},
	}, "CE1")
	if !Offer(f, first) {
		t.Fatal("first alert should pass")
	}
	stale := event.NewAlert("c", event.HistorySet{
		"x": {Var: "x", Recent: []event.Update{event.U("x", 5, 1), event.U("x", 4, 0)}},
	}, "CE2")
	if allocs := testing.AllocsPerRun(500, func() {
		if Offer(f, stale) {
			t.Fatal("stale alert passed AD-4")
		}
	}); allocs != 0 {
		t.Errorf("suppressed AD-4 Offer: %v allocs/op, want 0", allocs)
	}
}

// offWire is the alert as the displayer gets it: through the encoder and the
// back link's decoder, which hands it over with its key already built.
func offWire(t *testing.T, a event.Alert) event.Alert {
	t.Helper()
	b, err := wire.EncodeAlert(a)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := wire.DecodeAlert(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeAlert: rest %d, err %v", len(rest), err)
	}
	return got
}

// What the filters cost on an alert that arrived over the wire: nothing
// beyond the growth of their own maps. Before the decoder cached the key,
// AD-3 serialized it once in Test and again in Accept of every Offer.
func TestDecodedAlertOfferAllocs(t *testing.T) {
	for _, mk := range []func() Filter{
		func() Filter { return NewAD3("x") },
		func() Filter { return NewAD4("x") },
	} {
		f := mk()
		window := func(i int64) event.Alert {
			return offWire(t, event.Alert{Cond: "c", Source: "CE1", Histories: event.HistorySet{
				"x": {Var: "x", Recent: []event.Update{event.U("x", i+1, 1), event.U("x", i, 0)}},
			}})
		}
		// Warm up: grow the seen and received maps well past the test range.
		for i := int64(1); i <= 1024; i++ {
			if !Offer(f, window(i)) {
				t.Fatalf("%s: in-order alert %d rejected", f.Name(), i)
			}
		}
		dup := window(1024)
		if allocs := testing.AllocsPerRun(500, func() {
			if Offer(f, dup) {
				t.Fatalf("%s: duplicate passed", f.Name())
			}
		}); allocs != 0 {
			t.Errorf("%s: suppressed Offer of a decoded alert: %v allocs/op, want 0", f.Name(), allocs)
		}
		const runs = 100
		fresh := make([]event.Alert, 0, runs+1)
		for i := int64(1025); i <= 1025+runs; i++ {
			fresh = append(fresh, window(i))
		}
		next := 0
		if allocs := testing.AllocsPerRun(runs, func() {
			if !Offer(f, fresh[next]) {
				t.Fatalf("%s: in-order alert rejected", f.Name())
			}
			next++
		}); allocs > 1 { // amortized map growth only
			t.Errorf("%s: displayed Offer of a decoded alert: %v allocs/op, want ≤ 1", f.Name(), allocs)
		}
	}
}
