package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"condmon/internal/event"
)

// refDecodeAlert and refDecodeMux are the alert decoders as they stood
// before DecodeAlertInto/DecodeMuxInto replaced them: allocate every name,
// build the history set as the variables arrive, cache no key. They are the
// oracle the caller-memory decoder is held to — acceptance, error text, item
// tolerance and trailing bytes.
func refDecodeAlert(b []byte) (event.Alert, []byte, error) {
	if len(b) == 0 || b[0] != tagAlert {
		return event.Alert{}, nil, errf("not an alert message")
	}
	b = b[1:]
	condName, b, err := readString(b)
	if err != nil {
		return event.Alert{}, nil, err
	}
	source, b, err := readString(b)
	if err != nil {
		return event.Alert{}, nil, err
	}
	if len(b) < 2 {
		return event.Alert{}, nil, errf("truncated alert variable count")
	}
	nvars := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	a := event.Alert{Cond: condName, Source: source, Histories: make(event.HistorySet, nvars)}
	for i := 0; i < nvars; i++ {
		name, rest, err := readString(b)
		if err != nil {
			return event.Alert{}, nil, err
		}
		b = rest
		if len(b) < 2 {
			return event.Alert{}, nil, errf("truncated history length for %q", name)
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < 16*n {
			return event.Alert{}, nil, errf("truncated history body for %q", name)
		}
		h := event.History{Var: event.VarName(name), Recent: make([]event.Update, n)}
		for j := 0; j < n; j++ {
			h.Recent[j] = event.Update{
				Var:   event.VarName(name),
				SeqNo: int64(binary.BigEndian.Uint64(b)),
				Value: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
			}
			b = b[16:]
		}
		if _, dup := a.Histories[h.Var]; dup {
			return event.Alert{}, nil, errf("duplicate history for variable %q", name)
		}
		a.Histories[h.Var] = h
	}
	return a, b, nil
}

func refDecodeMux(b []byte) (m Mux, itemErrs []ItemError, rest []byte, err error) {
	if len(b) == 0 || b[0] != tagMux {
		return Mux{}, nil, nil, errf("not a mux message")
	}
	b = b[1:]
	if len(b) < 6 {
		return Mux{}, nil, nil, errf("truncated mux header")
	}
	m.Stream = binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	for i := 0; i < n; i++ {
		if len(b) < muxItemOverhead {
			return Mux{}, nil, nil, errf("truncated mux item %d length", i)
		}
		ln := int(binary.BigEndian.Uint32(b))
		b = b[muxItemOverhead:]
		if len(b) < ln {
			return Mux{}, nil, nil, errf("truncated mux item %d body (want %d bytes, have %d)", i, ln, len(b))
		}
		item := b[:ln]
		b = b[ln:]
		a, itemRest, err := refDecodeAlert(item)
		if err != nil {
			itemErrs = append(itemErrs, ItemError{Index: i, Err: err})
			continue
		}
		if len(itemRest) != 0 {
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("mux item has %d trailing bytes", len(itemRest))})
			continue
		}
		m.Alerts = append(m.Alerts, a)
	}
	return m, itemErrs, b, nil
}

// sameAlert compares two alerts field by field, values by their bits (the
// fuzzer finds NaNs) and identity by Key.
func sameAlert(a, b event.Alert) bool {
	if a.Cond != b.Cond || a.Source != b.Source || a.Key() != b.Key() || len(a.Histories) != len(b.Histories) {
		return false
	}
	for v, h := range a.Histories {
		o, ok := b.Histories[v]
		if !ok || h.Var != o.Var || len(h.Recent) != len(o.Recent) {
			return false
		}
		for i, u := range h.Recent {
			w := o.Recent[i]
			if u.Var != w.Var || u.SeqNo != w.SeqNo || math.Float64bits(u.Value) != math.Float64bits(w.Value) {
				return false
			}
		}
	}
	return true
}

// checkMuxIntoAgainstReference decodes data with every combination of
// caller memory and holds each result to the reference decoder; it then
// scribbles over the input and checks the decoded alerts did not notice.
func checkMuxIntoAgainstReference(t *testing.T, data []byte, scratch []event.Alert, names *Names) {
	t.Helper()
	want, wantErrs, wantRest, wantErr := refDecodeMux(data)
	for _, leg := range []struct {
		name    string
		scratch []event.Alert
		names   *Names
	}{
		{"DecodeMux", nil, nil},
		{"scratch", scratch, nil},
		{"names", nil, names},
		{"scratch+names", scratch, names},
	} {
		input := bytes.Clone(data)
		var (
			got     Mux
			gotErrs []ItemError
			gotRest []byte
			gotErr  error
		)
		if leg.name == "DecodeMux" {
			got, gotErrs, gotRest, gotErr = DecodeMux(input)
		} else {
			got, gotErrs, gotRest, gotErr = DecodeMuxInto(input, leg.scratch, leg.names)
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, reference err = %v", leg.name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Stream != want.Stream || len(got.Alerts) != len(want.Alerts) {
			t.Fatalf("%s: stream %d with %d alerts, reference stream %d with %d",
				leg.name, got.Stream, len(got.Alerts), want.Stream, len(want.Alerts))
		}
		if !sameErrs(gotErrs, wantErrs) {
			t.Fatalf("%s: itemErrs = %v, reference = %v", leg.name, gotErrs, wantErrs)
		}
		if !bytes.Equal(gotRest, wantRest) {
			t.Fatalf("%s: rest = %q, reference = %q", leg.name, gotRest, wantRest)
		}
		for i := range input {
			input[i] = 0xFF // the receiver reads its next frame into the same buffer
		}
		for i := range want.Alerts {
			if !sameAlert(got.Alerts[i], want.Alerts[i]) {
				t.Fatalf("%s: alert %d = %+v, reference %+v", leg.name, i, got.Alerts[i], want.Alerts[i])
			}
		}
	}
}

// hostileMuxFrames are hand-built frames around every check the decoder
// makes: the corpus of FuzzDecodeMuxInto and the table of its plain test.
func hostileMuxFrames(tb testing.TB) [][]byte {
	tb.Helper()
	clean, err := EncodeMux(3, muxAlerts())
	if err != nil {
		tb.Fatal(err)
	}
	// item assembles a mux frame around raw item bodies.
	frame := func(items ...[]byte) []byte {
		b := []byte{'M', 0, 0, 0, 9}
		b = binary.BigEndian.AppendUint16(b, uint16(len(items)))
		for _, it := range items {
			b = binary.BigEndian.AppendUint32(b, uint32(len(it)))
			b = append(b, it...)
		}
		return b
	}
	// alert assembles an alert body from (name, seqnos…) histories in the
	// order given — including orders and repeats no encoder produces.
	type hist struct {
		name string
		seqs []int64
	}
	alert := func(hs ...hist) []byte {
		b := []byte{'A'}
		b = appendString(b, "c")
		b = appendString(b, "CE1")
		b = binary.BigEndian.AppendUint16(b, uint16(len(hs)))
		for _, h := range hs {
			b = appendString(b, h.name)
			b = binary.BigEndian.AppendUint16(b, uint16(len(h.seqs)))
			for _, s := range h.seqs {
				b = binary.BigEndian.AppendUint64(b, uint64(s))
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(float64(s)))
			}
		}
		return b
	}
	good := alert(hist{"x", []int64{2, 1}})
	six := make([]hist, 6) // more variables than the decoder's stack list
	for i := range six {
		six[i] = hist{fmt.Sprintf("v%d", i), []int64{int64(i + 1)}}
	}
	return [][]byte{
		clean,
		append(bytes.Clone(clean), 'T', 1, 0, 0, 0, 0, 0, 0, 0, 5), // trailer: left in rest
		{},
		{'M'},
		{'M', 0, 0, 0, 1, 0, 2},                   // count 2, no items
		{'M', 0, 0, 0, 1, 0xFF, 0xFF},             // count 65535, no items
		{'M', 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 'A'},  // item too short to be an alert
		{'M', 0, 0, 0, 1, 0, 1, 0, 0, 0, 9, 'A'},  // item length past the buffer
		frame(good, good[:len(good)-3], good),     // truncated middle item: skipped
		frame(append(bytes.Clone(good), 0), good), // trailing byte inside an item
		frame(alert(hist{"y", []int64{1}}, hist{"x", []int64{5, 4}})), // descending variables
		frame(alert(hist{"x", []int64{1}}, hist{"x", []int64{2}})),    // repeated variable
		frame(alert(hist{"b", []int64{1}}, hist{"a", []int64{2}}, hist{"b", []int64{3}})),
		frame(alert(hist{"x", nil}), alert()),                           // empty history, no histories
		frame(alert(six...), alert(six[3], six[1], six[5])),             // past the stack list
		frame(alert(hist{"b", []int64{1}}, hist{"a", []int64{2}})[:20]), // out of order, then truncated
	}
}

func TestDecodeMuxIntoMatchesReference(t *testing.T) {
	scratch := make([]event.Alert, 0, 2)
	var names Names
	for _, data := range hostileMuxFrames(t) {
		checkMuxIntoAgainstReference(t, data, scratch, &names)
	}
}

// FuzzDecodeMuxInto is the differential gate for the caller-memory alert
// decoder, after FuzzDecodeBatchInto: on every input DecodeMux and
// DecodeMuxInto — with and without scratch, with and without a name cache
// that persists across inputs — agree with the reference decoder on alerts
// (keys included), item errors, trailing bytes and error text, and nothing
// decoded aliases the input.
func FuzzDecodeMuxInto(f *testing.F) {
	for _, data := range hostileMuxFrames(f) {
		f.Add(data)
	}
	scratch := make([]event.Alert, 0, 4)
	var names Names
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMuxIntoAgainstReference(t, data, scratch, &names)
	})
}

// A name cache fed more distinct names than it holds stays bounded, and
// what it hands back is still the right name.
func TestNamesBounded(t *testing.T) {
	var names Names
	for i := 0; i < 10*maxNames; i++ {
		v := event.VarName(fmt.Sprintf("v%d", i))
		a := event.NewAlert(fmt.Sprintf("cond-%d", i), event.HistorySet{
			v: {Var: v, Recent: []event.Update{event.U(v, int64(i), 1)}},
		}, fmt.Sprintf("CE%d", i%7))
		b, err := EncodeAlert(a)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeAlertInto(b, &names)
		if err != nil || len(rest) != 0 {
			t.Fatalf("alert %d: rest %d, err %v", i, len(rest), err)
		}
		if !sameAlert(got, a) {
			t.Fatalf("alert %d = %+v, want %+v", i, got, a)
		}
		if len(names.m) > maxNames {
			t.Fatalf("cache holds %d names after %d alerts, bound is %d", len(names.m), i+1, maxNames)
		}
	}
	// Over-long names decode but are not kept.
	before := len(names.m)
	long := string(bytes.Repeat([]byte{'n'}, maxNameLen+1))
	b, err := EncodeAlert(event.NewAlert(long, nil, long))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeAlertInto(b, &names)
	if err != nil || got.Cond != long || got.Source != long {
		t.Fatalf("long names: %+v, err %v", got, err)
	}
	if len(names.m) != before {
		t.Errorf("cache grew from %d to %d on an over-long name", before, len(names.m))
	}
}

// TestDecodeMuxIntoAllocs pins what a received alert costs with the
// connection's memory warm: its history set (map header and group), one
// window slice per variable and its key — four for a single-variable alert
// — and nothing per frame. The key is the decoder's: asking for it again
// costs nothing.
func TestDecodeMuxIntoAllocs(t *testing.T) {
	const perFrame = 64
	alerts := make([]event.Alert, perFrame)
	for i := range alerts {
		s := int64(1_000_000 + i)
		alerts[i] = event.NewAlert("c", event.HistorySet{
			"x": {Var: "x", Recent: []event.Update{event.U("x", s+1, 2), event.U("x", s, 1)}},
		}, "CE1")
	}
	frame, err := EncodeMux(1, alerts)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := EncodeMux(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		scratch = make([]event.Alert, 0, perFrame)
		names   Names
		m       Mux
	)
	decode := func(b []byte) func() {
		return func() {
			var itemErrs []ItemError
			if m, itemErrs, _, err = DecodeMuxInto(b, scratch, &names); err != nil || len(itemErrs) != 0 {
				t.Fatalf("DecodeMuxInto: %v %v", err, itemErrs)
			}
		}
	}
	decode(frame)() // warm the name cache
	if got := testing.AllocsPerRun(100, decode(frame)); got > 4*perFrame {
		t.Errorf("DecodeMuxInto: %.2f allocs per alert, want ≤ 4", got/perFrame)
	}
	if got := testing.AllocsPerRun(100, decode(empty)); got != 0 {
		t.Errorf("DecodeMuxInto: %v allocs for an empty frame, want 0", got)
	}
	decode(frame)()
	var key string
	if got := testing.AllocsPerRun(100, func() { key = m.Alerts[perFrame-1].Key() }); got != 0 {
		t.Errorf("Key() of a decoded alert: %v allocs, want 0 (the decoder caches it)", got)
	}
	if want := alerts[perFrame-1].Key(); key != want {
		t.Errorf("decoded key %q, want %q", key, want)
	}
}
