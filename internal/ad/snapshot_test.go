package ad

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"condmon/internal/event"
)

// goldenCase is one legacy-gob snapshot under testdata/, written by the
// last build whose Snapshot used encoding/gob: the filter it was taken
// from, the stream that filter had been offered, and probe alerts whose
// verdicts depend on the restored evidence.
type goldenCase struct {
	file   string
	mk     func() Snapshotter
	fed    []event.Alert
	probes []event.Alert
}

func goldenCases() []goldenCase {
	single := []event.Alert{
		alert("x", 3, 2, 1),
		alert("x", 3, 2, 1), // exact duplicate
		alert("x", 5, 3),    // asserts 4 missed
		alert("x", 4, 3),    // conflicts under AD-3, stale under AD-2
		alert("x", 7, 6),
		alert("x", 2, 1), // stale under AD-2, consistent under AD-3
	}
	singleProbes := []event.Alert{
		alert("x", 5, 3), // duplicate of a fed alert
		alert("x", 6, 4), // asserts 4 received
		alert("x", 8, 7),
		alert("x", 9, 7), // asserts 8 missed
		alert("x", 2, 1),
		alert("x", 10, 9),
	}
	multi := []event.Alert{alert2(2, 1), alert2(3, 1), alert2(3, 3), alert2(2, 4)}
	multiProbes := []event.Alert{alert2(3, 3), alert2(1, 5), alert2(4, 4), alert2(4, 4), alert2(5, 3)}
	return []goldenCase{
		{"legacy_gob_ad1.snap", func() Snapshotter { return NewAD1() }, single, singleProbes},
		{"legacy_gob_ad1d.snap", func() Snapshotter { return NewAD1Digest() }, single, singleProbes},
		{"legacy_gob_ad4.snap", func() Snapshotter { return NewAD4("x") }, single, singleProbes},
		{"legacy_gob_ad6.snap", func() Snapshotter { return NewAD6("x", "y") }, multi, multiProbes},
	}
}

// TestRestoreLegacyGobSnapshots pins that the tag-less gob snapshots
// already on disk — every legacy struct, nested Combine blobs included —
// still restore, and into the same behaviour as a filter that was offered
// the stream itself.
func TestRestoreLegacyGobSnapshots(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", gc.file))
			if err != nil {
				t.Fatal(err)
			}
			if blob[0] == snapFormat {
				t.Fatal("golden blob carries the streaming format byte; it must be a legacy gob stream")
			}
			restored := gc.mk()
			if err := restored.Restore(blob); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			offered := gc.mk()
			for _, a := range gc.fed {
				Offer(offered, a)
			}
			for i, a := range gc.probes {
				if got, want := Offer(restored, a), Offer(offered, a); got != want {
					t.Fatalf("probe %d (%v): restored filter decided %v, offered filter %v", i, a, got, want)
				}
			}
			// Whatever it was restored from, a filter snapshots in the one
			// write format.
			again, err := restored.Snapshot()
			if err != nil || again[0] != snapFormat {
				t.Fatalf("Snapshot after legacy restore = % x…, %v", again[:1], err)
			}
		})
	}
}

// snapshotters lists one fresh filter of every snapshotting kind; the
// multi-variable ones watch x and y.
func snapshotters() []Snapshotter {
	return []Snapshotter{
		NewAD1(), NewAD1Digest(), NewAD2("x"), NewAD3("x"), NewAD4("x"),
		NewAD5("x", "y"), NewAD3("x", "y"), NewAD6("x", "y"),
		NewCombine("nested", NewAD1(), NewAD4("x")),
	}
}

// fuzzAlerts turns fuzz bytes into an alert stream over x and y: each
// pair of bytes is one alert whose windows have small seqnos with gaps,
// duplicates and inversions, the mix that exercises every filter's state.
func fuzzAlerts(data []byte) []event.Alert {
	var out []event.Alert
	for i := 0; i+1 < len(data); i += 2 {
		x, y := int64(data[i]%32)+2, int64(data[i+1]%32)+2
		out = append(out, event.NewAlert("c", event.HistorySet{
			"x": {Var: "x", Recent: []event.Update{event.U("x", x, 0), event.U("x", x-1-int64(data[i]>>7), 0)}},
			"y": {Var: "y", Recent: []event.Update{event.U("y", y, 0)}},
		}, "CE1"))
	}
	return out
}

// FuzzSnapshotRoundTrip: a filter restored from a snapshot taken anywhere
// in a stream decides the rest of the stream exactly as the filter that
// kept running, for every snapshotting filter, and its own snapshot
// restores in turn.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{3, 1, 3, 1, 5, 2, 0x84, 2, 7, 3, 2, 9}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 9, 4, 0x90, 6}, 20), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		stream := fuzzAlerts(data)
		at := 0
		if len(stream) > 0 {
			at = int(cut) % (len(stream) + 1)
		}
		fresh := snapshotters()
		for k, running := range snapshotters() {
			for _, a := range stream[:at] {
				Offer(running, a)
			}
			blob, err := running.Snapshot()
			if err != nil {
				t.Fatalf("%s: Snapshot: %v", running.Name(), err)
			}
			restored := fresh[k]
			if err := restored.Restore(blob); err != nil {
				t.Fatalf("%s: Restore: %v", running.Name(), err)
			}
			for i, a := range stream[at:] {
				if got, want := Offer(restored, a), Offer(running, a); got != want {
					t.Fatalf("%s: alert %d after the snapshot: restored filter decided %v, running filter %v", running.Name(), at+i, got, want)
				}
			}
			blob2, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("%s: second Snapshot: %v", running.Name(), err)
			}
			if err := snapshotters()[k].Restore(blob2); err != nil {
				t.Fatalf("%s: Restore of a restored filter's snapshot: %v", running.Name(), err)
			}
		}
	})
}

// FuzzSnapshotRestore: arbitrary bytes never panic a Restore, a rejected
// snapshot leaves the filter as it was, and input carrying the streaming
// format byte never makes Restore allocate more than a small multiple of
// its length — every count is checked against the bytes that remain
// before it sizes anything. (Input without the byte goes to encoding/gob,
// whose own limits apply.)
func FuzzSnapshotRestore(f *testing.F) {
	for _, s := range snapshotters() {
		for _, a := range fuzzAlerts([]byte{3, 1, 3, 1, 5, 2, 0x84, 2, 7, 3}) {
			Offer(s, a)
		}
		blob, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(append(blob[:len(blob):len(blob)], 0))
	}
	for _, gc := range goldenCases() {
		blob, err := os.ReadFile(filepath.Join("testdata", gc.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// A count far beyond the input, in each position a count can take.
	f.Add([]byte{snapFormat, kindAD1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{snapFormat, kindAD3, 1, 1, 'x', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{snapFormat, kindCombine, 0xff, 0xff, 0x03})
	probe := fuzzAlerts([]byte{3, 1, 4, 4, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		for k, s := range snapshotters() {
			for _, a := range probe[:2] {
				Offer(s, a)
			}
			want, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			err = s.Restore(data)
			runtime.ReadMemStats(&after)
			streaming := len(data) > 0 && data[0] == snapFormat
			if grew := after.TotalAlloc - before.TotalAlloc; streaming && grew > 64*uint64(len(data))+64<<10 {
				t.Fatalf("%s: Restore of %d bytes allocated %d", s.Name(), len(data), grew)
			}
			if err != nil && streaming {
				got, serr := s.Snapshot()
				if serr != nil {
					t.Fatal(serr)
				}
				// Snapshots are written in map order, so compare behaviour,
				// not bytes: restore both into fresh filters and probe.
				a, b := snapshotters()[k], snapshotters()[k]
				if err := a.Restore(want); err != nil {
					t.Fatal(err)
				}
				if err := b.Restore(got); err != nil {
					t.Fatal(err)
				}
				for i, p := range probe {
					if Offer(a, p) != Offer(b, p) {
						t.Fatalf("%s: rejected Restore changed the filter (probe %d)", s.Name(), i)
					}
				}
			}
		}
	})
}

// TestRestoreRejectsWrongKindAndTrailingBytes pins the strictness the
// streaming format adds over gob: a state of another filter kind and bytes
// after a well-formed state are both errors, and neither changes the
// filter.
func TestRestoreRejectsWrongKindAndTrailingBytes(t *testing.T) {
	src := NewAD1()
	Offer(src, alert("x", 3, 2))
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewAD1Digest().Restore(blob); err == nil {
		t.Error("an AD-1 state restored into AD-1d")
	}
	if err := NewAD3("x").Restore(blob); err == nil {
		t.Error("an AD-1 state restored into AD-3")
	}
	dst := NewAD1()
	Offer(dst, alert("x", 9, 8))
	if err := dst.Restore(append(blob, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if Offer(dst, alert("x", 9, 8)) || !Offer(dst, alert("x", 3, 2)) {
		t.Error("a rejected Restore changed the filter's state")
	}
}

// BenchmarkAD3Snapshot times the checkpoint's encode half on AD-3 after n
// displayed alerts — n keys in the duplicate index, n+1 Received seqnos.
func BenchmarkAD3Snapshot(b *testing.B) {
	for _, shift := range []int{14, 17, 20} {
		b.Run(fmt.Sprintf("alerts=2^%d", shift), func(b *testing.B) {
			f := NewAD3("x")
			for i := int64(1); i <= 1<<shift; i++ {
				a := event.NewAlert("c", event.HistorySet{
					"x": {Var: "x", Recent: []event.Update{event.U("x", i+1, 0), event.U("x", i, 0)}},
				}, "CE1")
				if !Offer(f, a) {
					b.Fatalf("fresh alert %d suppressed", i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := f.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(blob)))
			}
		})
	}
}
