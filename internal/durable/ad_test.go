package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"condmon/internal/ad"
	"condmon/internal/event"
	"condmon/internal/obs"
)

// adAlert builds a single-variable alert whose history lists seqNos
// most-recent-first, mirroring what a CE emits.
func adAlert(v string, seqNos ...int64) event.Alert {
	vn := event.VarName(v)
	h := event.History{Var: vn}
	for _, s := range seqNos {
		h.Recent = append(h.Recent, event.Update{Var: vn, SeqNo: s, Value: float64(s * 100)})
	}
	return event.NewAlert("c", event.HistorySet{vn: h}, "CE1")
}

// adStream is a verdict-rich alert sequence: fresh alerts, exact
// duplicates, instance-level duplicates (same window head, different
// depth), and a stale regression — with the duplicates positioned so that
// every crash point in the test splits at least one dup pair across the
// boundary.
func adStream() []event.Alert {
	return []event.Alert{
		adAlert("x", 3, 2, 1),
		adAlert("x", 3, 2, 1), // exact duplicate
		adAlert("x", 4, 3, 2),
		adAlert("x", 4, 3), // same head, shallower window
		adAlert("x", 2, 1), // stale regression
		adAlert("x", 5, 4, 3),
		adAlert("x", 4, 3, 2), // duplicate across typical crash points
		adAlert("x", 6, 5, 4),
		adAlert("x", 6, 5, 4), // duplicate in the tail
		adAlert("x", 7, 6, 5),
		adAlert("x", 5, 4, 3), // late duplicate of a pre-crash alert
		adAlert("x", 8, 7, 6),
	}
}

func TestLoggedFilterKillRestartEquivalence(t *testing.T) {
	algos := map[string]func() ad.Filter{
		"AD1":     func() ad.Filter { return ad.NewAD1() },
		"AD2":     func() ad.Filter { return ad.NewAD2("x") },
		"AD3":     func() ad.Filter { return ad.NewAD3("x") },
		"AD5":     func() ad.Filter { return ad.NewAD5("x") },
		"AD6":     func() ad.Filter { return ad.NewAD6("x") },
		"Combine": func() ad.Filter { return ad.NewCombine("both", ad.NewAD1(), ad.NewAD2("x")) },
	}
	stream := adStream()
	for name, mk := range algos {
		for _, compactEvery := range []int{0, 2} {
			for _, crashAt := range []int{1, len(stream) / 2, len(stream) - 1} {
				t.Run(fmt.Sprintf("%s/compact=%d/crash=%d", name, compactEvery, crashAt), func(t *testing.T) {
					// Baseline: the uninterrupted verdict sequence.
					base := mk()
					var want []bool
					for _, a := range stream {
						want = append(want, ad.Offer(base, a))
					}

					path := filepath.Join(t.TempDir(), "ad.wal")
					l := openT(t, path, Options{})
					lf := LogFilter(mk(), l, compactEvery)
					var got []bool
					for _, a := range stream[:crashAt] {
						got = append(got, ad.Offer(lf, a))
					}
					if err := lf.Err(); err != nil {
						t.Fatalf("pre-crash journal error: %v", err)
					}
					// Kill: drop the live filter and its log handle on the
					// floor (no Close — a SIGKILL never runs one) and restart
					// from the file alone.
					l2 := openT(t, path, Options{})
					fresh := mk()
					if _, err := RecoverFilter(l2, fresh); err != nil {
						t.Fatalf("RecoverFilter: %v", err)
					}
					lf2 := LogFilter(fresh, l2, compactEvery)
					for _, a := range stream[crashAt:] {
						got = append(got, ad.Offer(lf2, a))
					}
					if err := lf2.Err(); err != nil {
						t.Fatalf("post-crash journal error: %v", err)
					}
					defer l2.Close()

					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("verdict %d (%v): crash/restart run said %v, uninterrupted said %v",
								i, stream[i], got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// longStream is adStream's verdict mix stretched to n fresh alerts, long
// enough to carry a filter's checkpoint past the point where its size, not
// the compactEvery floor, sets the cadence: every third fresh alert is
// followed by an exact duplicate of an earlier one, every fifth by a stale
// regression.
func longStream(n int) []event.Alert {
	var out []event.Alert
	for i := int64(1); i <= int64(n); i++ {
		out = append(out, adAlert("x", i+2, i+1, i))
		if i%3 == 0 {
			out = append(out, adAlert("x", i/3+2, i/3+1, i/3))
		}
		if i%5 == 0 {
			out = append(out, adAlert("x", i-1, i-2))
		}
	}
	return out
}

// TestLoggedFilterRecoverAcrossCompaction pins that recovery works when the
// log holds a checkpoint plus a delta suffix (not just raw deltas), at the
// three shapes the checkpoint policy produces: a floor-cadence log, a crash
// just after several size-paced (geometric) compactions, and a crash with
// the longest tail the policy allows — as many delta bytes as the
// checkpoint they follow, one record short of the next compaction.
func TestLoggedFilterRecoverAcrossCompaction(t *testing.T) {
	const compactEvery = 3
	// Crash points for the two size-paced legs, found on a probe run.
	stream := longStream(300)
	afterGeometric, longestTail := -1, -1
	{
		l := openT(t, filepath.Join(t.TempDir(), "probe.wal"), Options{})
		lf := LogFilter(ad.NewAD4("x"), l, compactEvery)
		geometric, sinceCkpt := 0, 0
		for i, a := range stream {
			if !ad.Offer(lf, a) {
				continue
			}
			sinceCkpt++
			if l.deltas == 0 { // this accept compacted
				if sinceCkpt > compactEvery {
					geometric++
				}
				sinceCkpt = 0
				if geometric == 3 && afterGeometric < 0 {
					afterGeometric = i + 2
				}
			} else if afterGeometric >= 0 && i > afterGeometric && longestTail < 0 {
				// One more delta of this size would make the run as long
				// as the checkpoint frame: the next accept compacts.
				if run, frame := l.end-l.tail, l.tail-l.ckptOff; run+run/int64(l.deltas) >= frame {
					longestTail = i + 1
				}
			}
		}
		l.Close()
		if afterGeometric < 0 || longestTail < 0 {
			t.Fatalf("probe run found no size-paced crash points (after 3 geometric: %d, longest tail: %d)", afterGeometric, longestTail)
		}
	}

	legs := []struct {
		name    string
		mk      func() ad.Filter
		stream  []event.Alert
		crashAt int
	}{
		{"floor", func() ad.Filter { return ad.NewAD1() }, adStream(), 8},
		{"after-geometric", func() ad.Filter { return ad.NewAD4("x") }, stream, afterGeometric},
		{"longest-tail", func() ad.Filter { return ad.NewAD4("x") }, stream, longestTail},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ad.wal")
			l := openT(t, path, Options{})
			lf := LogFilter(leg.mk(), l, compactEvery)
			base := leg.mk()
			for _, a := range leg.stream[:leg.crashAt] {
				if got, want := ad.Offer(lf, a), ad.Offer(base, a); got != want {
					t.Fatalf("pre-crash verdict on %v: journaled %v, bare %v", a, got, want)
				}
			}
			if err := lf.Err(); err != nil {
				t.Fatal(err)
			}
			if l.ckptOff == l.tail {
				t.Fatal("expected a checkpoint in the log")
			}
			if leg.name == "longest-tail" {
				if run, frame := l.end-l.tail, l.tail-l.ckptOff; l.deltas <= compactEvery || run+run/int64(l.deltas) < frame {
					t.Fatalf("tail of %d deltas, %d bytes after a %d-byte checkpoint is not the long-tail shape", l.deltas, run, frame)
				}
			}

			l2 := openT(t, path, Options{})
			defer l2.Close()
			if l2.deltas != l.deltas || l2.ckptOff != l.ckptOff || l2.tail != l.tail || l2.end != l.end {
				t.Fatalf("reopen re-derived cadence state (%d, %d, %d, %d), writer had (%d, %d, %d, %d)",
					l2.deltas, l2.ckptOff, l2.tail, l2.end, l.deltas, l.ckptOff, l.tail, l.end)
			}
			fresh := leg.mk()
			if _, err := RecoverFilter(l2, fresh); err != nil {
				t.Fatal(err)
			}
			lf2 := LogFilter(fresh, l2, compactEvery)
			for i, a := range leg.stream[leg.crashAt:] {
				if got, want := ad.Offer(lf2, a), ad.Offer(base, a); got != want {
					t.Fatalf("post-recovery verdict %d on %v: got %v, want %v", i, a, got, want)
				}
			}
			if err := lf2.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointAmortisation pins the policy by count. State that grows
// with the stream (AD-4's Received/Missed sets and duplicate index) is
// checkpointed at geometrically spaced points: the number of compactions
// is logarithmic in the stream, the checkpoint bytes written stay within a
// constant factor of the final state and of the delta bytes, and the file
// never outgrows twice its checkpoint plus compactEvery deltas.
// State of constant size (AD-2's one latch) keeps the plain every-N
// cadence.
func TestCheckpointAmortisation(t *testing.T) {
	const (
		n            = 1 << 16
		compactEvery = 256
	)
	run := func(t *testing.T, f ad.Filter) (compactions, ckptWritten, deltaWritten, final int64) {
		m := RegisterMetrics(obs.NewRegistry(), "")
		l := openT(t, filepath.Join(t.TempDir(), "ad.wal"), Options{Metrics: m})
		defer l.Close()
		lf := LogFilter(f, l, compactEvery)
		for i := int64(1); i <= n; i++ {
			before := l.end
			if !ad.Offer(lf, adAlert("x", i+1, i)) {
				t.Fatalf("fresh alert %d suppressed", i)
			}
			if c := m.Compactions.Value(); c != compactions {
				compactions = c
				ckptWritten += m.CheckpointBytes.Value()
			} else {
				frame := l.end - before
				deltaWritten += frame
				if ckpt := l.tail - l.ckptOff; l.end > headerSize+2*ckpt+compactEvery*frame {
					t.Fatalf("after %d alerts the log is %d bytes: checkpoint %d, %d-byte deltas", i, l.end, ckpt, frame)
				}
			}
		}
		if err := lf.Err(); err != nil {
			t.Fatal(err)
		}
		blob, err := lf.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.CheckpointNs.Count(); got != compactions {
			t.Errorf("checkpoint_ns holds %d observations for %d compactions", got, compactions)
		}
		return compactions, ckptWritten, deltaWritten, int64(len(blob))
	}
	t.Run("growing-state", func(t *testing.T) {
		compactions, ckptWritten, deltaWritten, final := run(t, ad.NewAD4("x"))
		t.Logf("%d compactions, %d checkpoint bytes and %d delta bytes written, final state %d bytes", compactions, ckptWritten, deltaWritten, final)
		// The every-N cadence compacts n/compactEvery = 256 times. The
		// spacing ratio is 1 + state bytes per delta byte, here about
		// 1.4, so 2^16 alerts take log(256)/log(1.4) ≈ 16 compactions.
		if compactions > 20 {
			t.Errorf("%d compactions over %d alerts, want ≤ 20", compactions, n)
		}
		if ckptWritten > 3*final {
			t.Errorf("wrote %d checkpoint bytes for a final state of %d, want ≤ 3×", ckptWritten, final)
		}
		// Each checkpoint is written only after as many delta bytes as
		// the one it replaces, which telescopes to this.
		if ckptWritten > deltaWritten+final {
			t.Errorf("wrote %d checkpoint bytes against %d delta bytes and a final state of %d", ckptWritten, deltaWritten, final)
		}
	})
	t.Run("constant-state", func(t *testing.T) {
		if compactions, _, _, _ := run(t, ad.NewAD2("x")); compactions != n/compactEvery {
			t.Errorf("%d compactions over %d alerts, want one every %d", compactions, n, compactEvery)
		}
	})
}

// TestRecoverParentBuildWAL replays a log written by the build before the
// streaming snapshot codec — a gob checkpoint followed by a delta — and
// pins that the recovered filter picks the stream up where that build left
// it, then checkpoints in the new format into the same file.
func TestRecoverParentBuildWAL(t *testing.T) {
	// testdata/parent_ad4.wal: LogFilter(ad.NewAD4("x"), l, 3) offered
	// adStream()[:8] by the parent commit.
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_ad4.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ad.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	stream := adStream()
	base := ad.NewAD4("x")
	for _, a := range stream[:8] {
		ad.Offer(base, a)
	}

	l := openT(t, path, Options{})
	fresh := ad.NewAD4("x")
	if n, err := RecoverFilter(l, fresh); err != nil || n != 2 {
		t.Fatalf("RecoverFilter = %d, %v; want the checkpoint and its one delta", n, err)
	}
	lf := LogFilter(fresh, l, 1)
	for i, a := range stream[8:] {
		if got, want := ad.Offer(lf, a), ad.Offer(base, a); got != want {
			t.Fatalf("post-recovery verdict %d on %v: got %v, want %v", i, a, got, want)
		}
	}
	if err := lf.Err(); err != nil {
		t.Fatal(err)
	}
	// The tail offers displayed enough to compact: the file now holds a
	// streaming-format checkpoint, and recovers again.
	l.Close()
	l2 := openT(t, path, Options{})
	defer l2.Close()
	again := ad.NewAD4("x")
	if _, err := RecoverFilter(l2, again); err != nil {
		t.Fatal(err)
	}
	late := adAlert("x", 9, 8, 7)
	if got, want := ad.Offer(again, late), ad.Offer(base, late); got != want {
		t.Fatalf("verdict after second recovery: got %v, want %v", got, want)
	}
}

// TestLoggedFilterAcceptAllocs pins the per-record path: between
// checkpoints, journaling a displayed alert — encode into the reused
// scratch, frame, write — allocates nothing.
func TestLoggedFilterAcceptAllocs(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "ad.wal"), Options{})
	defer l.Close()
	// AD-2's own Accept stores one integer, so every allocation counted
	// is the journal's; no compactEvery, so no checkpoint falls in the
	// measured run.
	lf := LogFilter(ad.NewAD2("x"), l, 0)
	a := adAlert("x", 3, 2)
	lf.Accept(a) // sizes the scratch buffers
	if allocs := testing.AllocsPerRun(500, func() { lf.Accept(a) }); allocs != 0 {
		t.Errorf("LoggedFilter.Accept: %v allocs/op, want 0", allocs)
	}
	if err := lf.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLoggedFilterCountsFirstFailure pins that the WAL failure which turns
// a LoggedFilter in-memory-only is visible when it happens: Err is set and
// durable.wal.errors reads 1, once, while filtering carries on.
func TestLoggedFilterCountsFirstFailure(t *testing.T) {
	m := RegisterMetrics(obs.NewRegistry(), "")
	l := openT(t, filepath.Join(t.TempDir(), "ad.wal"), Options{Metrics: m})
	lf := LogFilter(ad.NewAD1(), l, 0)
	stream := adStream()
	ad.Offer(lf, stream[0])
	if lf.Err() != nil || m.Errors.Value() != 0 {
		t.Fatalf("healthy journal reports err=%v errors=%d", lf.Err(), m.Errors.Value())
	}
	l.f.Close() // every later write fails
	for _, a := range stream[2:] {
		ad.Offer(lf, a)
	}
	if lf.Err() == nil {
		t.Fatal("Err is nil after the log's file was closed under it")
	}
	if got := m.Errors.Value(); got != 1 {
		t.Fatalf("durable.wal.errors = %d, want 1", got)
	}
	if ad.Offer(lf, stream[0]) {
		t.Fatal("filter stopped suppressing duplicates after the journal failed")
	}
}

func TestFilterSnapshotterUnwraps(t *testing.T) {
	f := ad.NewAD1()
	if s, ok := FilterSnapshotter(f); !ok || s == nil {
		t.Fatal("AD1 should expose a Snapshotter directly")
	}
	path := filepath.Join(t.TempDir(), "w.wal")
	l := openT(t, path, Options{})
	defer l.Close()
	wrapped := LogFilter(f, l, 0)
	if s, ok := FilterSnapshotter(wrapped); !ok || s == nil {
		t.Fatal("LoggedFilter should unwrap to its inner Snapshotter")
	}
	if _, ok := FilterSnapshotter(ad.NewPassthrough()); ok {
		t.Fatal("the passthrough filter keeps no state and must not report a Snapshotter")
	}
}
