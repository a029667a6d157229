package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"condmon/internal/obs"
)

type recVal struct {
	kind    byte
	payload string
}

func openT(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l
}

func replayAll(t *testing.T, l *Log) []recVal {
	t.Helper()
	var out []recVal
	if _, err := l.Replay(func(kind byte, payload []byte) error {
		out = append(out, recVal{kind: kind, payload: string(payload)})
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func wantRecs(t *testing.T, got []recVal, want ...recVal) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ad.wal")
	l := openT(t, path, Options{})
	for _, p := range []string{"aaaa", "bbbb"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Without a checkpoint, replay starts at the first delta.
	wantRecs(t, replayAll(t, l), recVal{RecDelta, "aaaa"}, recVal{RecDelta, "bbbb"})

	if err := l.AppendCheckpoint([]byte("state1")); err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	if err := l.Append([]byte("cccc")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// With a checkpoint, earlier deltas are superseded.
	want := []recVal{{RecCheckpoint, "state1"}, {RecDelta, "cccc"}}
	wantRecs(t, replayAll(t, l), want...)
	if l.Records() != 4 {
		t.Fatalf("Records = %d, want 4", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A clean reopen sees the identical logical state.
	l2 := openT(t, path, Options{})
	defer l2.Close()
	wantRecs(t, replayAll(t, l2), want...)
}

func TestWALReplayIdempotence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l := openT(t, path, Options{})
	defer l.Close()
	if err := l.AppendCheckpoint([]byte("ck")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"d1", "d2", "d3"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	first := replayAll(t, l)
	second := replayAll(t, l)
	wantRecs(t, second, first...)
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l := openT(t, path, Options{})
	if err := l.Append([]byte("keep1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("keep2")); err != nil {
		t.Fatal(err)
	}
	goodSize := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a record header claiming 100 payload
	// bytes with only a few actually written.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{RecDelta, 0, 0, 0, 100, 'x', 'y', 'z'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "")
	l2 := openT(t, path, Options{Metrics: m})
	wantRecs(t, replayAll(t, l2), recVal{RecDelta, "keep1"}, recVal{RecDelta, "keep2"})
	if l2.Size() != goodSize {
		t.Fatalf("Size after torn-tail reopen = %d, want %d", l2.Size(), goodSize)
	}
	if got := m.TornTail.Value(); got != 1 {
		t.Fatalf("torn counter = %d, want 1", got)
	}
	if got := m.Corrupt.Value(); got != 0 {
		t.Fatalf("corrupt counter = %d, want 0 (a torn tail is not mid-file corruption)", got)
	}
	// The log must be appendable again on a clean frame boundary.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatalf("Append after torn-tail recovery: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openT(t, path, Options{})
	defer l3.Close()
	wantRecs(t, replayAll(t, l3),
		recVal{RecDelta, "keep1"}, recVal{RecDelta, "keep2"}, recVal{RecDelta, "after"})
}

// frameLen is the on-disk size of a record with an n-byte payload.
func frameLen(n int) int64 { return int64(recHeaderSize + n + recTrailerSize) }

func TestWALCorruptMiddleSkippedAndCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l := openT(t, path, Options{})
	for _, p := range []string{"aaaa", "bbbb", "cccc"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record. A valid record follows,
	// so the scanner must skip it and count durable.wal.corrupt — not
	// truncate.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize) + frameLen(4) + int64(recHeaderSize) // rec2's first payload byte
	if _, err := f.WriteAt([]byte{'X'}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "")
	l2 := openT(t, path, Options{Metrics: m})
	defer l2.Close()
	wantRecs(t, replayAll(t, l2), recVal{RecDelta, "aaaa"}, recVal{RecDelta, "cccc"})
	if got := m.Corrupt.Value(); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if got := m.TornTail.Value(); got != 0 {
		t.Fatalf("torn counter = %d, want 0", got)
	}
}

func TestWALCorruptLastRecordIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.wal")
	l := openT(t, path, Options{})
	for _, p := range []string{"aaaa", "bbbb"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the final record's payload: with no valid successor this is
	// indistinguishable from a torn write and must be truncated away.
	off := int64(headerSize) + frameLen(4) + int64(recHeaderSize)
	if _, err := f.WriteAt([]byte{'X'}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "")
	l2 := openT(t, path, Options{Metrics: m})
	defer l2.Close()
	wantRecs(t, replayAll(t, l2), recVal{RecDelta, "aaaa"})
	if got := m.TornTail.Value(); got != 1 {
		t.Fatalf("torn counter = %d, want 1", got)
	}
	if got := m.Corrupt.Value(); got != 0 {
		t.Fatalf("corrupt counter = %d, want 0", got)
	}
}

func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "")
	l := openT(t, path, Options{Metrics: m})
	for i := 0; i < 10; i++ {
		if err := l.Append(bytes.Repeat([]byte{'d'}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	if err := l.Compact([]byte("snapshot")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if l.Size() >= before {
		t.Fatalf("Size after compact = %d, want < %d", l.Size(), before)
	}
	if l.Records() != 1 {
		t.Fatalf("Records after compact = %d, want 1", l.Records())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compact left %s.tmp behind (err=%v)", path, err)
	}
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	want := []recVal{{RecCheckpoint, "snapshot"}, {RecDelta, "tail"}}
	wantRecs(t, replayAll(t, l), want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Compactions.Value(); got != 1 {
		t.Fatalf("compactions counter = %d, want 1", got)
	}

	l2 := openT(t, path, Options{})
	defer l2.Close()
	wantRecs(t, replayAll(t, l2), want...)
}

func TestWALSyncPolicies(t *testing.T) {
	for _, every := range []int{0, 1, 3} {
		path := filepath.Join(t.TempDir(), "sync.wal")
		l := openT(t, path, Options{SyncEvery: every})
		for i := 0; i < 7; i++ {
			if err := l.Append([]byte{'p', byte('0' + i)}); err != nil {
				t.Fatalf("SyncEvery=%d Append: %v", every, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2 := openT(t, path, Options{})
		if got := l2.Records(); got != 7 {
			t.Fatalf("SyncEvery=%d: reopened with %d records, want 7", every, got)
		}
		l2.Close()
	}
}

func TestWALRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.wal")
	if err := os.WriteFile(junk, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk, Options{}); err == nil {
		t.Fatal("Open accepted a file with foreign magic")
	}
	vers := filepath.Join(dir, "vers.wal")
	if err := os.WriteFile(vers, []byte{'C', 'M', 'W', 'L', 99, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(vers, Options{}); err == nil {
		t.Fatal("Open accepted an unsupported WAL version")
	}
}

func TestWALMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "durable.wal")
	path := filepath.Join(t.TempDir(), "m.wal")
	l := openT(t, path, Options{Metrics: m})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendCheckpoint([]byte("ck")); err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	if got := m.Appends.Value(); got != 3 {
		t.Fatalf("appends = %d, want 3", got)
	}
	if got := m.Checkpoints.Value(); got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
	if got := m.Replayed.Value(); got != 1 {
		t.Fatalf("replayed = %d, want 1 (checkpoint only)", got)
	}
}

// TestWALSequentialReadReusesOneBuffer pins the one-pass reader behind
// both the open scan and Replay across what a reused payload buffer could
// get wrong: a checkpoint larger than the read-ahead followed by small
// deltas, a delta that makes the buffer grow again, and an empty payload.
// The callback sees each payload intact although it may not retain it.
func TestWALSequentialReadReusesOneBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.wal")
	l := openT(t, path, Options{})
	big := bytes.Repeat([]byte("checkpoint"), 20_000) // 200 kB, past the 64 kB read-ahead
	if err := l.AppendCheckpoint(big); err != nil {
		t.Fatal(err)
	}
	deltas := [][]byte{[]byte("abc"), bytes.Repeat([]byte{'g'}, 300_000), {}, []byte("z")}
	for _, d := range deltas {
		if err := l.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	m := RegisterMetrics(reg, "")
	l2 := openT(t, path, Options{Metrics: m})
	defer l2.Close()
	if got := l2.Records(); got != 1+len(deltas) {
		t.Fatalf("scan indexed %d records, want %d", got, 1+len(deltas))
	}
	if got := m.CheckpointBytes.Value(); got != int64(len(big)) {
		t.Fatalf("checkpoint_bytes after reopen = %d, want %d", got, len(big))
	}
	want := []recVal{{RecCheckpoint, string(big)}}
	for _, d := range deltas {
		want = append(want, recVal{RecDelta, string(d)})
	}
	wantRecs(t, replayAll(t, l2), want...)
}
