// Package durable persists displayer evidence across process restarts.
//
// The paper's property guarantees (Tables 1-3) hang off exactly two pieces
// of in-memory state: the Alert Displayer's filter evidence (dedup keys,
// Received/Missed sets behind ad.Snapshotter) and the Condition Evaluators'
// per-variable history windows. This package gives both a write-ahead log
// with periodic compacting checkpoints, so a killed and restarted AD or CE
// process reloads its evidence and resumes mid-stream instead of replaying
// from genesis.
//
// The on-disk format is a single append-only file per component:
//
//	header:  "CMWL" magic, one version byte, three reserved bytes
//	record:  [1B kind][4B big-endian payload length][payload][4B CRC32-C]
//
// Record kinds are RecCheckpoint ('C', a full state snapshot) and RecDelta
// ('D', one incremental event: a displayed alert for AD logs, an accepted
// update for CE logs). The CRC is Castagnoli, computed over kind + length +
// payload. On reopen the log is scanned front to back: a damaged record
// followed by at least one valid record is skipped and counted as corrupt
// (a torn middle cannot happen under append-only writes, so this indicates
// media damage); damaged or incomplete bytes at the tail are the signature
// of a torn write during a crash and are truncated away. Replay starts at
// the newest checkpoint — everything before it is superseded.
package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"condmon/internal/obs"
)

const (
	walMagic   = "CMWL"
	walVersion = 1

	headerSize     = 8 // magic + version + reserved
	recHeaderSize  = 5 // kind + payload length
	recTrailerSize = 4 // CRC32-C

	// maxRecordSize bounds one payload so a corrupted length field can
	// never drive the scanner into a multi-gigabyte allocation.
	maxRecordSize = 1 << 28
)

// Record kinds stored in a WAL frame.
const (
	// RecCheckpoint carries a full serialized state snapshot; replay
	// restores it and then applies only the deltas that follow.
	RecCheckpoint byte = 'C'
	// RecDelta carries one incremental event to re-apply on top of the
	// latest checkpoint (or an empty state if none exists).
	RecDelta byte = 'D'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics holds the nil-safe counters a Log reports into. A nil *Metrics
// (or any nil field) disables that measurement without branching at call
// sites, matching the repo-wide observability contract.
type Metrics struct {
	// Appends counts delta records written (durable.wal.appends).
	Appends *obs.Counter
	// Checkpoints counts checkpoint records written, whether appended or
	// via compaction (durable.wal.checkpoints).
	Checkpoints *obs.Counter
	// Compactions counts whole-file compactions (durable.wal.compactions).
	Compactions *obs.Counter
	// Corrupt counts CRC-damaged mid-file records skipped during an open
	// scan (durable.wal.corrupt).
	Corrupt *obs.Counter
	// TornTail counts reopens that truncated an incomplete or damaged
	// tail left by a crash mid-write (durable.wal.torn).
	TornTail *obs.Counter
	// Replayed counts records delivered to Replay callbacks
	// (durable.wal.replayed).
	Replayed *obs.Counter
	// Errors counts journal failures — an append, snapshot or compaction
	// that returned an error (durable.wal.errors). A LoggedFilter stops
	// journaling at its first, so there it reads 0 or 1.
	Errors *obs.Counter
	// CheckpointNs times each policy-driven checkpoint, snapshot plus
	// compaction (durable.wal.checkpoint_ns): the stall the journaling
	// goroutine pays when a compaction falls due.
	CheckpointNs *obs.Histogram
	// CheckpointBytes is the payload size of the newest checkpoint record
	// (durable.wal.checkpoint_bytes).
	CheckpointBytes *obs.Gauge
}

func (m *Metrics) incAppends() {
	if m != nil && m.Appends != nil {
		m.Appends.Inc()
	}
}

func (m *Metrics) incCheckpoints() {
	if m != nil && m.Checkpoints != nil {
		m.Checkpoints.Inc()
	}
}

func (m *Metrics) incCompactions() {
	if m != nil && m.Compactions != nil {
		m.Compactions.Inc()
	}
}

func (m *Metrics) addCorrupt(n int64) {
	if m != nil && m.Corrupt != nil {
		m.Corrupt.Add(n)
	}
}

func (m *Metrics) incTornTail() {
	if m != nil && m.TornTail != nil {
		m.TornTail.Inc()
	}
}

func (m *Metrics) incReplayed() {
	if m != nil && m.Replayed != nil {
		m.Replayed.Inc()
	}
}

func (m *Metrics) incErrors() {
	if m != nil {
		m.Errors.Inc()
	}
}

func (m *Metrics) observeCheckpoint(d time.Duration) {
	if m != nil {
		m.CheckpointNs.ObserveDuration(d)
	}
}

func (m *Metrics) setCheckpointBytes(n int64) {
	if m != nil {
		m.CheckpointBytes.Set(n)
	}
}

// RegisterMetrics creates the durable.wal.* metric family on reg and
// returns a Metrics wired to it. A nil registry returns nil, which every
// Log method tolerates.
func RegisterMetrics(reg *obs.Registry, prefix string) *Metrics {
	if reg == nil {
		return nil
	}
	if prefix == "" {
		prefix = "durable.wal"
	}
	return &Metrics{
		Appends:     reg.Counter(prefix + ".appends"),
		Checkpoints: reg.Counter(prefix + ".checkpoints"),
		Compactions: reg.Counter(prefix + ".compactions"),
		Corrupt:     reg.Counter(prefix + ".corrupt"),
		TornTail:    reg.Counter(prefix + ".torn"),
		Replayed:    reg.Counter(prefix + ".replayed"),
		Errors:      reg.Counter(prefix + ".errors"),
		// 100 µs to 10 s by decades: a checkpoint of O(1) state takes a
		// few hundred microseconds, one of a million displayed alerts a
		// few hundred milliseconds.
		CheckpointNs: reg.Histogram(prefix+".checkpoint_ns",
			100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000),
		CheckpointBytes: reg.Gauge(prefix + ".checkpoint_bytes"),
	}
}

// Options configures a Log's durability/throughput trade-off and its
// observability hookup.
type Options struct {
	// SyncEvery is the fsync policy for delta appends: 1 fsyncs after
	// every record (strongest, slowest), N>1 after every N records, and
	// 0 leaves delta persistence to the OS page cache (a crash may lose
	// the most recent deltas, which the recovery model treats exactly
	// like front-link loss). Checkpoints, compactions, and Close always
	// fsync regardless of this setting.
	SyncEvery int
	// Metrics receives the durable.wal.* counters; nil disables them.
	Metrics *Metrics
}

// Log is a single-component write-ahead log: an append-only file of
// CRC-framed checkpoint and delta records. A Log is safe for concurrent use
// by multiple goroutines — in a live system the appending side (the AD
// accept path, the CE feed loop) and the recovering side (a Replay swapping
// in rebuilt state) may run on different goroutines. Replay holds the
// log's lock for its duration, so its callback must not call back into the
// same Log.
type Log struct {
	path string
	opts Options

	mu    sync.Mutex
	f     *os.File
	end   int64 // offset one past the last valid record
	nrecs int   // valid records in the file
	// The newest checkpoint's frame is [ckptOff, tail) — empty at
	// headerSize while the log has none — and deltas counts the delta
	// records in the run [tail, end) that follows it. Replay starts at
	// ckptOff; the compaction policy weighs the run against the frame.
	// All three are re-derived by the open scan, so the cadence carries
	// across restarts.
	ckptOff int64
	tail    int64
	deltas  int
	pending int    // appends since the last fsync
	buf     []byte // frame scratch, reused across appends
}

// Open opens (creating if absent) the WAL at path and scans it for valid
// records, truncating any torn tail left by a crash. The returned Log is
// positioned to append.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	l := &Log{path: path, f: f, opts: opts, end: headerSize, ckptOff: headerSize, tail: headerSize}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan validates the header, indexes every intact record, counts and skips
// mid-file corruption, and truncates a torn tail.
func (l *Log) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("durable: stat %s: %w", l.path, err)
	}
	size := info.Size()
	if size < headerSize {
		// Empty file, or a crash tore even the header: start fresh.
		if err := l.writeHeader(); err != nil {
			return err
		}
		if size != 0 {
			l.opts.Metrics.incTornTail()
		}
		return nil
	}
	var hdr [headerSize]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("durable: read header %s: %w", l.path, err)
	}
	if string(hdr[:4]) != walMagic {
		return fmt.Errorf("durable: %s is not a condmon WAL (bad magic)", l.path)
	}
	if hdr[4] != walVersion {
		return fmt.Errorf("durable: %s: unsupported WAL version %d (want %d)", l.path, hdr[4], walVersion)
	}

	corrupt, err := l.walk(headerSize, size, func(off int64, kind byte, payload []byte) error {
		l.note(off, kind, len(payload))
		return nil
	})
	if err != nil {
		return err
	}
	l.opts.Metrics.addCorrupt(corrupt)
	if l.end < size {
		// Torn or trailing-damaged bytes: drop them so the next append
		// starts on a clean frame boundary.
		if err := l.f.Truncate(l.end); err != nil {
			return fmt.Errorf("durable: truncate torn tail %s: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync %s: %w", l.path, err)
		}
		l.opts.Metrics.incTornTail()
	}
	return nil
}

// walk reads the frames in [from, to) front to back through one buffered
// sequential pass and calls fn for each intact record. payload is valid
// only until fn returns: one buffer is reused for every record. walk
// returns the number of CRC-damaged records that an intact one followed —
// mid-file corruption, which it skips. Damage with no intact successor is
// a torn tail: the walk simply ends before to. fn's first error stops the
// walk and is returned as is.
func (l *Log) walk(from, to int64, fn func(off int64, kind byte, payload []byte) error) (corrupt int64, err error) {
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, from, to-from), 64<<10)
	var (
		h       [recHeaderSize]byte
		buf     []byte
		damaged int64 // damaged records awaiting an intact successor
	)
	// A remainder too short for an empty frame is an incomplete header.
	for off := from; off+recHeaderSize+recTrailerSize <= to; {
		if _, err := io.ReadFull(r, h[:]); err != nil {
			return corrupt, fmt.Errorf("durable: read %s: %w", l.path, err)
		}
		kind := h[0]
		plen := int64(binary.BigEndian.Uint32(h[1:]))
		if (kind != RecCheckpoint && kind != RecDelta) || plen > maxRecordSize {
			// Unrecognizable framing: record boundaries are lost from
			// here on, so the rest of the range is a torn tail.
			break
		}
		recEnd := off + recHeaderSize + plen + recTrailerSize
		if recEnd > to {
			break // payload runs past the end: torn tail
		}
		// Bounded by the check above: never more than the file holds.
		if n := int(plen) + recTrailerSize; cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return corrupt, fmt.Errorf("durable: read %s: %w", l.path, err)
		}
		sum := crc32.Update(crc32.Checksum(h[:], castagnoli), castagnoli, buf[:plen])
		if sum != binary.BigEndian.Uint32(buf[plen:]) {
			// Framing is intact but the contents are damaged. Whether this
			// is mid-file corruption (skip) or a torn tail (truncate)
			// depends on whether an intact record follows.
			damaged++
			off = recEnd
			continue
		}
		corrupt += damaged
		damaged = 0
		if err := fn(off, kind, buf[:plen]); err != nil {
			return corrupt, err
		}
		off = recEnd
	}
	return corrupt, nil
}

// note indexes one valid record of the given payload length at off, the
// bookkeeping shared by the open scan and the write paths.
func (l *Log) note(off int64, kind byte, plen int) {
	l.nrecs++
	l.end = off + recHeaderSize + int64(plen) + recTrailerSize
	if kind == RecCheckpoint {
		l.ckptOff, l.tail, l.deltas = off, l.end, 0
		l.opts.Metrics.setCheckpointBytes(int64(plen))
	} else {
		l.deltas++
	}
}

func (l *Log) writeHeader() error {
	var hdr [headerSize]byte
	copy(hdr[:], walMagic)
	hdr[4] = walVersion
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncate %s: %w", l.path, err)
	}
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("durable: write header %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", l.path, err)
	}
	return nil
}

// Append writes one delta record and applies the SyncEvery policy.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(RecDelta, payload); err != nil {
		return err
	}
	l.opts.Metrics.incAppends()
	return l.maybeSync()
}

// AppendCheckpoint writes one checkpoint record in place (without
// discarding history — see Compact for that) and fsyncs unconditionally:
// a checkpoint that is not durable is worse than none, because replay
// would trust it over the deltas it supersedes.
func (l *Log) AppendCheckpoint(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(RecCheckpoint, payload); err != nil {
		return err
	}
	l.opts.Metrics.incCheckpoints()
	return l.sync()
}

func (l *Log) append(kind byte, payload []byte) error {
	if len(payload) > maxRecordSize {
		return fmt.Errorf("durable: %s: record payload %d exceeds %d bytes", l.path, len(payload), maxRecordSize)
	}
	l.buf = l.buf[:0]
	l.buf = append(l.buf, kind)
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = append(l.buf, payload...)
	l.buf = binary.BigEndian.AppendUint32(l.buf, crc32.Checksum(l.buf, castagnoli))
	if _, err := l.f.WriteAt(l.buf, l.end); err != nil {
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	l.note(l.end, kind, len(payload))
	return nil
}

func (l *Log) maybeSync() error {
	if l.opts.SyncEvery <= 0 {
		return nil
	}
	l.pending++
	if l.pending >= l.opts.SyncEvery {
		return l.sync()
	}
	return nil
}

func (l *Log) sync() error {
	l.pending = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", l.path, err)
	}
	return nil
}

// compactionDue is the checkpoint policy every journal shares: a rewrite
// is due once the delta run since the newest checkpoint holds at least
// every records and at least as many bytes as that checkpoint's frame.
// The first term is the floor a caller asks for; the second makes the
// cost amortised O(1) per record whatever the state does — a checkpoint
// is only ever replaced after as many delta bytes as it holds, so the
// checkpoint bytes written never exceed the delta bytes written plus the
// last checkpoint; state that grows with the stream is checkpointed at
// geometrically spaced points, and state of constant size keeps the plain
// every-N cadence. It bounds the file at twice the newest checkpoint plus
// every deltas, and a replay at one checkpoint plus as many delta bytes
// (or every deltas, if that is more).
func (l *Log) compactionDue(every int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return every > 0 && l.deltas >= every && l.end-l.tail >= l.tail-l.ckptOff
}

// checkpointIfDue compacts the log to the state snapshot returns when
// compactionDue says so, timing the stall it costs the caller.
func (l *Log) checkpointIfDue(every int, snapshot func() ([]byte, error)) error {
	if !l.compactionDue(every) {
		return nil
	}
	start := time.Now()
	blob, err := snapshot()
	if err == nil {
		err = l.Compact(blob)
	}
	l.opts.Metrics.observeCheckpoint(time.Since(start))
	return err
}

// Compact rewrites the log as a header plus a single checkpoint record,
// discarding all prior history. The new file is written to a temporary
// sibling, fsynced, and renamed over the log path, so a crash at any point
// leaves either the complete old log or the complete new one.
func (l *Log) Compact(checkpoint []byte) error {
	if len(checkpoint) > maxRecordSize {
		return fmt.Errorf("durable: compact %s: checkpoint %d exceeds %d bytes", l.path, len(checkpoint), maxRecordSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".tmp"
	g, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact %s: %w", l.path, err)
	}
	// File header and record header share one small buffer; the payload,
	// which can run to megabytes, is written from the caller's slice.
	var head [headerSize + recHeaderSize]byte
	copy(head[:], walMagic)
	head[4] = walVersion
	rec := head[headerSize:]
	rec[0] = RecCheckpoint
	binary.BigEndian.PutUint32(rec[1:], uint32(len(checkpoint)))
	var trailer [recTrailerSize]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Update(crc32.Checksum(rec, castagnoli), castagnoli, checkpoint))
	for _, part := range [][]byte{head[:], checkpoint, trailer[:]} {
		if _, err = g.Write(part); err != nil {
			break
		}
	}
	if err == nil {
		err = g.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		g.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: compact %s: %w", l.path, err)
	}
	// Make the rename itself durable; failure here is tolerable (the
	// rename is atomic in the filesystem's journal on the platforms we
	// target), so best effort.
	if d, err := os.Open(filepath.Dir(l.path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	l.f.Close()
	l.f = g
	l.nrecs = 0
	l.note(headerSize, RecCheckpoint, len(checkpoint))
	l.pending = 0
	l.opts.Metrics.incCheckpoints()
	l.opts.Metrics.incCompactions()
	return nil
}

// Replay streams the log's logical contents to fn in order, starting at
// the newest checkpoint (records before it are superseded; with no
// checkpoint, every delta from the beginning). It returns the number of
// records delivered; fn's first error stops the replay and is returned.
// fn must not retain payload: it aliases a read buffer that the next
// record overwrites.
func (l *Log) Replay(fn func(kind byte, payload []byte) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	_, err := l.walk(l.ckptOff, l.end, func(_ int64, kind byte, payload []byte) error {
		if err := fn(kind, payload); err != nil {
			return err
		}
		n++
		l.opts.Metrics.incReplayed()
		return nil
	})
	return n, err
}

// Records reports how many valid records the log currently holds.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nrecs
}

// Size reports the byte length of the valid portion of the log file.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Sync forces an fsync regardless of the SyncEvery policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sync()
}

// Close fsyncs and closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return fmt.Errorf("durable: close %s: %w", l.path, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("durable: close %s: %w", l.path, closeErr)
	}
	return nil
}
