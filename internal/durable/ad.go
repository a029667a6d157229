// Alert Displayer durability: a write-ahead wrapper around any ad.Filter
// plus the matching recovery routine. Deltas are the displayed alerts
// themselves (wire 'A' frames), checkpoints are the filter's opaque
// ad.Snapshotter blob.
package durable

import (
	"fmt"

	"condmon/internal/ad"
	"condmon/internal/event"
	"condmon/internal/wire"
)

// LoggedFilter journals every displayed alert through a WAL before the
// wrapped filter's evidence changes. The write-ahead order errs toward
// suppression: if the process dies between the append and the in-memory
// Accept, replay treats the alert as displayed, so a restart can at worst
// fail to re-show an alert the user may not have seen — indistinguishable
// from front-link loss, which the paper's properties already tolerate —
// and never re-displays a duplicate.
//
// ad.Filter.Accept has no error return, so the first WAL failure is
// stashed, counted in durable.wal.errors and exposed via Err; filtering
// continues in-memory-only after that, and the caller polls Err to say so
// when it happens.
type LoggedFilter struct {
	inner        ad.Filter
	snap         ad.Snapshotter // nil when inner cannot checkpoint
	log          *Log
	compactEvery int
	buf          []byte // delta scratch, reused across accepts
	err          error
}

// LogFilter wraps f so every displayed alert is journaled to l. When f
// (or anything it wraps, via Unwrap chains) implements ad.Snapshotter and
// compactEvery > 0, the log is compacted to a single checkpoint whenever
// the log's policy says the deltas since the last one have paid for it —
// at least compactEvery of them, and at least as many bytes as that
// checkpoint (see Log.compactionDue); otherwise the log only ever grows by
// deltas.
func LogFilter(f ad.Filter, l *Log, compactEvery int) *LoggedFilter {
	snap, _ := FilterSnapshotter(f)
	return &LoggedFilter{inner: f, snap: snap, log: l, compactEvery: compactEvery}
}

// Name reports the wrapped filter's name.
func (f *LoggedFilter) Name() string { return f.inner.Name() }

// Test delegates to the wrapped filter without touching the log: testing
// changes no evidence, so there is nothing to persist.
func (f *LoggedFilter) Test(a event.Alert) bool { return f.inner.Test(a) }

// Accept journals a as a delta record, then updates the wrapped filter's
// evidence, then compacts if a checkpoint is due. The
// compact-before-accept hazard does not arise here: at compaction time the
// in-memory state already includes a, so the checkpoint supersedes the
// just-written delta rather than losing it.
func (f *LoggedFilter) Accept(a event.Alert) {
	if f.err == nil {
		var err error
		if f.buf, err = wire.AppendAlert(f.buf[:0], a); err == nil {
			err = f.log.Append(f.buf)
		}
		if err != nil {
			f.fail("journal alert", err)
		}
	}
	f.inner.Accept(a)
	if f.err == nil && f.snap != nil {
		if err := f.log.checkpointIfDue(f.compactEvery, f.snap.Snapshot); err != nil {
			f.fail("checkpoint", err)
		}
	}
}

// fail records the failure that ends journaling.
func (f *LoggedFilter) fail(op string, err error) {
	f.err = fmt.Errorf("durable: %s for %s: %w", op, f.inner.Name(), err)
	f.log.opts.Metrics.incErrors()
}

// Err reports the first WAL failure encountered on the accept path, or
// nil while journaling is healthy.
func (f *LoggedFilter) Err() error { return f.err }

// Unwrap exposes the journaled filter so snapshot-aware callers (the
// runtime Displayer, conformance tests) can reach through the wrapper.
func (f *LoggedFilter) Unwrap() ad.Filter { return f.inner }

// Snapshot passes through to the wrapped filter's Snapshotter.
func (f *LoggedFilter) Snapshot() ([]byte, error) {
	if f.snap == nil {
		return nil, fmt.Errorf("durable: filter %s does not snapshot", f.inner.Name())
	}
	return f.snap.Snapshot()
}

// Restore passes through to the wrapped filter's Snapshotter.
func (f *LoggedFilter) Restore(data []byte) error {
	if f.snap == nil {
		return fmt.Errorf("durable: filter %s does not snapshot", f.inner.Name())
	}
	return f.snap.Restore(data)
}

// RecoverFilter replays l into f: checkpoint records restore the filter's
// snapshot, delta records re-offer the alerts that were displayed before
// the crash (re-offering reproduces the original evidence trajectory —
// each replayed alert passed Test at the same point of the same history).
// It returns the number of records applied. Call it on a freshly
// constructed filter of the same algorithm and variable set, before
// wrapping with LogFilter and before the filter sees live traffic.
func RecoverFilter(l *Log, f ad.Filter) (int, error) {
	snap, _ := FilterSnapshotter(f)
	return l.Replay(func(kind byte, payload []byte) error {
		switch kind {
		case RecCheckpoint:
			if snap == nil {
				return fmt.Errorf("durable: filter %s cannot restore a checkpoint", f.Name())
			}
			return snap.Restore(payload)
		case RecDelta:
			a, rest, err := wire.DecodeAlert(payload)
			if err != nil {
				return fmt.Errorf("durable: decode alert delta: %w", err)
			}
			if len(rest) != 0 {
				return fmt.Errorf("durable: %d trailing bytes after alert delta", len(rest))
			}
			ad.Offer(f, a)
			return nil
		default:
			return fmt.Errorf("durable: unknown record kind %q", kind)
		}
	})
}

// FilterSnapshotter finds the ad.Snapshotter behind f, following Unwrap
// chains through instrumentation and journaling wrappers.
func FilterSnapshotter(f ad.Filter) (ad.Snapshotter, bool) {
	for f != nil {
		if s, ok := f.(ad.Snapshotter); ok {
			return s, true
		}
		u, ok := f.(interface{ Unwrap() ad.Filter })
		if !ok {
			return nil, false
		}
		f = u.Unwrap()
	}
	return nil, false
}
