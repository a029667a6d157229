// Condition Evaluator durability: journal sinks that log every accepted
// update as a WAL delta (wire 'U' frames), checkpoint snapshots of window
// state, and the matching recovery routines for plain evaluators and
// shared engine lanes.
package durable

import (
	"fmt"

	"condmon/internal/ce"
	"condmon/internal/event"
	"condmon/internal/wire"
)

// SnapshotEvaluator serializes e's window state as a checkpoint payload.
func SnapshotEvaluator(e *ce.Evaluator) []byte {
	return AppendEvalState(nil, EvalState{Windows: e.WindowStates()})
}

// RestoreEvaluator loads a checkpoint payload produced by
// SnapshotEvaluator back into e.
func RestoreEvaluator(e *ce.Evaluator, blob []byte) error {
	st, err := DecodeEvalState(blob)
	if err != nil {
		return err
	}
	return e.RestoreWindows(st.Windows)
}

// RecoverEvaluator replays l into e — checkpoints restore window state,
// deltas re-absorb the journaled updates — and returns the number of
// records applied. Call it on an evaluator whose windows are empty (fresh
// or crashed) before it sees live traffic.
func RecoverEvaluator(l *Log, e *ce.Evaluator) (int, error) {
	return l.Replay(func(kind byte, payload []byte) error {
		switch kind {
		case RecCheckpoint:
			return RestoreEvaluator(e, payload)
		case RecDelta:
			u, err := decodeUpdateDelta(payload)
			if err != nil {
				return err
			}
			e.Absorb(u)
			return nil
		default:
			return fmt.Errorf("durable: unknown record kind %q", kind)
		}
	})
}

// EvaluatorJournal builds a ce.Evaluator journal sink backed by l: each
// accepted update is appended as a delta, and — when compactEvery > 0 —
// the log is compacted to a single checkpoint whenever the log's policy
// says one is due (at least compactEvery deltas and as many delta bytes as
// the last checkpoint; window state is O(1), so in practice every
// compactEvery). Compaction runs before the append, so the delta of the
// update currently being journaled always survives the rewrite: the
// evaluator has already applied it, the checkpoint includes it, and the
// delta replays as a harmless stale push. Attach the result with
// e.SetJournal.
func EvaluatorJournal(l *Log, e *ce.Evaluator, compactEvery int) func(event.Update) error {
	return updateJournal(l, compactEvery, func() ([]byte, error) { return SnapshotEvaluator(e), nil })
}

// updateJournal is the sink behind EvaluatorJournal and LaneJournal:
// checkpoint if due, then append u as a delta. Every failure is counted in
// durable.wal.errors and returned, which fails the Feed that carried u.
func updateJournal(l *Log, compactEvery int, snapshot func() ([]byte, error)) func(event.Update) error {
	var buf []byte
	return func(u event.Update) error {
		err := l.checkpointIfDue(compactEvery, snapshot)
		if err == nil {
			buf, err = wire.AppendUpdate(buf[:0], u)
		}
		if err == nil {
			err = l.Append(buf)
		}
		if err != nil {
			l.opts.Metrics.incErrors()
		}
		return err
	}
}

// SnapshotLane serializes a shared lane's state — shared windows plus
// every straggler's private windows — as a checkpoint payload.
func SnapshotLane(se *ce.SharedEvaluator) []byte {
	st := LaneState{Shared: se.SharedWindowStates()}
	se.VisitStragglers(func(ev *ce.Evaluator) {
		st.Stragglers = append(st.Stragglers, StragglerState{
			Cond:    ev.Condition().Name(),
			Windows: ev.WindowStates(),
		})
	})
	return AppendLaneState(nil, st)
}

// RestoreLane loads a checkpoint payload produced by SnapshotLane back
// into se. Stragglers named in the checkpoint but no longer registered
// are skipped, matching the lane's lenient recovery contract.
func RestoreLane(se *ce.SharedEvaluator, blob []byte) error {
	st, err := DecodeLaneState(blob)
	if err != nil {
		return err
	}
	if err := se.RestoreSharedWindows(st.Shared); err != nil {
		return err
	}
	for _, sg := range st.Stragglers {
		ev := se.StragglerFor(sg.Cond)
		if ev == nil {
			continue
		}
		if err := ev.RestoreWindows(sg.Windows); err != nil {
			return err
		}
	}
	return nil
}

// RecoverLane replays l into se, the lane counterpart of
// RecoverEvaluator. The lane's registration set must match the journaled
// run for the replayed deliveries to reproduce the same windows.
func RecoverLane(l *Log, se *ce.SharedEvaluator) (int, error) {
	return l.Replay(func(kind byte, payload []byte) error {
		switch kind {
		case RecCheckpoint:
			return RestoreLane(se, payload)
		case RecDelta:
			u, err := decodeUpdateDelta(payload)
			if err != nil {
				return err
			}
			se.Absorb(u)
			return nil
		default:
			return fmt.Errorf("durable: unknown record kind %q", kind)
		}
	})
}

// LaneJournal builds a SharedEvaluator journal sink backed by l. Unlike
// EvaluatorJournal, the lane journals each delivery before applying it, so
// here the compact-before-append ordering is load-bearing: compacting
// after the append would write a checkpoint that predates the just-logged
// update while discarding its delta, silently losing it. Attach with
// se.SetJournal.
func LaneJournal(l *Log, se *ce.SharedEvaluator, compactEvery int) func(event.Update) error {
	return updateJournal(l, compactEvery, func() ([]byte, error) { return SnapshotLane(se), nil })
}

func decodeUpdateDelta(payload []byte) (event.Update, error) {
	u, rest, err := wire.DecodeUpdate(payload)
	if err != nil {
		return event.Update{}, fmt.Errorf("durable: decode update delta: %w", err)
	}
	if len(rest) != 0 {
		return event.Update{}, fmt.Errorf("durable: %d trailing bytes after update delta", len(rest))
	}
	return u, nil
}
