package runtime

import (
	"fmt"
	"path/filepath"
	"testing"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/durable"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	"condmon/internal/wire"
)

// wireUpdate encodes u as the delta payload durable.RecoverEvaluator
// replays; encoding only fails on absurd variable names, so panic is fine
// in a test helper.
func wireUpdate(u event.Update) []byte {
	b, err := wire.EncodeUpdate(u)
	if err != nil {
		panic(err)
	}
	return b
}

// The kill-and-restart acceptance gate: a run whose displayer state (AD
// filter + CE history windows) is crashed mid-stream and rebuilt from the
// durable WAL must display exactly what the uninterrupted run displays —
// per condition, same alerts, same order — under every loss schedule, for
// per-update and batched emission. Crashes happen in place (windows cleared
// on the live objects, state replayed from the log) so the per-link RNGs
// keep their position: a whole-process restart would reseed the loss
// schedule and make the comparison meaningless. Disk-truth reopen of the
// same WAL files is covered by the durable package tests and the restart
// smoke script.

// crashHalf selects which displayer state is lost at the midpoint.
type crashHalf struct {
	ce, adf bool
	// recover false is the negative control: state is lost and NOT
	// rebuilt, which must change the displayed stream.
	recover bool
}

// walShape watches journaled AD logs from outside the durable package —
// through their metrics, Records and Size, sampled at quiescent points a
// displayed alert or two apart — for the two log shapes the
// checkpoint policy produces beyond the every-N floor: a log that has been
// through several size-paced (geometric) compactions, and a log whose
// delta tail is as long as the checkpoint it follows, one record short of
// the next compaction. It records the first update index at which each
// shape is on disk, so a suite can crash exactly there.
type walShape struct {
	every int // the compactEvery the logs are journaled with
	logs  []*shapeLog

	afterGeometric int // first index with ≥ 3 geometric compactions behind it, -1 until seen
	longestTail    int // first later index with a full-length tail, -1 until seen
}

type shapeLog struct {
	l *durable.Log
	m *durable.Metrics

	compactions int64 // at the last sample
	ckptAppends int64 // appends journaled before the newest checkpoint
	geometric   int   // compactions that came later than the floor
}

func newWALShape(every int) *walShape {
	return &walShape{every: every, afterGeometric: -1, longestTail: -1}
}

// open opens an AD log with metrics of its own and, on a probe run,
// watches it; a nil walShape just opens the log.
func (w *walShape) open(t *testing.T, path string) *durable.Log {
	t.Helper()
	m := durable.RegisterMetrics(obs.NewRegistry(), "")
	l, err := durable.Open(path, durable.Options{Metrics: m})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", path, err)
	}
	if w != nil {
		w.logs = append(w.logs, &shapeLog{l: l, m: m})
	}
	return l
}

// sample inspects every watched log after update index i has drained.
func (w *walShape) sample(i int) {
	// WAL framing, as documented in docs/RECOVERY.md: an 8-byte file
	// header, 9 bytes around each record payload.
	const fileHeader, recFraming = 8, 9
	for _, s := range w.logs {
		c := s.m.Compactions.Value()
		if c == 0 {
			continue
		}
		// A compacted log is one checkpoint plus the deltas since.
		deltas := int64(s.l.Records() - 1)
		ckptAppends := s.m.Appends.Value() - deltas
		if c != s.compactions {
			if ckptAppends-s.ckptAppends > int64(w.every) {
				s.geometric++
			}
			s.compactions, s.ckptAppends = c, ckptAppends
		}
		if s.geometric >= 3 && w.afterGeometric < 0 {
			w.afterGeometric = i
		}
		if w.afterGeometric < 0 || i <= w.afterGeometric || w.longestTail >= 0 || deltas <= int64(w.every) {
			continue
		}
		frame := recFraming + s.m.CheckpointBytes.Value()
		if tail := s.l.Size() - fileHeader - frame; tail+tail/deltas >= frame {
			w.longestTail = i
		}
	}
}

// crashPoints returns the update counts to crash after: the suite's
// classic midpoint plus the two shapes found by the probe run.
func (w *walShape) crashPoints(t *testing.T, mid int) map[string]int {
	t.Helper()
	if w.afterGeometric < 0 || w.longestTail < 0 {
		t.Fatalf("probe run never reached the size-paced log shapes (after 3 geometric compactions: %d, longest tail: %d); stream too short",
			w.afterGeometric, w.longestTail)
	}
	t.Logf("crash after %d updates (3 geometric compactions behind) and after %d (full-length tail)", w.afterGeometric+1, w.longestTail+1)
	return map[string]int{"mid": mid, "after-geometric": w.afterGeometric + 1, "longest-tail": w.longestTail + 1}
}

// emitEngineHalf interleaves x and y updates over index range [from, to) so
// a midpoint crash leaves every window — shared, straggler, and both
// variables — partially filled. On a per-update probe run it drains after
// every update and lets probe sample the AD logs.
func emitEngineHalf(t *testing.T, ng *Engine, from, to, batch int, probe *walShape) {
	t.Helper()
	vals := func(v event.VarName, i int) float64 {
		phase := int(hashVar(v) % 37)
		return float64(((i + phase) * 13) % 1000)
	}
	if batch <= 1 {
		for i := from; i < to; i++ {
			for _, v := range []event.VarName{"x", "y"} {
				if _, err := ng.Emit(v, vals(v, i)); err != nil {
					t.Fatalf("Emit: %v", err)
				}
				if probe != nil {
					if err := ng.Drain(); err != nil {
						t.Fatalf("Drain: %v", err)
					}
					probe.sample(i)
				}
			}
		}
		return
	}
	for i := from; i < to; i += batch {
		j := i + batch
		if j > to {
			j = to
		}
		for _, v := range []event.VarName{"x", "y"} {
			chunk := make([]float64, 0, j-i)
			for k := i; k < j; k++ {
				chunk = append(chunk, vals(v, k))
			}
			if _, err := ng.EmitBatch(v, chunk); err != nil {
				t.Fatalf("EmitBatch: %v", err)
			}
		}
	}
}

// Parameters of the journaled engine runs.
const (
	engineDurableN       = 400
	engineADCompactEvery = 8
	engineLaneCompact    = 64
)

// runEngineDurable drives one journaled Engine over the interleaved stream,
// draining after the first at rounds and there optionally crashing
// displayer state, and returns the per-condition displayed sequences. A
// non-nil probe watches the AD logs (see emitEngineHalf).
func runEngineDurable(t *testing.T, loss func(int, int, event.VarName) link.Model, batch, at int, crash *crashHalf, probe *walShape) map[string][]event.Alert {
	t.Helper()
	dir := t.TempDir()
	adLogs := make(map[string]*durable.Log)
	laneLogs := make(map[string]*durable.Log)
	openLog := func(name string) *durable.Log {
		l, err := durable.Open(filepath.Join(dir, name+".wal"), durable.Options{})
		if err != nil {
			t.Fatalf("durable.Open(%s): %v", name, err)
		}
		return l
	}
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		l := probe.open(t, filepath.Join(dir, "ad-"+c.Name()+".wal"))
		adLogs[c.Name()] = l
		return durable.LogFilter(ad.NewAD1(), l, engineADCompactEvery)
	}, EngineOptions{
		Replicas: 2, Workers: 4, Seed: 42, Loss: loss,
		Journal: func(shard, replica int, se *ce.SharedEvaluator) func(event.Update) error {
			key := fmt.Sprintf("lane-%d-%d", shard, replica)
			l := openLog(key)
			laneLogs[key] = l
			return durable.LaneJournal(l, se, engineLaneCompact)
		},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	conds := engineFleet()
	for _, c := range conds {
		if _, err := ng.Register(c); err != nil {
			t.Fatalf("Register(%s): %v", c.Name(), err)
		}
	}

	emitEngineHalf(t, ng, 0, at, batch, probe)
	// Drain so the crash point is quiescent and totally ordered after the
	// first part — the same barrier the baseline run crosses.
	if err := ng.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if crash != nil {
		if crash.ce {
			err := ng.VisitLanes(func(shard, replica int, se *ce.SharedEvaluator) error {
				se.Crash()
				if !crash.recover {
					return nil
				}
				key := fmt.Sprintf("lane-%d-%d", shard, replica)
				_, err := durable.RecoverLane(laneLogs[key], se)
				return err
			})
			if err != nil {
				t.Fatalf("VisitLanes crash/recover: %v", err)
			}
		}
		if crash.adf {
			for _, c := range conds {
				l := adLogs[c.Name()]
				raw := ad.NewAD1()
				if crash.recover {
					if _, err := durable.RecoverFilter(l, raw); err != nil {
						t.Fatalf("RecoverFilter(%s): %v", c.Name(), err)
					}
				}
				if err := ng.ReplaceFilter(c.Name(), durable.LogFilter(raw, l, engineADCompactEvery)); err != nil {
					t.Fatalf("ReplaceFilter(%s): %v", c.Name(), err)
				}
			}
		}
	}
	emitEngineHalf(t, ng, at, engineDurableN, batch, probe)
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out := make(map[string][]event.Alert, len(conds))
	for _, c := range conds {
		out[c.Name()] = ng.Demux().DisplayedFor(c.Name())
	}
	for _, l := range adLogs {
		l.Close()
	}
	for _, l := range laneLogs {
		l.Close()
	}
	return out
}

// TestEngineKillRestartEquivalence is the durability acceptance gate at the
// engine level: for every loss schedule, crashing and recovering the CE
// half, the AD half, or both at the midpoint must leave the displayed
// streams identical to the uninterrupted journaled run — which itself must
// display something, or the gate proves nothing.
func TestEngineKillRestartEquivalence(t *testing.T) {
	bern := func(p float64) link.Model {
		m, err := link.NewBernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	schedules := map[string]func(int, int, event.VarName) link.Model{
		"lossless": nil,
		"bernoulli": func(shard, replica int, v event.VarName) link.Model {
			return bern(0.2)
		},
		"burst": func(shard, replica int, v event.VarName) link.Model {
			m, err := link.NewBurst(0.1, 0.5, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"mixed": func(shard, replica int, v event.VarName) link.Model {
			if replica == 0 {
				return bern(0.3)
			}
			return nil
		},
	}
	halves := map[string]crashHalf{
		"ce":   {ce: true, recover: true},
		"ad":   {adf: true, recover: true},
		"both": {ce: true, adf: true, recover: true},
	}
	const mid = engineDurableN / 2
	for name, loss := range schedules {
		t.Run(name, func(t *testing.T) {
			want := runEngineDurable(t, loss, 1, mid, nil, nil)
			fired := 0
			for _, alerts := range want {
				fired += len(alerts)
			}
			if fired == 0 {
				t.Fatal("baseline displayed nothing; stream too tame")
			}
			for half, ch := range halves {
				ch := ch
				got := runEngineDurable(t, loss, 1, mid, &ch, nil)
				compareDisplayed(t, "crash="+half+"/per-update", want, got)
			}
			both := halves["both"]
			// The full crash at the two size-paced AD log shapes.
			probe := newWALShape(engineADCompactEvery)
			runEngineDurable(t, loss, 1, engineDurableN, nil, probe)
			for leg, at := range probe.crashPoints(t, mid) {
				if at == mid {
					continue // covered above
				}
				compareDisplayed(t, "crash=both/"+leg, runEngineDurable(t, loss, 1, at, nil, nil),
					runEngineDurable(t, loss, 1, at, &both, nil))
			}
			// Batched emission with the full crash.
			wantB := runEngineDurable(t, loss, 64, mid, nil, nil)
			compareDisplayed(t, "crash=both/batch=64", wantB,
				runEngineDurable(t, loss, 64, mid, &both, nil))
		})
	}
}

// TestEngineCrashWithoutRecoveryDiverges is the negative control for the
// gate above: losing the CE windows at the midpoint WITHOUT replaying the
// journal must change the displayed stream under the lossless schedule,
// proving the crash point is observable.
func TestEngineCrashWithoutRecoveryDiverges(t *testing.T) {
	want := runEngineDurable(t, nil, 1, engineDurableN/2, nil, nil)
	got := runEngineDurable(t, nil, 1, engineDurableN/2, &crashHalf{ce: true, recover: false}, nil)
	for name, wantAlerts := range want {
		gotAlerts := got[name]
		if len(gotAlerts) != len(wantAlerts) {
			return // diverged, as required
		}
		for i := range wantAlerts {
			if wantAlerts[i].Key() != gotAlerts[i].Key() {
				return
			}
		}
	}
	t.Fatal("unrecovered crash displayed the baseline stream; the equivalence gate proves nothing")
}

// TestSystemKillRestartEquivalence covers the single-condition System's
// hooks: Options.CEJournal, Drain + VisitReplica as the ordered crash
// point, and Displayer.ReplaceFilter for the AD half. The System merges
// per-variable front links nondeterministically, so only a
// single-variable condition with Replicas=1 yields a deterministic
// displayed stream to compare; the multi-variable and multi-replica cases
// are covered by the MultiSystem and Engine tests, whose per-shard
// channels deliver deterministically.
func TestSystemKillRestartEquivalence(t *testing.T) {
	c := cond.MustParse("deep", "x[0] - x[-2] > 150")
	loss := func(replica int, v event.VarName) link.Model {
		m, err := link.NewBernoulli(0.2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const (
		n              = 600
		adCompactEvery = 8
	)
	// run emits n updates, draining after the first at of them and there,
	// with crash set, losing and recovering both halves of the displayer
	// state. A probe run drains after every update so probe sees each
	// displayed alert's effect on the AD log.
	run := func(at int, crash bool, probe *walShape) []event.Alert {
		dir := t.TempDir()
		ceLog, err := durable.Open(filepath.Join(dir, "ce.wal"), durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		adLog := probe.open(t, filepath.Join(dir, "ad.wal"))
		defer ceLog.Close()
		defer adLog.Close()
		sys, err := New(c, durable.LogFilter(ad.NewAD1(), adLog, adCompactEvery), Options{
			Replicas: 1, Seed: 7, Loss: loss,
			CEJournal: func(replica int) func(event.Update) error {
				return func(u event.Update) error { return ceLog.Append(wireUpdate(u)) }
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		emit := func(from, to int) {
			for i := from; i < to; i++ {
				if _, err := sys.Emit("x", float64((i*137)%1000)); err != nil {
					t.Fatalf("Emit: %v", err)
				}
				if probe != nil {
					if err := sys.Drain(); err != nil {
						t.Fatalf("Drain: %v", err)
					}
					probe.sample(i)
				}
			}
		}
		emit(0, at)
		// Drain makes the crash point quiescent end to end: every earlier
		// alert has passed the AD filter, so replaying its log races with
		// nothing. Both runs cross the same barrier.
		if err := sys.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		err = sys.VisitReplica(0, func(ev *ce.Evaluator) error {
			if !crash {
				return nil
			}
			ev.Crash()
			_, err := durable.RecoverEvaluator(ceLog, ev)
			return err
		})
		if err != nil {
			t.Fatalf("VisitReplica: %v", err)
		}
		if crash {
			raw := ad.NewAD1()
			if _, err := durable.RecoverFilter(adLog, raw); err != nil {
				t.Fatalf("RecoverFilter: %v", err)
			}
			sys.Displayer().ReplaceFilter(durable.LogFilter(raw, adLog, adCompactEvery))
		}
		emit(at, n)
		return sys.Close()
	}

	probe := newWALShape(adCompactEvery)
	run(n, false, probe)
	for leg, at := range probe.crashPoints(t, n/2) {
		want := run(at, false, nil)
		if len(want) == 0 {
			t.Fatal("baseline displayed nothing")
		}
		got := run(at, true, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: crash run displayed %d alerts, baseline %d", leg, len(got), len(want))
		}
		for i := range want {
			if want[i].Key() != got[i].Key() {
				t.Fatalf("%s: alert %d: crash run %s, baseline %s", leg, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

// TestMultiSystemKillRestartEquivalence covers the pooled MultiSystem's
// hooks: MultiOptions.CEJournal per station, Drain + VisitStations as the
// ordered crash point, and ReplaceFilter for the AD half, with two replicas
// per condition under a mixed loss schedule.
func TestMultiSystemKillRestartEquivalence(t *testing.T) {
	loss := func(condName string, replica int, v event.VarName) link.Model {
		if replica == 0 {
			m, err := link.NewBernoulli(0.25)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		return nil
	}
	conds := equivConds()
	const (
		n              = 300
		adCompactEvery = 8
	)
	// run emits n rounds of updates, draining after the first at of them
	// and there, with crash set, losing and recovering every station's
	// windows and every condition's filter. A probe run drains after every
	// update so probe sees each displayed alert's effect on the AD logs.
	run := func(at int, crash bool, probe *walShape) map[string][]event.Alert {
		dir := t.TempDir()
		ceLogs := make(map[string]*durable.Log)
		adLogs := make(map[string]*durable.Log)
		sys, err := NewMulti(conds, func(c cond.Condition) ad.Filter {
			l := probe.open(t, filepath.Join(dir, "ad-"+c.Name()+".wal"))
			adLogs[c.Name()] = l
			return durable.LogFilter(ad.NewAD1(), l, adCompactEvery)
		}, MultiOptions{
			Replicas: 2, Seed: 42, Loss: loss,
			CEJournal: func(condName string, replica int) func(event.Update) error {
				key := fmt.Sprintf("ce-%s-%d", condName, replica)
				l, err := durable.Open(filepath.Join(dir, key+".wal"), durable.Options{})
				if err != nil {
					t.Fatalf("durable.Open(%s): %v", key, err)
				}
				ceLogs[key] = l
				return func(u event.Update) error { return l.Append(wireUpdate(u)) }
			},
		})
		if err != nil {
			t.Fatalf("NewMulti: %v", err)
		}
		emit := func(from, to int) {
			for i := from; i < to; i++ {
				for _, v := range []event.VarName{"x", "y"} {
					phase := int(hashVar(v) % 37)
					if _, err := sys.Emit(v, float64(((i+phase)*13)%1000)); err != nil {
						t.Fatalf("Emit: %v", err)
					}
					if probe != nil {
						if err := sys.Drain(); err != nil {
							t.Fatalf("Drain: %v", err)
						}
						probe.sample(i)
					}
				}
			}
		}
		emit(0, at)
		if err := sys.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if crash {
			err := sys.VisitStations(func(condName string, replica int, ev *ce.Evaluator) error {
				ev.Crash()
				l := ceLogs[fmt.Sprintf("ce-%s-%d", condName, replica)]
				_, err := durable.RecoverEvaluator(l, ev)
				return err
			})
			if err != nil {
				t.Fatalf("VisitStations crash/recover: %v", err)
			}
			for _, c := range conds {
				l := adLogs[c.Name()]
				raw := ad.NewAD1()
				if _, err := durable.RecoverFilter(l, raw); err != nil {
					t.Fatalf("RecoverFilter(%s): %v", c.Name(), err)
				}
				if err := sys.ReplaceFilter(c.Name(), durable.LogFilter(raw, l, adCompactEvery)); err != nil {
					t.Fatalf("ReplaceFilter(%s): %v", c.Name(), err)
				}
			}
		}
		emit(at, n)
		if _, err := sys.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		out := make(map[string][]event.Alert, len(conds))
		for _, c := range conds {
			out[c.Name()] = sys.Demux().DisplayedFor(c.Name())
		}
		for _, l := range ceLogs {
			l.Close()
		}
		for _, l := range adLogs {
			l.Close()
		}
		return out
	}

	probe := newWALShape(adCompactEvery)
	run(n, false, probe)
	for leg, at := range probe.crashPoints(t, n/2) {
		want := run(at, false, nil)
		fired := 0
		for _, alerts := range want {
			fired += len(alerts)
		}
		if fired == 0 {
			t.Fatal("baseline displayed nothing")
		}
		compareDisplayed(t, "multisystem/crash="+leg, want, run(at, true, nil))
	}
}
