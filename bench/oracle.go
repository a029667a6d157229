//go:build linux

package main

import (
	"fmt"

	"condmon/internal/audit"
	"condmon/internal/ce"
	"condmon/internal/event"
	"condmon/internal/props"
)

// The oracle runs on every invocation, over the whole run (warm-up
// included — the filters' state starts there), and feeds attempted/failed.
//
// Lossless workloads: every update must reach every replica, and the
// displayed key sequence must equal T over the published stream — ce.T's
// own loop (a fresh evaluator fed in publish order), streamed so a few
// million updates need not be materialized.
//
// Lossy workloads (AD-4): each replica's accepted seqnos are in a bitset;
// T(U_r) is computed from the generated values by arithmetic, not by the
// code under test; every displayed alert must be in T(U1) ∪ T(U2), none
// twice, the sequence ordered and consistent (what AD-4 guarantees, Table
// 2). A prefix of the run is then replayed through ce.T, props.Ordered and
// props.ConsistentSingle themselves, which ties the arithmetic to the
// paper's definitions.

// crossCheckPrefix is how many seqnos of a lossy run are replayed through
// ce.T and the props checkers.
const crossCheckPrefix = 1 << 16

func (f *fleet) verify(sent []int64, o *outcome) {
	var total int64
	for _, n := range sent {
		total += n
	}
	if f.sp.lossP > 0 {
		f.verifyLossy(sent[0], o)
	} else {
		for r := 0; r < 2; r++ {
			o.check(total, total-f.fed[r].Load(), fmt.Sprintf("update deliveries missing on lossless replica CE%d", r+1))
		}
		f.verifyLossless(sent, o)
	}
	if f.aud != nil {
		m := f.aud.Finalize()
		var violated int64
		for _, v := range []audit.Verdict{m.Ordered, m.Complete, m.Consistent} {
			if v == audit.Violated {
				violated++
			}
		}
		o.check(3, violated, "audit matrix cells VIOLATED ("+m.String()+")")
	}
}

// verifyLossless compares the displayed sequence with T(published stream).
func (f *fleet) verifyLossless(sent []int64, o *outcome) {
	eval, err := ce.New("T", f.cond)
	if err != nil {
		o.check(1, 1, "reference evaluators built: "+err.Error())
		return
	}
	width := f.keyWidth()
	var want []int64
	next := make([]int64, len(sent))
	per := int64(f.sp.perDatagram)
	for remaining := true; remaining; {
		remaining = false
		for v, name := range f.sp.vars {
			for i := int64(0); i < per && next[v] < sent[v]; i++ {
				next[v]++
				remaining = true
				a, fired, err := eval.Feed(event.Update{Var: name, SeqNo: next[v], Value: f.in.value(v, next[v])})
				if err != nil {
					o.check(1, 1, "reference evaluations: "+err.Error())
					return
				}
				if !fired {
					continue
				}
				for vi, vn := range f.sp.vars {
					recent := a.Histories[vn].Recent
					for j := 0; j < f.degree[vi]; j++ {
						want = append(want, recent[j].SeqNo)
					}
				}
			}
		}
	}

	// Multiset difference first (what is missing, what is extra), then
	// order: with nothing missing or extra the two must be equal.
	type key [4]int64
	at := func(flat []int64, i int) key {
		var k key
		copy(k[:], flat[i*width:(i+1)*width])
		return k
	}
	nWant, nShown := len(want)/width, len(f.shown)/width
	pending := make(map[key]int, nWant)
	for i := 0; i < nWant; i++ {
		pending[at(want, i)]++
	}
	var extra int64
	for i := 0; i < nShown; i++ {
		k := at(f.shown, i)
		if pending[k] > 0 {
			pending[k]--
		} else {
			extra++
		}
	}
	var missing int64
	for _, n := range pending {
		missing += int64(n)
	}
	o.check(int64(nWant), missing, "reference alerts not displayed")
	o.check(int64(nShown), extra, "displayed alerts not in the reference")
	if missing == 0 && extra == 0 {
		var outOfOrder int64
		for i := range want {
			if want[i] != f.shown[i] {
				outOfOrder = 1
				break
			}
		}
		o.check(1, outOfOrder, "display orders equal to T's")
	}
}

// verifyLossy checks the single-variable, degree-2 storms.
func (f *fleet) verifyLossy(sent int64, o *outcome) {
	_, forced := f.recv[1].Stats()
	o.check(sent, sent-f.accepted[0].count, "update deliveries missing on lossless replica CE1")
	lost := sent - f.accepted[1].count - forced
	if lost < 0 {
		lost = -lost
	}
	o.check(sent, lost, "update deliveries missing on CE2 beyond its forced loss")

	// inT reports whether alert (s0, s1) is in T(U_r): both updates
	// accepted, nothing accepted between them, and the condition true on
	// the generated values.
	inT := func(r int, s0, s1 int64) bool {
		acc := f.accepted[r]
		if s1 < 1 || s1 >= s0 || !acc.has(s0) || !acc.has(s1) {
			return false
		}
		for s := s1 + 1; s < s0; s++ {
			if acc.has(s) {
				return false
			}
		}
		return f.in.value(0, s0)-f.in.value(0, s1) > 1000
	}
	n := len(f.shown) / 2
	var notInT, dups, disordered, conflicts int64
	prevOf := make([]int64, sent+2) // s0 → s1 of the alert displayed for it, 0 = none
	var received, missed bitset
	last := int64(-1)
	for i := 0; i < n; i++ {
		s0, s1 := f.shown[2*i], f.shown[2*i+1]
		if !inT(0, s0, s1) && !inT(1, s0, s1) {
			notInT++
		}
		if s0 < last {
			disordered++
		}
		last = s0
		if s0 < 1 || s0 > sent || s1 < 1 {
			continue
		}
		if prevOf[s0] == s1 {
			dups++
		}
		prevOf[s0] = s1
		// Consistency (props.ConsistentSingle): the window's updates are
		// asserted received, the gap between them asserted missed, and no
		// update may be both.
		for _, s := range []int64{s0, s1} {
			if missed.has(s) {
				conflicts++
			}
			received.set(s)
		}
		for s := s1 + 1; s < s0; s++ {
			if received.has(s) {
				conflicts++
			}
			missed.set(s)
		}
	}
	o.check(int64(n), notInT, "displayed alerts not in T(U1) ∪ T(U2)")
	o.check(int64(n), dups, "displayed alerts that are duplicates")
	o.check(int64(n), disordered, "displayed alerts out of order")
	o.check(int64(n), conflicts, "seqnos asserted both received and missed")
	if n == 0 {
		o.check(1, 1, "storms that displayed anything")
	}
	f.crossCheck(sent, o)
}

// crossCheck replays the run's first crossCheckPrefix seqnos through the
// repository's own definitions: ce.T over each replica's accepted stream,
// and props.Ordered / props.ConsistentSingle over the displayed alerts
// whose windows lie inside the prefix.
func (f *fleet) crossCheck(sent int64, o *outcome) {
	limit := sent
	if limit > crossCheckPrefix {
		limit = crossCheckPrefix
	}
	x := f.sp.vars[0]
	union := make(map[string]struct{})
	for r := 0; r < 2; r++ {
		var us []event.Update
		for s := int64(1); s <= limit; s++ {
			if f.accepted[r].has(s) {
				us = append(us, event.Update{Var: x, SeqNo: s, Value: f.in.value(0, s)})
			}
		}
		alerts, err := ce.T(f.cond, us)
		if err != nil {
			o.check(1, 1, "ce.T replays: "+err.Error())
			return
		}
		for _, a := range alerts {
			union[a.Key()] = struct{}{}
		}
	}
	var shown []event.Alert
	for i := 0; i+1 < len(f.shown); i += 2 {
		s0, s1 := f.shown[i], f.shown[i+1]
		if s0 > limit || s0 < 1 || s1 < 1 {
			continue
		}
		shown = append(shown, event.NewAlert(f.cond.Name(), event.HistorySet{x: event.History{Var: x, Recent: []event.Update{
			{Var: x, SeqNo: s0, Value: f.in.value(0, s0)},
			{Var: x, SeqNo: s1, Value: f.in.value(0, s1)},
		}}}, ""))
	}
	var notInT int64
	for _, a := range shown {
		if _, ok := union[a.Key()]; !ok {
			notInT++
		}
	}
	o.check(int64(len(shown)), notInT, "displayed alerts of the prefix not in ce.T(U1) ∪ ce.T(U2)")
	o.check(1, boolCount(!props.Ordered(shown, f.sp.vars)), "props.Ordered verdicts true on the prefix")
	o.check(1, boolCount(!props.ConsistentSingle(shown)), "props.ConsistentSingle verdicts true on the prefix")
}

// verify checks the engine: every update injected, and the displayed
// totals — overall and for 64 sampled conditions — equal to counts computed
// from the generated values by arithmetic. AD-1 over two lossless replica
// lanes displays each fired (condition, seqno) once and suppresses its
// twin.
func (ef *engineFleet) verify(sent []int64, o *outcome) {
	var total int64
	for _, n := range sent {
		total += n
	}
	o.check(total, total-ef.injected.Load(), "update deliveries missing at the engine")

	want := make([]int64, len(ef.conds))
	nv := len(ef.sp.vars)
	for v := range ef.sp.vars {
		prev := 0.0
		for s := int64(1); s <= sent[v]; s++ {
			val := ef.in.value(v, s)
			if val > 990 {
				// Thresholds of this variable that a value under 1064 can
				// exceed: limits 1000+i for i ≡ v (mod 16), i < 64.
				for i := v; i < 64; i += nv {
					if val > 1000+float64(i) {
						want[i]++
					}
				}
				if s >= 2 {
					for j := v; j < engineStragglers; j += nv {
						if val-prev > float64(990+j%8) {
							want[engineThresholds+j]++
						}
					}
				}
			}
			prev = val
		}
	}
	var wantTotal int64
	for _, n := range want {
		wantTotal += n
	}
	demux := ef.eng.Demux()
	got := int64(demux.DisplayedCount())
	diff := wantTotal - got
	if diff < 0 {
		diff = -diff
	}
	o.check(wantTotal, diff, fmt.Sprintf("displayed alerts off the arithmetic total (want %d, got %d)", wantTotal, got))
	o.check(1, boolCount(int64(demux.Suppressed()) != got), "suppressed counts equal to displayed (each alert offered by both lanes)")
	o.check(1, boolCount(demux.Fenced() != 0), "runs without fenced alerts")

	index := make(map[string]int, len(ef.sample))
	for k, i := range ef.sample {
		index[ef.conds[i].Name()] = k
	}
	shown := make([]int64, len(ef.sample))
	for _, a := range demux.Displayed() {
		if k, ok := index[a.Cond]; ok {
			shown[k]++
		}
	}
	var off int64
	for k, i := range ef.sample {
		if shown[k] != want[i] {
			off++
		}
	}
	o.check(int64(len(ef.sample)), off, "sampled conditions off their arithmetic displayed count")
}
