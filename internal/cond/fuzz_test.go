package cond

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"condmon/internal/event"
)

// FuzzParse ensures the DSL front end never panics and that every
// expression it accepts can actually be evaluated on a sufficient history
// set without internal errors (other than the documented runtime division
// by zero).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"x[0] > 3000",
		"x[0] - x[-1] > 200 && consecutive(x)",
		"abs(x[0] - y[0]) > 100",
		"seqno(x, 0) == seqno(x, -1) + 1",
		"min(x[0], y[0]) >= max(x[-1], 0) || !(x[0] == 0)",
		"x[0] / x[-1] > 2",
		"((x[0]))>((0))",
		"x[0] >",
		"x[0] > 3..0",
		"x > 3",
		"🎉[0] > 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		// Build a history set deep enough for every variable and evaluate;
		// the only acceptable evaluation error is division by zero (values
		// here are all non-zero, so even that should not occur... except
		// through subtraction producing zero denominators).
		h := make(event.HistorySet, len(c.Vars()))
		for _, v := range c.Vars() {
			d := c.Degree(v)
			hist := event.History{Var: v}
			for i := 0; i < d; i++ {
				hist.Recent = append(hist.Recent, event.U(v, int64(d-i+1), float64(3+i)))
			}
			h[v] = hist
		}
		fired, err := c.Eval(h)
		if err != nil {
			if _, ok := err.(*SyntaxError); ok {
				t.Fatalf("syntax error surfaced at eval time: %v", err)
			}
			// Runtime errors (division by zero) are allowed.
		}
		// The compiled program is a differential oracle pair with the
		// tree-walking interpreter: both must agree on (fired, error).
		cfired, cerr := c.Bind().Eval(h)
		if cfired != fired || (cerr == nil) != (err == nil) {
			t.Fatalf("compiled/interpreted divergence on %q:\n  interpreted (%v, %v)\n  compiled    (%v, %v)",
				src, fired, err, cfired, cerr)
		}
		// Gapped seqnos exercise consecutive() and the degree-based
		// validation differently; the evaluators must still agree.
		gapped := make(event.HistorySet, len(h))
		for v, hist := range h {
			g := event.History{Var: v, Recent: make([]event.Update, len(hist.Recent))}
			for i, u := range hist.Recent {
				g.Recent[i] = event.U(v, u.SeqNo*2, u.Value)
			}
			gapped[v] = g
		}
		gfired, gerr := c.Eval(gapped)
		cgfired, cgerr := c.Bind().Eval(gapped)
		if cgfired != gfired || (cgerr == nil) != (gerr == nil) {
			t.Fatalf("compiled/interpreted divergence on %q (gapped seqnos):\n  interpreted (%v, %v)\n  compiled    (%v, %v)",
				src, gfired, gerr, cgfired, cgerr)
		}
		// Metadata must be coherent.
		for _, v := range c.Vars() {
			if c.Degree(v) < 1 {
				t.Fatalf("variable %q has degree %d", v, c.Degree(v))
			}
		}
		if !Historical(c) && !c.Conservative() {
			t.Fatal("non-historical conditions must classify conservative")
		}
	})
}

// FuzzPackDifferential drives a {x} pack and an {x, y} pack with members,
// removals and updates chosen by the input, and checks every update's fired
// set and error presence against the tree-walking interpreter (Expr.Eval),
// run for each live member at its own degree over the shared windows.
// Members are "E op c" and "c op E" over the subjects below, so strict
// members land in subject indexes and inclusive ones stay expressions;
// update values include NaN and ±Inf.
func FuzzPackDifferential(f *testing.F) {
	subjects := []string{
		"x[0]", "x[0] - x[-1]", "x[-2] - x[0]", "seqno(x, 0)", "1 / x[0]",
		"abs(x[0] - y[0])", "x[0] - y[0]", "y[0] - x[-1]",
	}
	ops := []string{">", "<", ">=", "<="}
	consts := []string{"0", "1", "-1", "2", "-2", "0.5", "3", "1000"}
	values := []float64{0, 1, -1, 2, -2, 0.5, 3, math.NaN(), math.Inf(1), math.Inf(-1), 1000, math.Copysign(0, -1)}
	f.Add([]byte{0, 0, 1, 9, 4, 40, 3, 0, 3, 3, 3, 5, 3, 14, 2, 1, 3, 6, 3, 15})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 160)
		rng.Read(b)
		f.Add(b)
	}
	type member struct {
		c    *Expr
		p    *Pack
		id   int32
		live bool
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wins := liveView{}
		for _, v := range []event.VarName{"x", "y"} {
			wins[v], _ = event.NewWindow(v, 3)
		}
		packs := []*Pack{NewPack("x"), NewPack("x", "y")}
		// The oracle costs members × updates interpreter runs: cap both so
		// that grown inputs keep the fuzzer fast.
		const maxMembers, maxOps = 48, 1024
		var ms []member
		seq := map[event.VarName]int64{}
		for n := 0; len(data) >= 2 && n < maxOps; data, n = data[2:], n+1 {
			op, arg := data[0], data[1]
			switch op % 4 {
			case 0, 1:
				if len(ms) == maxMembers {
					continue
				}
				e, o, c := subjects[int(arg)%len(subjects)], ops[int(arg/8)%len(ops)], consts[int(op/4)%len(consts)]
				src := e + " " + o + " " + c
				if arg >= 128 {
					src = c + " " + o + " " + e
				}
				x := MustParse(fmt.Sprintf("m%d", len(ms)), src)
				p := packs[len(x.Vars())-1]
				id, ok := p.Add(x)
				if !ok {
					t.Fatalf("Add(%q) rejected", src)
				}
				ms = append(ms, member{c: x, p: p, id: id, live: true})
			case 2:
				if len(ms) > 0 {
					m := &ms[int(arg)%len(ms)]
					m.p.Remove(m.id)
					m.live = false
				}
			case 3:
				v := event.VarName("x")
				if arg%2 == 1 {
					v = "y"
				}
				seq[v] += int64(1 + (op/4)%2)
				wins[v].TryPush(event.U(v, seq[v], values[int(arg/2)%len(values)]))
				for _, p := range packs {
					var want []int32
					wantErr := false
					for _, m := range ms {
						if !m.live || m.p != p {
							continue
						}
						fired, err, ready := oracleEval(m.c, wins)
						if !ready {
							continue
						}
						if err != nil {
							wantErr = true
						} else if fired {
							want = append(want, m.id)
						}
					}
					got, err := p.EvalAppend(wins, nil)
					if (err != nil) != wantErr {
						t.Fatalf("pack %v: error %v, want error=%v", p.Vars(), err, wantErr)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("pack %v: fired %v, want %v", p.Vars(), firedNames(p, got), firedNames(p, want))
					}
				}
			}
		}
	})
}

// oracleEval interprets c over the windows cut to its own degrees; ready is
// false while some window holds fewer entries than c reads.
func oracleEval(c *Expr, wins liveView) (fired bool, err error, ready bool) {
	hs := make(event.HistorySet, len(c.Vars()))
	for _, v := range c.Vars() {
		recent := wins[v].Live().Recent
		if len(recent) < c.Degree(v) {
			return false, nil, false
		}
		hs[v] = event.History{Var: v, Recent: slices.Clone(recent[:c.Degree(v)])}
	}
	fired, err = c.Eval(hs)
	return fired, err, true
}
