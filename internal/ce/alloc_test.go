package ce

import (
	"testing"

	"condmon/internal/cond"
	"condmon/internal/event"
)

// The zero-allocation invariant of the evaluation hot path: a non-firing
// Feed — the steady state of a healthy monitored system — must not allocate,
// for built-in conditions and compiled DSL conditions alike. These tests
// pin the invariant so a future change can't silently reintroduce per-update
// garbage.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(500, f); allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, allocs)
	}
}

func TestFeedNonFiringZeroAllocsBuiltin(t *testing.T) {
	e, err := New("CE1", cond.NewRiseAggressive("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Constant values: c2 (rise > 200) never fires.
	var n int64
	requireZeroAllocs(t, "Feed/builtin", func() {
		n++
		a, fired, err := e.Feed(event.U("x", n, 100))
		if err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("condition unexpectedly fired: %v", a)
		}
	})
}

func TestFeedNonFiringZeroAllocsCompiledDSL(t *testing.T) {
	c := cond.MustParse("c3", "x[0] - x[-1] > 200 && consecutive(x)")
	e, err := New("CE1", c)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	requireZeroAllocs(t, "Feed/compiled", func() {
		n++
		a, fired, err := e.Feed(event.U("x", n, 100))
		if err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("condition unexpectedly fired: %v", a)
		}
	})
}

func TestFeedDiscardZeroAllocs(t *testing.T) {
	e, err := New("CE1", cond.NewOverheat("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Feed(event.U("x", 10, 0)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order and irrelevant-variable discards are also steady-state
	// work under a lossy broadcast medium.
	requireZeroAllocs(t, "Feed/out-of-order", func() {
		if _, fired, _ := e.Feed(event.U("x", 5, 0)); fired {
			t.Fatal("discarded update fired")
		}
	})
	requireZeroAllocs(t, "Feed/other-var", func() {
		if _, fired, _ := e.Feed(event.U("y", 99, 0)); fired {
			t.Fatal("irrelevant update fired")
		}
	})
}

// A firing Feed pays for the alert and nothing else: the history set (map
// header and its group), one backing array for every history snapshot, and
// the precomputed key — no variable list, no per-variable slices, no
// intermediate key buffer.
func TestFeedFiringAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		cond cond.Condition
		vars []event.VarName
	}{
		{"single-variable degree 2", cond.MustParse("c", "x[0] - x[-1] > 0"), []event.VarName{"x"}},
		{"two variables", cond.MustParse("c", "x[0] + y[0] - x[-1] > 0"), []event.VarName{"x", "y"}},
	} {
		e, err := New("CE1", c.cond)
		if err != nil {
			t.Fatal(err)
		}
		n, warm := int64(1_000_000), false
		feed := func() {
			n++
			for _, v := range c.vars {
				if _, fired, err := e.Feed(event.U(v, n, float64(n))); err != nil || warm && !fired {
					t.Fatalf("Feed(%s %d): fired %v, err %v", v, n, fired, err)
				}
			}
		}
		feed()
		feed()
		warm = true // windows full: every Feed from here on fires
		// One firing Feed per variable and run; each costs the same four.
		if got, max := testing.AllocsPerRun(200, feed), float64(4*len(c.vars)); got > max {
			t.Errorf("%s: firing Feed: %v allocs/op, want ≤ %v", c.name, got, max)
		}
	}
}
