package runtime

import (
	"fmt"
	"sync"
	"testing"

	"condmon/internal/ad"
	"condmon/internal/cond"
	"condmon/internal/event"
)

// TestEngineChurn hammers the registry from multiple goroutines while
// update traffic is live: concurrent Register/Unregister cycles against
// concurrent EmitBatch emitters, plus a rebalance in the middle. The test
// is a -race gate first (registry locking, control-frame hand-off, DM
// subscription), and checks the steady conditions survived the churn with
// their displayed streams intact.
func TestEngineChurn(t *testing.T) {
	ng, err := NewEngine(func(c cond.Condition) ad.Filter {
		return ad.NewAD1()
	}, EngineOptions{Replicas: 2, Workers: 4, Seed: 7})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Steady conditions pin down the DMs and give the churn something to
	// interleave with.
	if _, err := ng.Register(cond.Threshold{CondName: "steady-x", Var: "x", Limit: 500, Above: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ng.Register(cond.Threshold{CondName: "steady-y", Var: "y", Limit: 300, Above: true}); err != nil {
		t.Fatal(err)
	}

	const (
		emitters     = 2  // one per variable
		emitBatches  = 80 // batches per emitter
		batchLen     = 32
		churners     = 3
		churnsPerGor = 40
	)
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		v := event.VarName("x")
		if e == 1 {
			v = "y"
		}
		wg.Add(1)
		go func(v event.VarName, seed int) {
			defer wg.Done()
			vals := make([]float64, batchLen)
			for b := 0; b < emitBatches; b++ {
				for i := range vals {
					vals[i] = float64(((b*batchLen + i + seed) * 13) % 1000)
				}
				if _, err := ng.EmitBatch(v, vals); err != nil {
					t.Errorf("EmitBatch(%s): %v", v, err)
					return
				}
			}
		}(v, e*17)
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churnsPerGor; i++ {
				name := fmt.Sprintf("ch%d-%d", g, i)
				v := event.VarName("x")
				if (g+i)%2 == 0 {
					v = "y"
				}
				if _, err := ng.Register(cond.Threshold{
					CondName: name, Var: v, Limit: float64((i * 37) % 900), Above: true,
				}); err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				if i%8 == 3 {
					if _, err := ng.Rebalance(); err != nil {
						t.Errorf("Rebalance: %v", err)
						return
					}
				}
				if err := ng.Unregister(name); err != nil {
					t.Errorf("Unregister(%s): %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// A Rebalance may move a steady condition while an emitter's whole
	// stream is in flight, and a moving condition misses the updates that
	// cross the move (Rebalance's contract). So survival is judged on one
	// more update per variable, emitted once the churn is over, above both
	// steady limits: each steady condition must display it.
	last := map[event.VarName]int64{}
	for _, v := range []event.VarName{"x", "y"} {
		seq, err := ng.EmitBatch(v, []float64{950})
		if err != nil {
			t.Fatalf("EmitBatch(%s) after churn: %v", v, err)
		}
		last[v] = seq
	}
	if err := ng.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := ng.Conditions(); got != 2 {
		t.Errorf("Conditions() = %d after churn, want the 2 steady ones", got)
	}
	for name, v := range map[string]event.VarName{"steady-x": "x", "steady-y": "y"} {
		shown := ng.Demux().DisplayedFor(name)
		if len(shown) == 0 || shown[len(shown)-1].Histories[v].Latest().SeqNo != last[v] {
			t.Errorf("%s did not display the update emitted after the churn (seq %d)", name, last[v])
		}
	}
	if _, err := ng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
