// Command condmon-bench regenerates the paper's evaluation artifacts: the
// property tables (Tables 1–3 and the AD-3/AD-4/AD-6 variants), the
// domination measurements behind Theorems 6 and 8, the replication-benefit
// curve motivating Section 1, and the filter-strength tradeoff curves.
//
// Usage:
//
//	condmon-bench [flags] [experiment ...]
//
// Experiments: table1 table2 table-ad3 table-ad4 table3 table-ad6
// reorder-tables domination benefit tradeoff maximality table1-3ce
// replicas downtime all (default: all).
//
// With -perf the paper experiments are skipped and the hot-path
// measurement scenarios run instead; -scenario filters them by name
// (CEFeed DSLEval Filters MultiSystem IngestThroughput HotVariable
// AuditOverhead MillionConditions), -scale sizes the MillionConditions
// engine, and -hot-scale sizes the HotVariable bursts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"condmon/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "condmon-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("condmon-bench", flag.ContinueOnError)
	var (
		seed   = fs.Int64("seed", 1, "randomness seed (equal seeds reproduce identical tables)")
		trials = fs.Int("trials", 400, "randomized runs per scenario row")
		length = fs.Int("len", 6, "updates per data monitor per run (2-10)")
		lossP  = fs.Float64("loss", 0.3, "per-update front-link drop probability in lossy rows")
		asCSV  = fs.Bool("csv", false, "emit curve experiments (benefit, tradeoff, replicas, downtime) as CSV")
		perf   = fs.Bool("perf", false, "measure hot-path micro-benchmarks and emit JSON (see BENCH_PR1.json); skips the paper experiments")
		scen   = fs.String("scenario", "", "with -perf, comma-separated scenario filter: CEFeed DSLEval Filters MultiSystem IngestThroughput HotVariable AuditOverhead MillionConditions all (default: all but MillionConditions)")
		scale  = fs.Int("scale", 1_000_000, "with -perf -scenario MillionConditions, how many conditions to register")
		hscale = fs.Float64("hot-scale", 1.0, "with -perf -scenario HotVariable, burst-size multiplier (use ~0.05 for smoke runs)")
		maddr  = fs.String("metrics", "", "with -perf, attach pipeline counters to the MultiSystem runs and serve /metrics and /debug/pprof/ on this address afterwards")
		hold   = fs.Duration("hold", 30*time.Second, "how long to keep the -metrics endpoint up after measuring")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *perf {
		return runPerf(out, *maddr, *hold, *scen, *scale, *hscale)
	}
	if *maddr != "" {
		return fmt.Errorf("-metrics requires -perf (the paper experiments are pure and carry no counters)")
	}
	if *scen != "" {
		return fmt.Errorf("-scenario requires -perf (the paper experiments are selected by name: condmon-bench table1 ...)")
	}
	cfg := exp.Config{Seed: *seed, Trials: *trials, StreamLen: *length, LossP: *lossP}

	want := fs.Args()
	if len(want) == 0 {
		want = []string{"all"}
	}

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	table := func(f func(exp.Config) (*exp.Table, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			t, err := f(cfg)
			if err != nil {
				return nil, err
			}
			return stringer{t.Format(), t.Matches()}, nil
		}
	}
	experiments := []experiment{
		{"table1", table(exp.RunTable1)},
		{"table2", table(exp.RunTable2)},
		{"table-ad3", table(exp.RunTableAD3)},
		{"table-ad4", table(exp.RunTableAD4)},
		{"table3", table(exp.RunTable3)},
		{"table-ad6", table(exp.RunTableAD6)},
		{"reorder-tables", func() (fmt.Stringer, error) {
			ms, err := exp.RunReorderTables(cfg, nil)
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			match := true
			for _, m := range ms {
				b.WriteString(m.Format())
				b.WriteString("\n")
				if !m.Matches() {
					match = false
				}
			}
			return stringer{strings.TrimRight(b.String(), "\n"), match}, nil
		}},
		{"domination", func() (fmt.Stringer, error) {
			d, err := exp.RunDomination(cfg)
			if err != nil {
				return nil, err
			}
			return stringer{d.Format(), d.Matches()}, nil
		}},
		{"benefit", func() (fmt.Stringer, error) {
			b, err := exp.RunBenefit(cfg)
			if err != nil {
				return nil, err
			}
			if *asCSV {
				return stringer{b.CSV(), b.Matches()}, nil
			}
			return stringer{b.Format(), b.Matches()}, nil
		}},
		{"tradeoff", func() (fmt.Stringer, error) {
			t, err := exp.RunTradeoff(cfg)
			if err != nil {
				return nil, err
			}
			if *asCSV {
				return stringer{t.CSV(), t.Matches()}, nil
			}
			return stringer{t.Format(), t.Matches()}, nil
		}},
		{"maximality", func() (fmt.Stringer, error) {
			m, err := exp.RunMaximality(cfg)
			if err != nil {
				return nil, err
			}
			return stringer{m.Format(), m.Matches()}, nil
		}},
		{"table1-3ce", func() (fmt.Stringer, error) {
			t, err := exp.RunTableReplicas(cfg, 3)
			if err != nil {
				return nil, err
			}
			return stringer{t.Format(), t.Matches()}, nil
		}},
		{"replicas", func() (fmt.Stringer, error) {
			b, err := exp.RunReplicaBenefit(cfg)
			if err != nil {
				return nil, err
			}
			if *asCSV {
				return stringer{b.CSV(), b.Matches()}, nil
			}
			return stringer{b.Format(), b.Matches()}, nil
		}},
		{"downtime", func() (fmt.Stringer, error) {
			d, err := exp.RunDowntime(cfg)
			if err != nil {
				return nil, err
			}
			if *asCSV {
				return stringer{d.CSV(), d.Matches()}, nil
			}
			return stringer{d.Format(), d.Matches()}, nil
		}},
	}

	selected := make(map[string]bool, len(want))
	for _, w := range want {
		selected[strings.ToLower(w)] = true
	}
	if selected["all"] {
		for _, e := range experiments {
			selected[e.name] = true
		}
	}
	// Reject unknown experiment names up front.
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	for w := range selected {
		if !known[w] {
			return fmt.Errorf("unknown experiment %q (known: table1 table2 table-ad3 table-ad4 table3 table-ad6 reorder-tables domination benefit tradeoff maximality table1-3ce replicas downtime all)", w)
		}
	}

	mismatches := 0
	for _, e := range experiments {
		if !selected[e.name] {
			continue
		}
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		s := res.(stringer)
		fmt.Fprintln(out, s.text)
		if !s.match {
			mismatches++
			fmt.Fprintf(out, "!! %s does not match the paper\n\n", e.name)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d experiment(s) do not match the paper", mismatches)
	}
	return nil
}

// stringer pairs formatted output with its paper-match verdict.
type stringer struct {
	text  string
	match bool
}

func (s stringer) String() string { return s.text }
