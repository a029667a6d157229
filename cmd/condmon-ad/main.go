// Command condmon-ad runs the Alert Displayer: it accepts back-link TCP
// connections from any number of Condition Evaluator processes, merges
// their stream-tagged alerts, applies a filtering algorithm, and prints
// the alerts a user would see (tagged "[stream N]" for N ≠ 0).
//
// Usage:
//
//	condmon-ad -listen 127.0.0.1:7200 -ad-algo AD-1 -vars x
//	condmon-ad -listen 127.0.0.1:7200 -ad-algo AD-6 -vars x,y -n 10
//
// With -n the displayer exits after receiving that many alerts; otherwise
// it runs until interrupted.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"condmon/internal/ad"
	"condmon/internal/audit"
	"condmon/internal/cond"
	"condmon/internal/durable"
	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/transport"
)

// adCompactEvery is the fewest journaled alert deltas between compacting
// checkpoints of the filter state. It is the cadence only while the
// snapshot is small — AD-2 and AD-5 keep one latch per variable. AD-1,
// AD-3, AD-4 and AD-6 remember every displayed alert, so their snapshot
// grows with the stream, and the log's policy then also waits for as many
// delta bytes as the last checkpoint holds: checkpoints space out
// geometrically and journaling stays amortised O(1) per alert, with the
// log at most twice its checkpoint plus this many deltas.
const adCompactEvery = 256

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "condmon-ad:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// The display gathers in one buffer, written whenever the offer loop
	// finds no alert waiting and on every return: one write(2) per burst of
	// lines, not one per line. Write errors are dropped, as Fprintf's were.
	out := bufio.NewWriterSize(stdout, 64<<10)
	defer func() { _ = out.Flush() }()

	fs := flag.NewFlagSet("condmon-ad", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "TCP endpoint for back links")
		algo     = fs.String("ad-algo", "AD-1", "filtering algorithm: AD-0 … AD-6")
		vars     = fs.String("vars", "x", "comma-separated condition variables")
		n        = fs.Int("n", 0, "exit after this many received alerts (0 = run until interrupted)")
		maddr    = fs.String("metrics", "", "serve /metrics and /debug/pprof/ on this address while running")
		tracing  = fs.Bool("tracing", false, "record backlink/ad spans in a flight recorder (served at /trace with -metrics)")
		staleAft = fs.Duration("stale-after", 0, "back link reported stale on /healthz after this long without traffic (default 10s)")
		stateDir = fs.String("state-dir", "", "directory for the durable filter-state WAL; recover from it on start and journal into it while running")
		fsync    = fs.Int("fsync", 0, "fsync the WAL after every N journaled alerts (1 = every alert, 0 = leave delta persistence to the OS)")
		auditOn  = fs.Bool("audit", false, "run the online guarantee auditor over the displayed stream (matrix served at /audit with -metrics, printed on exit)")
		auditCnd = fs.String("audit-cond", "", "condition DSL expression the auditor checks evidence-backed completeness against (same expression the CEs run)")
		auditSLO = fs.Duration("audit-slo", 0, "end-to-end alert latency objective; origin-stamped alerts over this bump audit.slo_breaches (needs CEs sending with -tracing)")
		auditNFL = fs.Bool("audit-assume-no-loss", false, "assert the front links are lossless, letting DM evidence alone decide completeness at /audit")
		auditBrk = fs.String("audit-break", "", "inject a violation for negative-control testing: 'dedup' (filter displays duplicates) or 'reorder' (adjacent alerts swapped before offering)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *auditBrk {
	case "", "dedup", "reorder":
	default:
		return fmt.Errorf("unknown -audit-break %q (want dedup or reorder)", *auditBrk)
	}

	var varNames []event.VarName
	for _, v := range strings.Split(*vars, ",") {
		if v = strings.TrimSpace(v); v != "" {
			varNames = append(varNames, event.VarName(v))
		}
	}
	filter, err := ad.NewByName(*algo, varNames...)
	if err != nil {
		return err
	}
	var (
		reg     *obs.Registry
		tr      *obs.Tracer
		hl      *obs.Health
		journal *durable.LoggedFilter // nil without -state-dir
	)
	if *maddr != "" {
		reg = obs.NewRegistry()
		hl = obs.NewHealth()
	}

	// The durable wrap goes on first so the raw filter it journals is the
	// same one recovery replays into; tracing and instrumentation layer on
	// top and stay stateless across restarts.
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return err
		}
		wal, err := durable.Open(filepath.Join(*stateDir, "ad.wal"),
			durable.Options{SyncEvery: *fsync, Metrics: durable.RegisterMetrics(reg, "durable.wal")})
		if err != nil {
			return err
		}
		defer wal.Close()
		if replayed, err := durable.RecoverFilter(wal, filter); err != nil {
			return fmt.Errorf("recover %s: %w", wal.Path(), err)
		} else if replayed > 0 {
			fmt.Fprintf(out, "AD recovered %d records from %s\n", replayed, wal.Path())
		}
		journal = durable.LogFilter(filter, wal, adCompactEvery)
		filter = journal
	}

	if *tracing {
		tr = obs.NewTracer(obs.DefaultTraceCap)
		filter = ad.NewTraced(filter, tr)
	}
	if *auditBrk == "dedup" {
		// Negative control: defeat the filter's suppression so duplicate
		// alerts reach the display — the auditor must flip Complete.
		filter = brokenDedup{filter}
	}

	var au *audit.Auditor
	if *auditOn {
		var conds []cond.Condition
		if *auditCnd != "" {
			c, err := cond.Parse("cond", *auditCnd)
			if err != nil {
				return fmt.Errorf("-audit-cond: %w", err)
			}
			conds = append(conds, c)
		}
		au = audit.New(audit.Options{
			Conds:             conds,
			AssumeNoFrontLoss: *auditNFL,
			LatencySLO:        *auditSLO,
			Metrics:           reg,
		})
	}

	if *maddr != "" {
		filter = ad.RegisterInstrumented(reg, "ad", filter)
		mo := obs.MuxOptions{Registry: reg, Trace: tr, Health: hl}
		if au != nil {
			mo.Audit = audit.Handler(au)
		}
		srv, err := obs.ServeWith(*maddr, mo)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics: http://%s/metrics (trace at /trace, health at /healthz, audit at /audit)\n", srv.Addr())
	}

	l, err := transport.ListenMux(*listen, transport.MuxListenerOptions{
		Metrics: reg, Trace: tr, Health: hl, StaleAfter: *staleAft,
	})
	if err != nil {
		return err
	}
	defer l.Close()
	if au != nil {
		// DM evidence frames forwarded by auditing CEs feed the auditor's
		// per-variable digest store.
		go func() {
			for ev := range l.Evidence() {
				au.ObserveEvidence(ev)
			}
		}()
	}
	fmt.Fprintf(out, "AD listening on %s with %s\n", l.Addr(), filter.Name())

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	received, displayed, suppressed := 0, 0, 0
	// offer runs one arrival through the filter, prints the outcome, and
	// feeds the auditor (nil-safe when auditing is off); a displayed alert's
	// origin stamp anchors the auditor's end-to-end latency.
	offer := func(sa transport.StreamAlert) {
		a := sa.Alert
		tag := ""
		if sa.Stream != 0 {
			tag = fmt.Sprintf(" [stream %d]", sa.Stream)
		}
		shown := ad.Offer(filter, a)
		if journal != nil {
			// Only a displayed alert is journaled, so a failure can only
			// appear here; say so now, not at exit: from this alert on the
			// evidence is in memory only and a restart will forget it.
			if err := journal.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "condmon-ad: durable journal failed, filtering continues without it:", err)
				journal = nil
			}
		}
		if shown {
			displayed++
			au.ObserveDisplayed(a, sa.Origin)
			fmt.Fprintf(out, "ALERT %v from %s%s\n", a, a.Source, tag)
		} else {
			suppressed++
			au.ObserveSuppressed(a)
			fmt.Fprintf(out, "  (suppressed %v from %s%s)\n", a, a.Source, tag)
		}
	}
	// The reorder negative control holds one alert back and offers each
	// pair swapped; the held alert is flushed on exit.
	var held *transport.StreamAlert
	process := func(sa transport.StreamAlert) {
		if *auditBrk != "reorder" {
			offer(sa)
			return
		}
		if held == nil {
			held = &sa
			return
		}
		offer(sa)
		offer(*held)
		held = nil
	}
	finish := func() {
		if held != nil {
			offer(*held)
			held = nil
		}
		fmt.Fprintf(out, "received=%d displayed=%d suppressed=%d\n", received, displayed, suppressed)
		if au != nil {
			m := au.Finalize()
			rep := au.Report()
			fmt.Fprintf(out, "audit: ordered=%s complete=%s consistent=%s violations=%d\n",
				m.Ordered.Label(), m.Complete.Label(), m.Consistent.Label(), rep.Violations)
			if rep.LastViolation != "" {
				fmt.Fprintf(out, "audit: last violation: %s\n", rep.LastViolation)
			}
		}
	}
	defer finish()
	for {
		var (
			sa transport.StreamAlert
			ok bool
		)
		select {
		case <-interrupt:
			return nil
		case sa, ok = <-l.Alerts():
		default:
			_ = out.Flush()
			select {
			case <-interrupt:
				return nil
			case sa, ok = <-l.Alerts():
			}
		}
		if !ok {
			return nil
		}
		received++
		process(sa)
		if *n > 0 && received >= *n {
			return nil
		}
	}
}

// brokenDedup is the -audit-break dedup negative control: it defeats the
// wrapped filter's suppression so every offer — duplicates included —
// reaches the display. The auditor must flip Complete to VIOLATED on the
// first duplicate.
type brokenDedup struct{ ad.Filter }

func (brokenDedup) Test(event.Alert) bool { return true }
func (brokenDedup) Accept(event.Alert)    {}
func (b brokenDedup) Name() string        { return b.Filter.Name() + "+broken-dedup" }
