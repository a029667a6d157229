// Command condmon-ce runs one Condition Evaluator replica: it listens for
// updates on a UDP front-link endpoint, evaluates a condition over the
// received histories, and forwards alerts to the Alert Displayer over the
// reliable TCP back link, tagged with this replica's -stream id.
//
// Usage:
//
//	condmon-ce -id CE1 -listen 127.0.0.1:7101 -ad 127.0.0.1:7200 -cond 'x[0] > 3000'
//	condmon-ce -id CE2 -listen 127.0.0.1:7102 -ad 127.0.0.1:7200 -cond 'x[0] > 3000' -drop 0.3 -n 50
//	condmon-ce -id CE3 -listen 127.0.0.1:7103 -sockets 4 -reorder-depth 64 -ad 127.0.0.1:7200 -cond 'x[0] > 3000'
//
// With -n the evaluator exits after receiving that many updates (handy for
// scripted demos); otherwise it runs until interrupted.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"

	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/durable"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	"condmon/internal/transport"
	"condmon/internal/wire"
)

// ceCompactEvery is how many journaled updates elapse between compacting
// checkpoints of the evaluator's window state. Windows are tiny (a few
// updates per variable), so frequent compaction keeps the WAL near its
// floor size without measurable feed-path cost.
const ceCompactEvery = 512

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "condmon-ce:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// Output gathers in one buffer, written whenever the feed loop finds no
	// update waiting and on every return: one write(2) per burst of alert
	// lines, not one per line. Write errors are dropped, as Fprintf's were.
	out := bufio.NewWriterSize(stdout, 64<<10)
	defer func() { _ = out.Flush() }()

	fs := flag.NewFlagSet("condmon-ce", flag.ContinueOnError)
	var (
		id       = fs.String("id", "CE1", "replica identity carried in alerts")
		listen   = fs.String("listen", "127.0.0.1:0", "UDP endpoint for the front link")
		sockets  = fs.Int("sockets", 1, "SO_REUSEPORT receive sockets on the front-link port (>1 needs Linux; falls back to 1 elsewhere)")
		rdepth   = fs.Int("reorder-depth", 0, "per-variable reorder window in updates (0 = in-order acceptance; required for publishers sending with -stripe)")
		rskew    = fs.Duration("reorder-skew", 0, "how long a missing update blocks its successors before the gap is declared lost (with -reorder-depth; default 5ms)")
		adAddr   = fs.String("ad", "", "Alert Displayer TCP address")
		condExpr = fs.String("cond", "", "condition DSL expression")
		dropP    = fs.Float64("drop", 0, "forced front-link drop probability (testing aid)")
		seed     = fs.Int64("seed", 1, "seed for forced drops")
		n        = fs.Int("n", 0, "exit after this many received updates (0 = run until interrupted)")
		maddr    = fs.String("metrics", "", "serve /metrics and /debug/pprof/ on this address while running")
		stream   = fs.Uint("stream", 0, "back-link stream id tagging this replica's alerts")
		tracing  = fs.Bool("tracing", false, "record link/feed/backlink spans in a flight recorder (served at /trace with -metrics)")
		staleAft = fs.Duration("stale-after", 0, "front link reported stale on /healthz after this long without traffic (default 10s)")
		stateDir = fs.String("state-dir", "", "directory for the durable window-state WAL; recover from it on start and journal into it while running")
		fsync    = fs.Int("fsync", 0, "fsync the WAL after every N journaled updates (1 = every update, 0 = leave delta persistence to the OS)")
		auditFwd = fs.Bool("audit", false, "forward DM evidence frames arriving on the front link to the AD over the back link")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *adAddr == "" || *condExpr == "" {
		return fmt.Errorf("need -ad and -cond")
	}

	c, err := cond.Parse("cond", *condExpr)
	if err != nil {
		return err
	}
	eval, err := ce.New(*id, c)
	if err != nil {
		return err
	}

	var (
		reg *obs.Registry
		tr  *obs.Tracer
		hl  *obs.Health
	)
	if *maddr != "" {
		reg = obs.NewRegistry()
		eval.SetMetrics(ce.RegisterMetrics(reg, "ce."+*id))
		hl = obs.NewHealth()
		hl.Ready("received", obs.RegistryReady(reg, "transport.recv.accepted", 1))
	}
	if *tracing {
		tr = obs.NewTracer(obs.DefaultTraceCap)
		eval.SetTracer(tr)
	}

	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return err
		}
		wal, err := durable.Open(filepath.Join(*stateDir, "ce-"+*id+".wal"),
			durable.Options{SyncEvery: *fsync, Metrics: durable.RegisterMetrics(reg, "durable.wal")})
		if err != nil {
			return err
		}
		defer wal.Close()
		if replayed, err := durable.RecoverEvaluator(wal, eval); err != nil {
			return fmt.Errorf("recover %s: %w", wal.Path(), err)
		} else if replayed > 0 {
			fmt.Fprintf(out, "%s recovered %d records from %s\n", *id, replayed, wal.Path())
		}
		eval.SetJournal(durable.EvaluatorJournal(wal, eval, ceCompactEvery))
	}

	var forced link.Model
	if *dropP > 0 {
		b, err := link.NewBernoulli(*dropP)
		if err != nil {
			return err
		}
		forced = b
	}
	recv, err := transport.ListenUDPGroup(*listen, *sockets, transport.UDPReceiverOptions{
		ForcedLoss:   forced,
		Seed:         *seed,
		Metrics:      reg,
		Trace:        tr,
		TraceName:    *id,
		Health:       hl,
		StaleAfter:   *staleAft,
		ReorderDepth: *rdepth,
		ReorderSkew:  *rskew,
	})
	if err != nil {
		return err
	}
	defer recv.Close()
	if *sockets > 1 && recv.Sockets() != *sockets {
		fmt.Fprintf(out, "%s: SO_REUSEPORT unavailable, falling back to 1 receive socket\n", *id)
	}
	if reg != nil {
		srv, err := obs.ServeWith(*maddr, obs.MuxOptions{Registry: reg, Trace: tr, Health: hl})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics: http://%s/metrics (trace at /trace, health at /healthz)\n", srv.Addr())
	}
	fmt.Fprintf(out, "%s listening on %s, forwarding to %s\n", *id, recv.Addr(), *adAddr)

	snd, err := transport.DialMux(*adAddr, transport.MuxSenderOptions{Metrics: reg})
	if err != nil {
		return err
	}
	defer func() { _ = snd.Close() }()
	if *auditFwd {
		// Relay DM evidence digests to the AD-side auditor. Forwarding is
		// best-effort like the rest of the evidence path: a send error only
		// costs the frame (the next one's overlapping tail re-attests those
		// values), and the alert path reports its own errors.
		go func() {
			for ev := range recv.Evidence() {
				_ = snd.SendEvidence(ev)
			}
		}()
	}
	send := func(a event.Alert) error { return snd.Send(uint32(*stream), a) }
	if tr != nil {
		// A traced alert leaves one StageBacklink/sent span per history
		// variable and carries the freshest front-link origin timestamp
		// among them in its frame's trace trailer.
		send = func(a event.Alert) error {
			var origin int64
			for _, v := range a.Histories.Vars() {
				if o := recv.LastOrigin(v); o > origin {
					origin = o
				}
				tr.Record(obs.Span{
					Var: string(v), Seq: a.Histories[v].Latest().SeqNo,
					Stage: obs.StageBacklink, Replica: a.Source, Disp: obs.DispSent,
				})
			}
			return snd.SendTrace(uint32(*stream), a, wire.Trace{Flags: wire.TraceFlagSampled, Origin: origin})
		}
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	received := 0
	for {
		var (
			u  event.Update
			ok bool
		)
		select {
		case <-interrupt:
			return nil
		case u, ok = <-recv.Updates():
		default:
			_ = out.Flush()
			select {
			case <-interrupt:
				return nil
			case u, ok = <-recv.Updates():
			}
		}
		if !ok {
			return nil
		}
		received++
		a, fired, err := eval.Feed(u)
		if err != nil {
			// Includes a failed journal append or checkpoint (counted in
			// durable.wal.errors): an evaluator must not run ahead of its
			// log, so the failure is reported here and ends the process.
			return err
		}
		if fired {
			if err := send(a); err != nil {
				return fmt.Errorf("back link: %w", err)
			}
			fmt.Fprintf(out, "%s alert %v\n", *id, a)
		}
		if *n > 0 && received >= *n {
			return nil
		}
	}
}
