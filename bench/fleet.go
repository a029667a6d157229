//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/ad"
	"condmon/internal/audit"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/durable"
	"condmon/internal/event"
	"condmon/internal/link"
	"condmon/internal/obs"
	"condmon/internal/transport"
)

// epoch anchors the benchmark clock; every timestamp in the harness is
// nanoseconds since it, read from the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// adCompactEvery mirrors cmd/condmon-ad: the WAL is compacted to one
// checkpoint after this many journaled alerts.
const adCompactEvery = 256

// forcedLossSeed is the fixed seed of replica 2's forced-loss lane on the
// storms, so the loss schedule is the same on every run and seed.
const forcedLossSeed = 7

// system is a fleet under test, as the measurement loop sees it. Both
// wirings — the daemon fleet and the engine — sit behind it.
type system interface {
	// publisher returns the UDP publisher the generator drives.
	publisher() *transport.UDPPublisher
	// start launches the glue goroutines.
	start()
	// processed is the number of published updates every replica has
	// taken (received and fed, or dropped by forced loss).
	processed() int64
	// alertsInFlight is alerts sent by the CEs and not yet offered.
	alertsInFlight() int64
	// latencies is the log of alert latencies; the measurement loop opens
	// it for the timed window and reads it after close.
	latencies() *latLog
	// quiesce waits until everything published has been processed end to
	// end or no progress is made any more.
	quiesce(sent int64)
	// close tears the fleet down and waits for every goroutine it started.
	close() error
	// verify runs the correctness oracle over the whole run.
	verify(sent []int64, o *outcome)
	// layerMetrics adds the per-layer counts only the fleet can read.
	layerMetrics(m map[string]float64)
	// release frees the run's off-heap records; nothing of the system may
	// be read afterwards.
	release()
}

// stamps remembers, per datagram, when its updates were due — the start of
// the tick on the open loop, the Publish call on the closed loops. The AD
// glue reads it to time an alert from its last contributing update. Slots
// are reused after stampSlots datagrams, far beyond what either in-flight
// window or a healthy open-loop backlog allows.
type stamps struct {
	per int64
	due [][]atomic.Int64 // [variable][slot]
}

const stampSlots = 1 << 16

func newStamps(sp *spec) *stamps {
	st := &stamps{per: int64(sp.perDatagram), due: make([][]atomic.Int64, len(sp.vars))}
	for i := range st.due {
		st.due[i] = make([]atomic.Int64, stampSlots)
	}
	return st
}

func (st *stamps) at(v int, seq int64) *atomic.Int64 {
	return &st.due[v][((seq-1)/st.per)&(stampSlots-1)]
}

// fleet is the daemon wiring of the five fleet workloads: one publisher
// (condmon-dm), two receivers each feeding one evaluator (two condmon-ce
// processes, each with its own mux connection), one mux listener feeding
// one filter (condmon-ad -mux). The glue loops below make exactly the calls
// the daemons' main loops make — the feed loop at the end of run() in
// cmd/condmon-ce/main.go and the offer loop in cmd/condmon-ad/main.go — so
// every layer is timed from outside, through its public functions.
type fleet struct {
	sp     *spec
	in     *inputs
	st     *stamps
	tr     *tracer
	reg    *obs.Registry // traced run only
	neg    string        // negative control, "" normally
	cond   cond.Condition
	degree []int // history length per variable

	pub     *transport.UDPPublisher
	recv    [2]*transport.UDPReceiver
	eval    [2]*ce.Evaluator
	mux     [2]*transport.MuxSender
	lis     *transport.MuxListener
	filter  ad.Filter
	logged  *durable.LoggedFilter
	wal     *durable.Log
	walDir  string
	walSize int64 // read just before the WAL is closed
	aud     *audit.Auditor
	out     *bufio.Writer

	wg sync.WaitGroup

	fed        [2]atomic.Int64 // updates taken from Updates() and fed
	fired      [2]atomic.Int64
	alertsSent atomic.Int64
	offered    atomic.Int64
	errMu      sync.Mutex
	errs       []error

	accepted [2]*bitset // lossy workloads: seqnos each replica accepted

	// Owned by the AD glue loop until it has been waited for.
	shown     []int64 // displayed alerts, keyWidth seqnos each
	shownN    int64
	suppress  int64
	lat       latLog
	firstSent []event.Alert // traced: the first alerts replica 1 sent, for the codec timings
	frees     []func()      // unmaps the off-heap records; run by the caller once it has read them
}

// wireSample is how many of the workload's own first frames the codec
// timings replay after the clock stops.
const wireSample = 4096

func buildFleet(sp *spec, in *inputs, st *stamps, tr *tracer, neg string) (*fleet, error) {
	f := &fleet{sp: sp, in: in, st: st, tr: tr, neg: neg}
	if tr != nil {
		f.reg = obs.NewRegistry()
	}
	c, err := cond.Parse("c", sp.cond)
	if err != nil {
		return nil, err
	}
	f.cond = c
	for _, v := range sp.vars {
		f.degree = append(f.degree, c.Degree(v))
	}
	ok := false
	defer func() {
		if !ok {
			_ = f.close()
		}
	}()

	// AD side first, as a fleet is started: listener, filter, WAL, auditor.
	if f.lis, err = transport.ListenMux("127.0.0.1:0", transport.MuxListenerOptions{Metrics: f.reg}); err != nil {
		return nil, err
	}
	if f.filter, err = ad.NewByName(sp.algo, sp.vars...); err != nil {
		return nil, err
	}
	if sp.durable {
		if f.walDir, err = os.MkdirTemp("", "condmon-bench-wal-"); err != nil {
			return nil, err
		}
		f.wal, err = durable.Open(filepath.Join(f.walDir, "ad.wal"),
			durable.Options{SyncEvery: 0, Metrics: durable.RegisterMetrics(f.reg, "durable.wal")})
		if err != nil {
			return nil, err
		}
		f.logged = durable.LogFilter(f.filter, f.wal, adCompactEvery)
		f.filter = f.logged
	}
	if neg == "dedup" {
		f.filter = brokenDedup{f.filter}
	}
	if sp.audited {
		f.aud = audit.New(audit.Options{Conds: []cond.Condition{c}, Metrics: f.reg})
	}
	f.out = bufio.NewWriterSize(io.Discard, 64<<10)

	// Two CE replicas, each its own receiver, evaluator and mux connection.
	addrs := make([]string, 2)
	for r := 0; r < 2; r++ {
		opts := transport.UDPReceiverOptions{
			Metrics:       f.reg,
			MetricsPrefix: fmt.Sprintf("transport.recv.CE%d", r+1),
		}
		if r == 1 && sp.lossP > 0 {
			b, err := link.NewBernoulli(sp.lossP)
			if err != nil {
				return nil, err
			}
			opts.ForcedLoss, opts.Seed = b, forcedLossSeed
		}
		if f.recv[r], err = transport.ListenUDP("127.0.0.1:0", opts); err != nil {
			return nil, err
		}
		addrs[r] = f.recv[r].Addr()
		if f.eval[r], err = ce.New(fmt.Sprintf("CE%d", r+1), c); err != nil {
			return nil, err
		}
		f.mux[r], err = transport.DialMux(f.lis.Addr(), transport.MuxSenderOptions{
			Metrics:       f.reg,
			MetricsPrefix: fmt.Sprintf("transport.mux.CE%d", r+1),
		})
		if err != nil {
			return nil, err
		}
		if sp.lossP > 0 {
			f.accepted[r] = &bitset{}
		}
	}
	if f.pub, err = transport.NewUDPPublisher(addrs...); err != nil {
		return nil, err
	}
	f.pub.SetMetrics(f.reg, "dm")
	ok = true
	return f, nil
}

func (f *fleet) publisher() *transport.UDPPublisher { return f.pub }

func (f *fleet) keyWidth() int {
	w := 0
	for _, d := range f.degree {
		w += d
	}
	return w
}

func (f *fleet) fail(err error) {
	f.errMu.Lock()
	f.errs = append(f.errs, err)
	f.errMu.Unlock()
}

func (f *fleet) start() {
	// Pre-size the AD loop's records so no reallocation lands mid-run: a
	// storm displays a few million alerts, the other workloads thousands.
	n := 1 << 18
	if f.sp.lossP > 0 {
		n = 1 << 23
	}
	shown, freeShown, err := offHeap[int64](n * f.keyWidth())
	if err != nil {
		f.fail(err)
		return
	}
	lat, freeLat, err := offHeap[int64](2 * n) // latencies, and when each display ended
	if err != nil {
		freeShown()
		f.fail(err)
		return
	}
	f.shown, f.lat.samples, f.lat.ends, f.frees = shown[:0], lat[:0:n], lat[n:n], append(f.frees, freeShown, freeLat)
	for r := 0; r < 2; r++ {
		f.wg.Add(1)
		go f.ceLoop(r)
	}
	f.wg.Add(1)
	go f.adLoop()
}

// ceLoop is one replica's feed loop, as in cmd/condmon-ce/main.go: take an
// update from the receiver, feed the evaluator, forward a fired alert on
// this replica's mux stream.
func (f *fleet) ceLoop(r int) {
	defer f.wg.Done()
	var (
		recv   = f.recv[r]
		eval   = f.eval[r]
		ms     = f.mux[r]
		stream = uint32(r + 1)
		bits   = f.accepted[r]
		buf    *spanBuf
		pr     prober
	)
	if f.tr != nil {
		buf = &f.tr.ce[r]
	}
	for u := range recv.Updates() {
		pr.tick(64)
		sc := f.tr.scope(buf, r+1, f.sp.vars, u.Var, u.SeqNo)
		t0 := sc.now()
		a, fired, err := eval.Feed(u)
		t1 := sc.now()
		sc.add(spFront, t0, t0) // start joined to the Publish return after the run
		sc.add(spFeed, t0, t1)
		if err != nil {
			f.fail(err)
		}
		if bits != nil {
			bits.set(u.SeqNo)
		}
		if fired {
			f.fired[r].Add(1)
			f.alertsSent.Add(1)
			t0 = sc.now()
			err := ms.Send(stream, a)
			sc.add(spMuxSend, t0, sc.now())
			if err != nil {
				f.fail(fmt.Errorf("back link: %w", err))
			}
			if f.tr != nil && r == 0 && len(f.firstSent) < wireSample {
				f.firstSent = append(f.firstSent, a)
			}
		}
		f.fed[r].Add(1)
	}
}

// adLoop is the displayer's offer loop, as in cmd/condmon-ad/main.go with
// -mux: offer each arriving alert to the filter, tell the auditor, print
// the ALERT line of a displayed one. The daemon's "(suppressed …)" log line
// is not reproduced: it is a debugging aid, not a display, and no layer of
// the stage budget would own the time it takes.
func (f *fleet) adLoop() {
	defer f.wg.Done()
	dropped := false
	nvars, per := int64(len(f.sp.vars)), int64(f.sp.perDatagram)
	var (
		buf *spanBuf
		pr  prober
	)
	if f.tr != nil {
		buf = &f.tr.ad
	}
	for sa := range f.lis.Alerts() {
		pr.tick(256)
		a := sa.Alert
		// The update whose arrival fired the alert is the last published of
		// its histories' latest updates (the publisher rotates over the
		// variables, one datagram each); its due time anchors the latency
		// and its id ties the alert's spans to the update's.
		trigV, trigSeq, order := 0, int64(0), int64(-1)
		for i, name := range f.sp.vars {
			s := a.Histories[name].Latest().SeqNo
			if o := (s-1)/per*nvars + int64(i); o > order {
				trigV, trigSeq, order = i, s, o
			}
		}
		due := f.st.at(trigV, trigSeq).Load()
		sc := f.tr.scope(buf, int(sa.Stream), f.sp.vars, f.sp.vars[trigV], trigSeq)
		t0 := sc.now()
		sc.add(spBack, t0, t0) // start joined to the Send return after the run

		shown := f.offer(a, sc)
		if f.neg == "drop" && shown && !dropped && f.shownN == 2 {
			// Negative control: the filter passed this alert but the
			// display loses it.
			dropped = true
			f.offered.Add(1)
			continue
		}
		if shown {
			t0 = sc.now()
			f.aud.ObserveDisplayed(a, 0)
			if f.aud != nil {
				sc.add(spAudit, t0, sc.now())
			}
			t0 = sc.now()
			fmt.Fprintf(f.out, "ALERT %v from %s [stream %d]\n", a, a.Source, sa.Stream)
			end := now()
			sc.add(spDisplay, t0, end)
			f.shownN++
			for i, name := range f.sp.vars {
				recent := a.Histories[name].Recent
				for j := 0; j < f.degree[i]; j++ {
					s := int64(-1)
					if j < len(recent) {
						s = recent[j].SeqNo
					}
					f.shown = append(f.shown, s)
				}
			}
			f.lat.add(end, end-due)
		} else {
			f.suppress++
			t0 = sc.now()
			f.aud.ObserveSuppressed(a)
			if f.aud != nil {
				sc.add(spAudit, t0, sc.now())
			}
		}
		f.offered.Add(1)
	}
}

// offer runs the alert through the filter: ad.Offer, the daemon's call. The
// traced run of the durable workload spells out the Test-then-Accept pair
// ad.Offer falls back to for a LoggedFilter, so the journaling Accept gets
// its own span.
func (f *fleet) offer(a event.Alert, sc scope) bool {
	t0 := sc.now()
	if !sc.on() || f.logged == nil || f.neg != "" {
		shown := ad.Offer(f.filter, a)
		sc.add(spOffer, t0, sc.now())
		return shown
	}
	shown := f.logged.Test(a)
	t1 := sc.now()
	sc.add(spOffer, t0, t1)
	if shown {
		f.logged.Accept(a)
		sc.add(spAccept, t1, sc.now())
	}
	return shown
}

func (f *fleet) release() {
	for _, free := range f.frees {
		free()
	}
	f.shown, f.lat.samples, f.lat.ends, f.frees = nil, nil, nil, nil
}

func (f *fleet) processed() int64 {
	p := int64(-1)
	for r := 0; r < 2; r++ {
		_, forced := f.recv[r].Stats()
		if n := f.fed[r].Load() + forced; p < 0 || n < p {
			p = n
		}
	}
	return p
}

func (f *fleet) alertsInFlight() int64 { return f.alertsSent.Load() - f.offered.Load() }

func (f *fleet) latencies() *latLog { return &f.lat }

// quiesce waits for the replicas to take everything published and the AD
// to be offered every alert they sent. Lost deliveries (overrun, kernel
// drop) would make that never happen, so it also gives up once nothing has
// moved for 300 ms; the oracle then counts what is missing.
func (f *fleet) quiesce(sent int64) {
	waitStable(func() (int64, bool) {
		p, inflight := f.processed(), f.alertsInFlight()
		return p + f.offered.Load(), p >= sent && inflight == 0
	})
}

// waitStable polls until done or until progress has not changed for 300 ms.
func waitStable(poll func() (progress int64, done bool)) {
	last, lastChange := int64(-1), time.Now()
	for {
		p, done := poll()
		if done {
			return
		}
		if p != last {
			last, lastChange = p, time.Now()
		} else if time.Since(lastChange) > 300*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the fleet down front to back — publisher, receivers (which
// ends the feed loops), mux senders (which flush), listener (which ends the
// offer loop) — waits for the glue goroutines, and removes the WAL.
func (f *fleet) close() error {
	if f.pub != nil {
		f.pub.Close()
	}
	for _, r := range f.recv {
		if r != nil {
			r.Close()
		}
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, m := range f.mux {
		if m != nil {
			keep(m.Close())
		}
	}
	if f.lis != nil {
		// Everything the senders flushed on Close is still on its way.
		waitStable(func() (int64, bool) { return f.offered.Load(), f.alertsInFlight() == 0 })
		f.lis.Close()
	}
	f.wg.Wait()
	if f.out != nil {
		keep(f.out.Flush())
	}
	if f.logged != nil {
		keep(f.logged.Err())
	}
	if f.wal != nil {
		f.walSize = f.wal.Size()
		keep(f.wal.Close())
	}
	if f.walDir != "" {
		keep(os.RemoveAll(f.walDir))
	}
	f.errMu.Lock()
	defer f.errMu.Unlock()
	for _, err := range f.errs {
		keep(err)
	}
	return first
}

// brokenDedup is the dedup-defeating negative control (the same wrapper
// condmon-ad -audit-break dedup installs): every offer reaches the display,
// duplicates included, so the oracle must report failures.
type brokenDedup struct{ ad.Filter }

func (brokenDedup) Test(event.Alert) bool { return true }
func (brokenDedup) Accept(event.Alert)    {}

// bitset records which seqnos a replica accepted; it grows as the run
// goes, owned by the replica's feed loop until that has been waited for.
type bitset struct {
	words []uint64
	count int64
}

func (b *bitset) set(seq int64) {
	w := int(seq >> 6)
	for w >= len(b.words) {
		b.words = append(b.words, make([]uint64, len(b.words)+1024)...)
	}
	if b.words[w]&(1<<(seq&63)) == 0 {
		b.words[w] |= 1 << (seq & 63)
		b.count++
	}
}

func (b *bitset) has(seq int64) bool {
	w := int(seq >> 6)
	return seq >= 0 && w < len(b.words) && b.words[w]&(1<<(seq&63)) != 0
}
