//go:build linux

package main

import (
	"sync/atomic"
	"syscall"
	"time"

	"condmon/internal/event"
	"condmon/internal/transport"
)

// generator is the one publisher goroutine of a run — the condmon-dm of the
// fleet. It rotates over the workload's variables, one datagram each, and
// builds every update from the pre-generated value tables.
type generator struct {
	sp  *spec
	in  *inputs
	st  *stamps
	tr  *tracer
	sys system
	pub *transport.UDPPublisher

	next []int64        // next seqno per variable
	run  []event.Update // scratch for one datagram's updates
	turn int

	sent atomic.Int64 // updates published, all variables
	mode atomic.Int32 // genClosed, genOpen or genStop; set by the measurement loop
	done chan struct{}
	err  error // owned by the publisher goroutine until it has been waited for
	pr   prober

	// How late each open-loop tick of the latency window started against
	// its schedule, and the stretches in which the host kept the process
	// off its CPU.
	late   []int64
	stalls []stall
}

func newGenerator(sp *spec, in *inputs, st *stamps, tr *tracer, sys system) *generator {
	g := &generator{
		sp: sp, in: in, st: st, tr: tr, sys: sys, pub: sys.publisher(),
		next: make([]int64, len(sp.vars)),
		run:  make([]event.Update, sp.perDatagram),
		done: make(chan struct{}),
		late: make([]int64, 0, 1<<17),
	}
	for i := range g.next {
		g.next[i] = 1
	}
	return g
}

// sentPerVar reports how many updates of each variable were published;
// call it after the generator has stopped.
func (g *generator) sentPerVar() []int64 {
	out := make([]int64, len(g.next))
	for i, n := range g.next {
		out[i] = n - 1
	}
	return out
}

// publish sends the rotation's next datagram: Publish for a single update,
// as condmon-dm does, PublishBatch for a run. due is when its updates were
// due, which the AD glue measures alert latency from.
func (g *generator) publish(due int64) error {
	v := g.turn % len(g.sp.vars)
	g.turn++
	name, first := g.sp.vars[v], g.next[v]
	for i := range g.run {
		s := first + int64(i)
		g.run[i] = event.Update{Var: name, SeqNo: s, Value: g.in.value(v, s)}
	}
	g.next[v] += int64(len(g.run))
	g.st.at(v, first).Store(due)

	id, traced := g.tr.sampledIn(first, len(g.run))
	var t0 int64
	if traced {
		t0 = now()
	}
	var err error
	if len(g.run) == 1 {
		err = g.pub.Publish(g.run[0])
	} else {
		err = g.pub.PublishBatch(name, g.run)
	}
	if traced {
		t1 := now()
		if g.sp.open() {
			g.tr.pub.add(span{name: spWait, v: uint8(v), seq: id, start: due, end: t0})
		}
		g.tr.pub.add(span{name: spPublish, v: uint8(v), seq: id, start: t0, end: t1})
	}
	g.sent.Add(int64(len(g.run)))
	g.pr.tick(16)
	return err
}

// The generator's modes. It starts in genOpen unless the measurement loop
// has set genClosed first; a workload with a latency phase is switched from
// the one to the other after it.
const (
	genOpen int32 = iota
	genClosed
	genStop
)

// loop is the publisher goroutine: it publishes in the current mode until
// the measurement loop sets another.
func (g *generator) loop() {
	defer close(g.done)
	for g.err == nil {
		switch g.mode.Load() {
		case genClosed:
			g.runClosed()
		case genOpen:
			g.runOpen()
		default:
			return
		}
	}
}

// runClosed publishes as fast as the two in-flight windows allow. It waits
// by sleeping, never by spinning: a publisher spinning on Gosched starves
// the netpoller (README.md, "Loop rules").
func (g *generator) runClosed() {
	for g.mode.Load() == genClosed {
		if !g.sp.mayPublish(g.sent.Load(), g.sys.processed(), g.sys.alertsInFlight()) {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if g.err = g.publish(now()); g.err != nil {
			return
		}
	}
}

// mayPublish is the closed loop's two window gates: the next datagram may
// go out when, with it, no more than updateWindow updates are in flight
// (published but not yet taken by the slowest replica) and no more than
// alertWindow alerts are (sent by the CEs but not yet offered at the AD).
func (sp *spec) mayPublish(sent, processed, alertsInFlight int64) bool {
	if sent+int64(sp.perDatagram)-processed > sp.updateWindow {
		return false
	}
	return sp.alertWindow == 0 || alertsInFlight <= sp.alertWindow
}

// runOpen publishes the workload's open-loop rate in 1 ms ticks, on a
// schedule fixed when the mode is entered: tick k is due at start + k ms
// whatever the system does, every update of a tick is due at the tick's
// start, and a tick that starts late is published at once (the schedule
// never slips). A rate below one datagram a tick skips ticks evenly.
//
// The in-flight windows of the closed loop hold here too. They stay far
// from full while the fleet keeps up; after a stall — the host freezes the
// VM, a collector slice holds the one P — the publisher catches up no
// faster than the fleet takes the updates, instead of bursting the backlog
// into the channel-mode receiver's 1024-slot buffer and losing what does
// not fit. The wait is charged where it belongs: the updates' due time is
// still the tick's start.
func (g *generator) runOpen() {
	const tick = int64(time.Millisecond)
	perTick := float64(g.sp.openRate()) / 1000 / float64(g.sp.perDatagram)
	start := now()
	for k := int64(0); g.mode.Load() == genOpen; k++ {
		due := start + k*tick
		if wait := due - now(); wait > 0 {
			asleep, cpu := now(), cpuTime()
			sleepPrecisely(wait)
			// The second reading of the CPU time is taken only after a late wake-up.
			if woke := now(); woke-due > stallNs && hostStall(woke-due, woke-asleep, int64(cpuTime()-cpu)) {
				g.stalls = append(g.stalls, stall{from: asleep, to: woke})
			}
		}
		if g.sys.latencies().isOpen() {
			g.late = append(g.late, lateness(due, now()))
		}
		for n := datagramsDue(perTick, k); n > 0; n-- {
			for !g.sp.mayPublish(g.sent.Load(), g.sys.processed(), g.sys.alertsInFlight()) {
				if g.mode.Load() != genOpen {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
			if g.err = g.publish(due); g.err != nil {
				return
			}
		}
	}
}

// datagramsDue is how many datagrams tick k publishes at perTick datagrams
// a tick: the whole part of the schedule's running total that the tick
// adds.
func datagramsDue(perTick float64, k int64) int {
	return int(perTick*float64(k+1)) - int(perTick*float64(k))
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep
// cannot pace 1 ms ticks: an otherwise idle Go process parks in epoll_wait,
// whose timeout is whole milliseconds, so sub-millisecond sleeps round up
// to 1 ms and the schedule runs up to a tick late (measured p99 1.1 ms).
// A thread blocked in a syscall hands its P over, so this neither spins
// nor starves the netpoller.
func sleepPrecisely(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only makes the tick poll the clock sooner
}

// stall is a stretch of the benchmark clock in which the host, not the
// fleet, kept the publisher from its schedule.
type stall struct{ from, to int64 }

// stallNs is how long the publisher must oversleep a tick before the
// stretch counts as a stall: the lateness the issue sets as the limit of a
// valid open-loop run.
const stallNs = int64(time.Millisecond)

// hostStall is the void guard of the latency window. The publisher slept
// towards a tick and woke late; that is the host's doing — the VM frozen,
// its vCPU given to another tenant, another process of the guest on the
// benchmark's CPU — when the whole process used less than half of the time
// it was asleep as CPU time. A collector cycle, a long filter operation or
// anything else the code under test does to hold the one P burns CPU while
// it does, and is not a stall: its delay stays in the percentiles.
func hostStall(oversleptNs, asleepNs, cpuNs int64) bool {
	return oversleptNs > stallNs && cpuNs < asleepNs/2
}

// lateness is how far past its due time a tick started; a tick that
// starts on or before time is not late.
func lateness(due, started int64) int64 {
	if started <= due {
		return 0
	}
	return started - due
}

func (g *generator) start() { go g.loop() }

// halt stops the generator and waits for its goroutine.
func (g *generator) halt() error {
	g.mode.Store(genStop)
	<-g.done
	return g.err
}
