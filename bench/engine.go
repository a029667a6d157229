//go:build linux

package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condmon/internal/ad"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/runtime"
	"condmon/internal/transport"
)

// engineFleet is the engine-fanout wiring, the one ROADMAP item 1 moves the
// daemon to: a receive group in Dispatch mode hands accepted runs straight
// to runtime.Engine.InjectBatch on the socket's read goroutine; the engine
// evaluates on its shard lanes (2 replicas) and filters in its own demux.
type engineFleet struct {
	sp  *spec
	in  *inputs
	st  *stamps
	tr  *tracer
	reg *obs.Registry // traced run only

	pub  *transport.UDPPublisher
	recv *transport.UDPReceiver
	eng  *runtime.Engine

	conds        []cond.Condition
	sample       []int // indices into conds of the per-condition oracle sample
	registerTook time.Duration

	injected atomic.Int64
	pr       prober // used by the receiver's one read goroutine
	errMu    sync.Mutex
	err      error

	lat latLog // added to by the engine's pump goroutine, read after Close

	// Traced run: queue-depth sampler.
	queueMax  atomic.Int64
	stopQueue chan struct{}
	queueDone chan struct{}
	drainTook time.Duration
}

// engineConditions builds the 10000 thresholds (limit 1000+i, so only the
// first 64 can ever fire on spikes below 1064 — the sorted threshold index
// is what makes the rest free) and the 1000 DSL stragglers, spread over the
// 16 variables round-robin.
func engineConditions(vars []event.VarName) ([]cond.Condition, error) {
	conds := make([]cond.Condition, 0, engineThresholds+engineStragglers)
	for i := 0; i < engineThresholds; i++ {
		conds = append(conds, cond.Threshold{
			CondName: fmt.Sprintf("t%05d", i), Var: vars[i%len(vars)],
			Limit: 1000 + float64(i), Above: true,
		})
	}
	for i := 0; i < engineStragglers; i++ {
		v := vars[i%len(vars)]
		c, err := cond.Parse(fmt.Sprintf("s%04d", i), fmt.Sprintf("%s[0] - %s[-1] > %d", v, v, 990+i%8))
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	return conds, nil
}

// engineSample picks the 64 conditions whose displayed counts the oracle
// checks one by one: the 32 lowest thresholds (the ones that fire), 16
// thresholds that can never fire, and 16 stragglers.
func engineSample() []int {
	var out []int
	for i := 0; i < 32; i++ {
		out = append(out, i)
	}
	for i := 0; i < 16; i++ {
		out = append(out, 64+i*600)
	}
	for i := 0; i < 16; i++ {
		out = append(out, engineThresholds+i*61)
	}
	return out
}

// timedAD1 is AD-1 for a condition whose alerts sample the end-to-end
// latency: the engine displays inside its own pump, so the only place the
// harness can see a display happen is the filter it supplied. Thirty-two of
// the 11000 conditions get it; the rest run bare ad.NewAD1.
type timedAD1 struct {
	inner *ad.AD1 // a field, not embedded: embedding would promote AD1's fused probe past Accept
	ef    *engineFleet
	v     int
}

func (f timedAD1) Name() string            { return f.inner.Name() }
func (f timedAD1) Test(a event.Alert) bool { return f.inner.Test(a) }

func (f timedAD1) Accept(a event.Alert) {
	f.inner.Accept(a)
	ef, t := f.ef, now()
	due := ef.st.at(f.v, a.Histories[ef.sp.vars[f.v]].Latest().SeqNo).Load()
	ef.lat.add(t, t-due)
}

func buildEngine(sp *spec, in *inputs, st *stamps, tr *tracer) (*engineFleet, error) {
	ef := &engineFleet{sp: sp, in: in, st: st, tr: tr, sample: engineSample()}
	if tr != nil {
		ef.reg = obs.NewRegistry()
	}
	var err error
	if ef.conds, err = engineConditions(sp.vars); err != nil {
		return nil, err
	}
	// Latency is sampled on the lowest threshold of each variable (fires on
	// nearly every spike) and on the stragglers of the oracle sample (one
	// per variable, firing on a few percent of spikes).
	timed := make(map[string]int)
	for v := range sp.vars {
		timed[ef.conds[v].Name()] = v
	}
	for _, i := range ef.sample[48:] {
		timed[ef.conds[i].Name()] = (i - engineThresholds) % len(sp.vars)
	}
	ef.eng, err = runtime.NewEngine(func(c cond.Condition) ad.Filter {
		if v, ok := timed[c.Name()]; ok {
			return timedAD1{inner: ad.NewAD1(), ef: ef, v: v}
		}
		return ad.NewAD1()
	}, runtime.EngineOptions{Replicas: 2, Metrics: ef.reg})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			_ = ef.close()
		}
	}()
	t0 := time.Now()
	for _, c := range ef.conds {
		if _, err := ef.eng.Register(c); err != nil {
			return nil, err
		}
	}
	ef.registerTook = time.Since(t0)

	ef.recv, err = transport.ListenUDPGroup("127.0.0.1:0", 1, transport.UDPReceiverOptions{
		Dispatch: ef.dispatch,
		Metrics:  ef.reg, MetricsPrefix: "transport.recv.CE1",
	})
	if err != nil {
		return nil, err
	}
	if ef.pub, err = transport.NewUDPPublisher(ef.recv.Addr()); err != nil {
		return nil, err
	}
	ef.pub.SetMetrics(ef.reg, "dm")
	ok = true
	return ef, nil
}

// dispatch is the receiver's Dispatch callback: Engine.InjectBatch, with
// the clock read around it on sampled runs. It runs on the socket's read
// goroutine, so time blocked on a full shard queue is in the span.
func (ef *engineFleet) dispatch(v event.VarName, us []event.Update) {
	var sc scope
	if id, ok := ef.tr.sampledIn(us[0].SeqNo, len(us)); ok {
		sc = ef.tr.scope(&ef.tr.ce[0], 1, ef.sp.vars, v, id)
	}
	ef.pr.tick(8)
	t0 := sc.now()
	err := ef.eng.InjectBatch(v, us)
	sc.add(spFront, t0, t0) // start joined to the Publish return after the run
	sc.add(spInject, t0, sc.now())
	ef.fail(err)
	ef.injected.Add(int64(len(us)))
}

// fail keeps the first error the engine reported, for close to return.
func (ef *engineFleet) fail(err error) {
	if err == nil {
		return
	}
	ef.errMu.Lock()
	if ef.err == nil {
		ef.err = err
	}
	ef.errMu.Unlock()
}

func (ef *engineFleet) publisher() *transport.UDPPublisher { return ef.pub }

func (ef *engineFleet) start() {
	ef.lat.samples, ef.lat.ends = make([]int64, 0, 1<<20), make([]int64, 0, 1<<20)
	if ef.reg == nil {
		return
	}
	// Traced run: sample the shard queue gauges every 100 ms.
	ef.stopQueue, ef.queueDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ef.queueDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ef.stopQueue:
				return
			case <-t.C:
				for _, p := range ef.reg.Snapshot() {
					if strings.HasPrefix(p.Name, "engine.shard.") && strings.HasSuffix(p.Name, ".queue") && p.Value > ef.queueMax.Load() {
						ef.queueMax.Store(p.Value)
					}
				}
			}
		}
	}()
}

func (ef *engineFleet) release()              {}
func (ef *engineFleet) processed() int64      { return ef.injected.Load() }
func (ef *engineFleet) alertsInFlight() int64 { return 0 }
func (ef *engineFleet) latencies() *latLog    { return &ef.lat }

// quiesce waits for the receiver to have injected everything published,
// then drains the engine: every update evaluated, every alert filtered.
func (ef *engineFleet) quiesce(sent int64) {
	waitStable(func() (int64, bool) {
		n := ef.injected.Load()
		return n, n >= sent
	})
	t0 := now()
	err := ef.eng.Drain()
	t1 := now()
	ef.drainTook = time.Duration(t1 - t0)
	if ef.tr != nil {
		ef.tr.ad.add(span{name: spDrain, start: t0, end: t1})
	}
	ef.fail(err)
}

func (ef *engineFleet) close() error {
	if ef.stopQueue != nil {
		close(ef.stopQueue)
		<-ef.queueDone
		ef.stopQueue = nil
	}
	if ef.pub != nil {
		ef.pub.Close()
	}
	if ef.recv != nil {
		ef.recv.Close()
	}
	var first error
	if ef.eng != nil {
		_, first = ef.eng.Close()
	}
	ef.errMu.Lock()
	defer ef.errMu.Unlock()
	if ef.err != nil {
		return ef.err
	}
	return first
}
