//go:build linux

package main

import (
	"fmt"
	"runtime"
	"time"

	"condmon/internal/event"
	"condmon/internal/obs"
	"condmon/internal/wire"
)

// layerMetrics turns a traced run's spans, registry counters and fleet
// counters into the per-layer metrics, and writes the span file.
func layerMetrics(res *result, sys system, gen *generator, tr *tracer, proc procSample, ms runtime.MemStats) error {
	m := res.layer
	spans := joinTransits(tr.all())

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	m["transport.publish_ns"] = mean(durations(spans, spPublish))
	front := sortedCopy(durations(spans, spFront))
	m["transport.front_transit_us_p50"] = us(percentile(front, 0.50))
	m["transport.front_transit_us_p99"] = us(percentile(front, 0.99))
	m["ce.feed_ns"] = mean(durations(spans, spFeed))
	m["transport.mux_send_ns"] = mean(durations(spans, spMuxSend))
	back := sortedCopy(durations(spans, spBack))
	m["transport.back_transit_us_p50"] = us(percentile(back, 0.50))
	m["transport.back_transit_us_p99"] = us(percentile(back, 0.99))
	m["ad.offer_ns"] = mean(durations(spans, spOffer))
	m["audit.observe_ns"] = mean(durations(spans, spAudit))
	m["durable.accept_ns"] = mean(durations(spans, spAccept))
	inject := sortedCopy(durations(spans, spInject))
	m["runtime.inject_ns"] = mean(inject)
	m["runtime.inject_ns_p99"] = float64(percentile(inject, 0.99))
	m["display.write_ns"] = mean(durations(spans, spDisplay))
	m["display.latency_p999_ms"] = float64(percentile(res.latAll, 0.999)) / 1e6

	m["workload.gen_late_p99_us"] = us(percentile(sortedCopy(gen.late), 0.99))
	m["workload.updates"] = float64(res.updates)

	m["proc.heap_peak_mb"] = float64(proc.heapPeak) / (1 << 20)
	m["proc.gc_cycles"] = float64(ms.NumGC)
	m["proc.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["proc.goroutines"] = float64(proc.goroutines)
	m["proc.speed_index"] = res.speed()

	sys.layerMetrics(m)
	wireMetrics(m, res.cfg.sp, gen.in, sys)

	m["trace.spans"] = float64(len(spans))
	if res.cfg.sp.open() {
		// The stage budget: on the open loop every id is recorded, latency is
		// the product, and its spans must account for it.
		share, checked := unaccounted(spans)
		m["trace.unaccounted_share"] = share
		res.check(1, boolCount(checked == 0 || share > 0.10),
			fmt.Sprintf("stage budgets closing within 10%% (trace.unaccounted_share %.4f over %d alerts)", share, checked))
	}
	res.check(1, boolCount(tr.dropped() > 0), fmt.Sprintf("span buffers large enough (%d spans dropped)", tr.dropped()))

	path, err := writeSpans(res.cfg.outDir, res.cfg.sp.name, res.cfg.sp.vars, spans)
	if err != nil {
		return err
	}
	res.spans = path
	return nil
}

// counters reads a registry snapshot into a name → value map.
func counters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range reg.Snapshot() {
		out[p.Name] = float64(p.Value)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (f *fleet) layerMetrics(m map[string]float64) {
	c := counters(f.reg)
	var fed, discarded, fired, muxAlerts, muxFrames float64
	for r := 0; r < 2; r++ {
		ce := fmt.Sprintf("CE%d", r+1)
		for _, k := range []string{"accepted", "discarded", "overrun", "forced_loss"} {
			m["transport.recv_"+k] += c["transport.recv."+ce+"."+k]
		}
		m["transport.mux_flushes"] += c["transport.mux."+ce+".flushes"]
		muxAlerts += c["transport.mux."+ce+".alerts"]
		muxFrames += c["transport.mux."+ce+".frames"]
		nFed, nDisc, _ := f.eval[r].Stats()
		fed, discarded = fed+float64(nFed), discarded+float64(nDisc)
		fired += float64(f.fired[r].Load())
	}
	m["transport.mux_alerts_per_frame"] = ratio(muxAlerts, muxFrames)
	m["transport.mux_item_errors"] = c["transport.muxrecv.item_errors"]
	m["transport.publish_datagrams"] = c["dm.datagrams"]
	m["transport.updates_per_datagram"] = ratio(c["dm.updates"]*2, c["dm.datagrams"])
	m["ce.fed"], m["ce.discarded"], m["ce.fired"] = fed, discarded, fired
	m["ce.fire_ratio"] = ratio(fired, fed)
	m["ad.offered"] = float64(f.offered.Load())
	m["ad.displayed"] = float64(f.shownN)
	m["ad.suppressed"] = float64(f.suppress)
	m["ad.display_ratio"] = ratio(float64(f.shownN), float64(f.offered.Load()))
	if f.aud != nil {
		m["audit.violations"] = float64(f.aud.Report().Violations)
	}
	if f.wal != nil {
		m["durable.wal_appends"] = c["durable.wal.appends"]
		m["durable.wal_compactions"] = c["durable.wal.compactions"]
		m["durable.wal_bytes"] = float64(f.walSize)
	}
}

func (ef *engineFleet) layerMetrics(m map[string]float64) {
	c := counters(ef.reg)
	for _, k := range []string{"accepted", "discarded", "overrun", "forced_loss"} {
		m["transport.recv_"+k] = c["transport.recv.CE1."+k]
	}
	m["transport.publish_datagrams"] = c["dm.datagrams"]
	m["transport.updates_per_datagram"] = ratio(c["dm.updates"], c["dm.datagrams"])
	m["ce.fed"], m["ce.discarded"], m["ce.fired"] = c["engine.ce.fed"], c["engine.ce.discarded"], c["engine.ce.fired"]
	m["ce.fire_ratio"] = ratio(c["engine.ce.fired"], c["engine.ce.fed"])
	demux := ef.eng.Demux()
	shown, suppressed := float64(demux.DisplayedCount()), float64(demux.Suppressed())
	m["runtime.displayed"], m["runtime.suppressed"] = shown, suppressed
	m["runtime.fenced"] = float64(demux.Fenced())
	m["ad.offered"], m["ad.displayed"], m["ad.suppressed"] = shown+suppressed, shown, suppressed
	m["ad.display_ratio"] = ratio(shown, shown+suppressed)
	m["runtime.queue_depth_max"] = float64(ef.queueMax.Load())
	m["runtime.drain_ms"] = float64(ef.drainTook) / float64(time.Millisecond)
	m["runtime.register_us_per_cond"] = float64(ef.registerTook.Microseconds()) / float64(len(ef.conds))
}

// wireMetrics times the codecs alone, after the clock has stopped, on the
// workload's own first frames: the update frames the publisher sent first
// (rebuilt from the value tables) and the first alerts replica 1 sent. It
// splits the two transit spans into codec and kernel/queue time.
func wireMetrics(m map[string]float64, sp *spec, in *inputs, sys system) {
	frames := make([][]byte, 0, wireSample)
	next := make([]int64, len(sp.vars))
	run := make([]event.Update, sp.perDatagram)
	var nUpdates, nBytes int
	t0 := time.Now()
	for k := 0; k < wireSample; k++ {
		v := k % len(sp.vars)
		for i := range run {
			next[v]++
			run[i] = event.Update{Var: sp.vars[v], SeqNo: next[v], Value: in.value(v, next[v])}
		}
		var b []byte
		var err error
		if len(run) == 1 {
			b, err = wire.AppendUpdate(nil, run[0])
		} else {
			b, err = wire.AppendBatch(nil, sp.vars[v], run)
		}
		if err != nil {
			return
		}
		frames = append(frames, b)
		nUpdates += len(run)
		nBytes += len(b)
	}
	m["wire.encode_update_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(nUpdates)
	m["wire.update_bytes_per_update"] = float64(nBytes) / float64(nUpdates)

	intern := func(name []byte) event.VarName {
		for _, v := range sp.vars {
			if string(v) == string(name) {
				return v
			}
		}
		return event.VarName(name)
	}
	scratch := make([]event.Update, 0, sp.perDatagram)
	t0 = time.Now()
	for _, b := range frames {
		if sp.perDatagram == 1 {
			_, _, _ = wire.DecodeUpdateInto(b, intern)
		} else {
			_, _, _, _ = wire.DecodeBatchInto(b, scratch[:0], intern)
		}
	}
	m["wire.decode_update_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(nUpdates)

	f, ok := sys.(*fleet)
	if !ok || len(f.firstSent) == 0 {
		return
	}
	// Alerts travel in 'M' frames; replay them 32 to a frame.
	var muxFrames [][]byte
	nBytes = 0
	t0 = time.Now()
	for i := 0; i < len(f.firstSent); i += 32 {
		j := i + 32
		if j > len(f.firstSent) {
			j = len(f.firstSent)
		}
		b, err := wire.AppendMux(nil, 1, f.firstSent[i:j])
		if err != nil {
			return
		}
		muxFrames = append(muxFrames, b)
		nBytes += len(b)
	}
	n := float64(len(f.firstSent))
	m["wire.encode_alert_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	m["wire.alert_bytes_per_alert"] = float64(nBytes) / n
	t0 = time.Now()
	for _, b := range muxFrames {
		_, _, _, _ = wire.DecodeMux(b)
	}
	m["wire.decode_alert_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}
