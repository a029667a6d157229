//go:build linux

package main

// metricDef names one reported metric with its unit. The two tables below
// are the single source for what the benchmark prints; BENCHMARK.json must
// declare exactly these names (TestBenchmarkJSONAgreesWithMetrics).
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics of an untraced run, in print order. They are
// what a user of the fleet sees: how long it takes to come up, how many
// updates it carries, how long an alert takes to reach the display, and
// what an update costs in CPU and allocations.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"alert_latency_p50_ms", "ms"},
	{"alert_latency_p99_ms", "ms"},
	{"cpu_us_per_update", "us"},
	{"allocs_per_update", "1"},
}

// perLayer lists the metrics of a traced run, in print order. The prefix
// of each name is the module (internal/<prefix>) whose call the harness
// timed or counted from outside; workload, proc and trace describe the
// harness itself. A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"transport.publish_ns", "ns"},
	{"transport.publish_datagrams", "count"},
	{"transport.updates_per_datagram", "1"},
	{"transport.front_transit_us_p50", "us"},
	{"transport.front_transit_us_p99", "us"},
	{"transport.recv_accepted", "count"},
	{"transport.recv_discarded", "count"},
	{"transport.recv_overrun", "count"},
	{"transport.recv_forced_loss", "count"},
	{"wire.encode_update_ns", "ns"},
	{"wire.decode_update_ns", "ns"},
	{"wire.encode_alert_ns", "ns"},
	{"wire.decode_alert_ns", "ns"},
	{"wire.update_bytes_per_update", "B"},
	{"wire.alert_bytes_per_alert", "B"},
	{"ce.feed_ns", "ns"},
	{"ce.fed", "count"},
	{"ce.fired", "count"},
	{"ce.discarded", "count"},
	{"ce.fire_ratio", "1"},
	{"transport.mux_send_ns", "ns"},
	{"transport.back_transit_us_p50", "us"},
	{"transport.back_transit_us_p99", "us"},
	{"transport.mux_alerts_per_frame", "1"},
	{"transport.mux_flushes", "count"},
	{"transport.mux_item_errors", "count"},
	{"ad.offer_ns", "ns"},
	{"ad.offered", "count"},
	{"ad.displayed", "count"},
	{"ad.suppressed", "count"},
	{"ad.display_ratio", "1"},
	{"audit.observe_ns", "ns"},
	{"audit.violations", "count"},
	{"durable.accept_ns", "ns"},
	{"durable.wal_appends", "count"},
	{"durable.wal_compactions", "count"},
	{"durable.wal_bytes", "B"},
	{"runtime.inject_ns", "ns"},
	{"runtime.inject_ns_p99", "ns"},
	{"runtime.queue_depth_max", "count"},
	{"runtime.drain_ms", "ms"},
	{"runtime.displayed", "count"},
	{"runtime.suppressed", "count"},
	{"runtime.fenced", "count"},
	{"runtime.register_us_per_cond", "us"},
	{"display.write_ns", "ns"},
	{"display.latency_p999_ms", "ms"},
	{"workload.gen_late_p99_us", "us"},
	{"workload.updates", "count"},
	{"proc.heap_peak_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"proc.goroutines", "count"},
	{"proc.speed_index", "1"},
	{"trace.overhead_share", "1"},
	{"trace.spans", "count"},
	{"trace.unaccounted_share", "1"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs every definition with its measured value; a name the run
// did not set reports 0 (a layer the workload does not use).
func render(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
