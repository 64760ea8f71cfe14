package main

import (
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics an untraced run puts on its result line, the
// ones BENCHMARK.json bounds. Every workload has them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "queries/s"},
	{"requests_per_s", "req/s"},
	{"query_p50_ms", "ms"},
	{"server_rss_mib", "MiB"},
}

// extraEndToEnd are end-to-end metrics printed on the report lines only:
// /reconstruct and /insert latencies and records/s exist on one workload
// each, failed_frac is 0 in every correct run, and query_p99_ms spread
// 20-70% between runs on a 2-vCPU Xeon VM, beyond any bound the result
// line may carry (see perfbench/layers.json).
var extraEndToEnd = []metricDef{
	{"query_p99_ms", "ms"},
	{"records_per_s", "records/s"},
	{"recon_p50_ms", "ms"},
	{"recon_p99_ms", "ms"},
	{"insert_p50_ms", "ms"},
	{"insert_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// spanLayers are the per-layer metrics measured as span self time in the
// traced run. Each is printed as its median per request, plus a call count
// (.calls) and the run's total self time (.total_ms). The unit sets the
// scale of the median.
var spanLayers = []metricDef{
	{"loadgen.check_us", "us"},
	{"serve.map_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.json_us", "us"},
	{"serve.insert_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.insert_decode_us", "us"},
	{"budget.charge_ns", "ns"},
	{"query.answer_us", "us"},
	{"query.delta_us", "us"},
	{"query.compact_ms", "ms"},
	{"reconstruct.batch_us", "us"},
	{"core.add_ns", "ns"},
	{"core.flush_us", "us"},
	{"fleet.fanout_us", "us"},
	{"fleet.checkpoint_ms", "ms"},
	{"datagen.generate_ms", "ms"},
	{"chimerge.analyze_ms", "ms"},
	{"dataset.group_ms", "ms"},
	{"core.publish_ms", "ms"},
	{"query.index_ms", "ms"},
}

// sampleLayers are per-layer metrics with one derived sample per request,
// printed as the median plus a .calls count.
var sampleLayers = []metricDef{
	{"http.outside_us", "us"},
	{"serve.handler_us", "us"},
	{"fleet.outside_us", "us"},
	{"fleet.router_us", "us"},
	{"fleet.transport_us", "us"},
	{"query.ns_per_query", "ns"},
	{"query.generations", "count"},
}

// counterLayers are per-layer ratios and counts read from responses,
// /statsz or the in-process copies.
var counterLayers = []metricDef{
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"serve.compactions_per_append", "ratio"},
	{"budget.tracked", "count"},
	{"core.trial_frac", "ratio"},
	{"fleet.attempts_per_req", "ratio"},
	{"fleet.verified_frac", "ratio"},
	{"fleet.failovers", "count"},
	{"fleet.shed", "count"},
	{"fleet.checkpoints_per_kinsert", "count"},
	{"trace.overhead_query_p50_ms", "ms"},
	{"trace.overhead_requests_per_s", "req/s"},
}

// unitScale converts nanoseconds to a metric's unit.
func unitScale(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	return 1
}

// perLayer lists every per-layer metric a traced run prints, in order.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range spanLayers {
		out = append(out, m, metricDef{m.Name + ".calls", "count"}, metricDef{m.Name + ".total_ms", "ms"})
	}
	for _, m := range sampleLayers {
		out = append(out, m, metricDef{m.Name + ".calls", "count"})
	}
	return append(out, counterLayers...)
}

// spanLayerValues fills the per-layer metrics measured from spans and
// derived samples of the traced phase.
func spanLayerValues(o *outcome, samples map[string][]float64) {
	if o.cold != nil {
		o.spans = append(o.cold.spans, o.spans...)
	}
	agg := aggregate(o.spans)
	for _, m := range spanLayers {
		st := agg[strings.TrimSuffix(m.Name, "_"+m.Unit)]
		if st == nil {
			continue
		}
		per := st.PerReq
		if m.Name == "fleet.fanout_us" {
			per = st.PerReqDur // the fan-out's work is its holders' handlers
		}
		var total float64
		for _, v := range per {
			total += v
		}
		v := median(per) / unitScale(m.Unit)
		if m.Name == "core.add_ns" {
			v /= insertBatch // one span covers a batch's Add calls
		}
		o.layers[m.Name] = v
		o.layers[m.Name+".calls"] = float64(st.Calls)
		o.layers[m.Name+".total_ms"] = total / 1e6
	}
	for _, m := range sampleLayers {
		if xs := samples[m.Name]; len(xs) > 0 {
			o.layers[m.Name] = median(xs)
			o.layers[m.Name+".calls"] = float64(len(xs))
		}
	}
}

// responseLayerValues fills the per-layer metrics read from the untraced
// phase's /query responses: the time outside the handler (reported under
// outside), the handler's own serve_us, and bytes on the wire.
func responseLayerValues(o *outcome, outside string) {
	t := o.tally
	lat, sus := t.latMS[opQuery], t.serveUS[opQuery]
	out := make([]float64, len(lat))
	handler := make([]float64, len(lat))
	for i := range lat {
		out[i] = outsideMicros(time.Duration(lat[i]*1e6), sus[i])
		handler[i] = float64(sus[i])
	}
	o.layers[outside] = median(out)
	o.layers[outside+".calls"] = float64(len(out))
	o.layers["serve.handler_us"] = median(handler)
	o.layers["serve.handler_us.calls"] = float64(len(handler))
	if t.nBytes > 0 {
		o.layers["wire.req_bytes"] = float64(t.bytesOut) / float64(t.nBytes)
		o.layers["wire.resp_bytes"] = float64(t.bytesIn) / float64(t.nBytes)
	}
}
