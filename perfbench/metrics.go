package main

import (
	"fmt"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run. An operation is a sample analysed and published
// (corpus-*) or one host sync cycle (fleet-*).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerSpans are the spans the traced run records around each call
// into a layer; each reports calls, busy and self time per pass, and
// exact p50 and p99 latency.
var layerSpans = []string{
	"core.sample",
	"static.triage",
	"static.prefilter",
	"core.phase1",
	"core.phase2",
	"clinic.run",
	"fleet.publish",
	"fleet.wave",
	"fleet.relay.pull",
	"fleet.agent.sync",
	"http.packs",
	"http.checkin",
	"fleet.server.packs_200",
	"fleet.server.packs_304",
	"fleet.server.checkin",
	"fleet.codec.decode",
	"deploy.install",
}

// layerCounts are per-pass counts recorded at the same boundaries as
// the spans (see perLayer).
var layerCounts = []metricDef{
	{"core.phase1.steps", "count"},
	{"core.phase1.candidates", "count"},
	{"core.phase2.vaccines", "count"},
	{"core.phase2.rejected_exclusiveness", "count"},
	{"core.phase2.rejected_impact", "count"},
	{"core.phase2.rejected_determinism", "count"},
	{"clinic.run.vaccines_tested", "count"},
	{"clinic.run.benign_runs", "count"},
	{"clinic.run.rejected", "count"},
	{"fleet.publish.vaccines", "count"},
	{"fleet.wal.bytes", "bytes"},
	{"fleet.relay.pull.vaccines", "count"},
	{"fleet.relay.pull.bytes", "bytes"},
	{"fleet.relay.pull.errors", "count"},
	{"http.packs.bytes", "bytes"},
	{"http.checkin.bytes", "bytes"},
	{"fleet.codec.decode.bytes", "bytes"},
	{"deploy.install.vaccines", "count"},
	{"deploy.install.slice_replays", "count"},
	{"fleet.agent.retries", "count"},
	{"fleet.agent.decode_errors", "count"},
}

// layerDerived are the per-layer metrics computed from spans, counts
// and the untraced phase.
var layerDerived = []metricDef{
	{"static.triage.skip_ratio", "ratio"},
	{"static.prefilter.filter_ratio", "ratio"},
	{"core.phase1.steps_per_s", "1/s"},
	{"core.phase2.yield", "ratio"},
	{"fleet.cache.hit_ratio", "ratio"},
	{"converge_p50_ms", "ms"},
	{"converge_p95_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"wire_bytes_per_host", "bytes"},
	{"fail_ratio", "ratio"},
	{"passes", "count"},
	{"trace.overhead.ops_per_s", "1/s"},
	{"trace.overhead.op_p50_ms", "ms"},
	{"trace.overhead.op_p99_ms", "ms"},
}

// perLayerMetrics is every metric a traced run prints, in
// BENCHMARK.json's order.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		out = append(out,
			metricDef{s + ".calls", "count"},
			metricDef{s + ".busy_s", "s"},
			metricDef{s + ".self_s", "s"},
			metricDef{s + ".p50_ms", "ms"},
			metricDef{s + ".p99_ms", "ms"},
		)
	}
	out = append(out, layerCounts...)
	return append(out, layerDerived...)
}()

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics from the traced phase, with
// the runtime, wire and convergence figures and the overhead baseline
// taken from the untraced phase. Calls, busy and self time and counts
// are per pass, so they compare across runs that fit different numbers
// of passes; the deterministic ones repeat exactly. measure records at
// least minOps calls of every span that ran, so every p99 it reports
// has ten calls beyond it.
func perLayer(plain, traced *phase) (map[string]float64, error) {
	out := make(map[string]float64)
	passes := float64(len(traced.passes))
	agg := aggregate(traced.spans, "fleet.agent.sync", "fleet.codec.decode", "deploy.install")
	for _, name := range layerSpans {
		ls := agg[name]
		if ls == nil {
			ls = &layerStats{}
		}
		out[name+".calls"] = float64(ls.calls) / passes
		out[name+".busy_s"] = ls.busy.Seconds() / passes
		out[name+".self_s"] = ls.self.Seconds() / passes
		if ls.calls == 0 {
			continue
		}
		sorted := sortedCopy(ls.durs)
		out[name+".p50_ms"] = ms(quantile(sorted, 0.50))
		p99, err := tailQuantile(sorted, 0.99)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name+".p99_ms"] = ms(p99)
	}
	c := func(name string) float64 { return float64(traced.counts[name]) }
	for _, m := range layerCounts {
		out[m.name] = c(m.name) / passes
	}
	out["static.triage.skip_ratio"] = ratio(c("static.triage.skipped"), c("static.triage.calls"))
	out["static.prefilter.filter_ratio"] = ratio(c("static.prefilter.filtered"), c("static.prefilter.calls"))
	if ls := agg["core.phase1"]; ls != nil {
		out["core.phase1.steps_per_s"] = ratio(c("core.phase1.steps"), ls.busy.Seconds())
	}
	out["core.phase2.yield"] = ratio(c("core.phase2.vaccines"), c("core.phase1.candidates"))
	out["fleet.cache.hit_ratio"] = ratio(c("fleet.cache.hits"), c("fleet.cache.deltas"))

	plainPasses := float64(len(plain.passes))
	ops, hosts, wire := 0, 0, int64(0)
	var waves []time.Duration
	for _, p := range plain.passes {
		ops += len(p.lat)
		hosts += p.hosts
		wire += p.wireBytes
		waves = append(waves, p.waves...)
	}
	if len(waves) > 0 {
		sorted := sortedCopy(waves)
		out["converge_p50_ms"] = ms(quantile(sorted, 0.50))
		p95, err := tailQuantile(sorted, 0.95)
		if err != nil {
			return nil, fmt.Errorf("converge: %w", err)
		}
		out["converge_p95_ms"] = ms(p95)
	}
	out["runtime.alloc_mb_per_op"] = float64(plain.mem.allocBytes) / float64(ops) / (1 << 20)
	out["runtime.gc_cycles"] = float64(plain.mem.gcCycles) / plainPasses
	out["runtime.gc_pause_s"] = plain.mem.gcPause.Seconds() / plainPasses
	out["wire_bytes_per_host"] = ratio(float64(wire), float64(hosts))
	pa, pf := plain.totals()
	ta, tf := traced.totals()
	out["fail_ratio"] = ratio(float64(pf+tf), float64(pa+ta))
	out["passes"] = passes

	pe, err := plain.e2e()
	if err != nil {
		return nil, err
	}
	te, err := traced.e2e()
	if err != nil {
		return nil, err
	}
	for _, m := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms"} {
		out["trace.overhead."+m] = te[m] - pe[m]
	}
	return out, nil
}
