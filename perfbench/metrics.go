package main

import (
	"fmt"
	"math"
)

// metricSpec names one metric the benchmark reports; BENCHMARK.json at
// the repository root lists the same names, units and directions.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// reportIDs are the paper artifacts experiments.Suite.All regenerates,
// in its order; each has a traced experiments.<method>_ms metric.
var reportIDs = []string{
	"Table 1", "Table 2", "Table 3", "Figure 3", "Figure 4", "Figure 5",
	"Figure 6", "Figure 7", "Table 4", "Table 5", "Table 6", "Figure 8", "Figure 9",
}

// reportMetric is the traced metric of one report: "Table 1" becomes
// "experiments.Table1_ms", after the Suite method that builds it.
func reportMetric(id string) string {
	b := []byte("experiments.")
	for i := 0; i < len(id); i++ {
		if id[i] != ' ' {
			b = append(b, id[i])
		}
	}
	return string(append(b, "_ms"...))
}

// perLayer are the metrics of single layers, reported by traced runs.
// A workload that does not exercise a layer reports it as 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		// DoH serving path, from spans around each layer's public calls.
		{"dohclient.exchange_us", "us", "lower"},
		{"dohclient.exchange_p99_us", "us", "lower"},
		{"dohclient.self_us", "us", "lower"},
		{"dohclient.connect_us", "us", "lower"},
		{"dohclient.tls_handshake_us", "us", "lower"},
		{"dohclient.reused_per_query", "ratio", "higher"},
		{"http.self_us", "us", "lower"},
		{"dohserver.handler_us", "us", "lower"},
		{"dohserver.self_us", "us", "lower"},
		{"smart.self_us", "us", "lower"},
		{"smart.attempts_per_query", "ratio", "lower"},
		{"smart.races_per_query", "ratio", "lower"},
		{"smart.destinations", "count", "lower"},
		{"resolver.do53_us", "us", "lower"},
		{"resolver.dot_us", "us", "lower"},
		{"cache.hits_per_query", "ratio", "higher"},
		{"cache.misses_per_query", "ratio", "lower"},
		{"cache.evictions_per_query", "ratio", "lower"},
		// Timed alone on the workload's own questions and messages.
		{"recursive.resolve_hit_us", "us", "lower"},
		{"recursive.resolve_hit_allocs", "count", "lower"},
		{"cache.lookup_ns", "ns", "lower"},
		{"cache.lookup_allocs", "count", "lower"},
		{"authserver.answer_us", "us", "lower"},
		{"dnswire.unpack_ns", "ns", "lower"},
		{"dnswire.unpack_allocs", "count", "lower"},
		{"dnswire.pack_ns", "ns", "lower"},
		{"dnswire.pack_allocs", "count", "lower"},
		// Go runtime, from MemStats deltas of the untraced reference phase.
		{"runtime.gc_per_kop", "count", "lower"},
		{"runtime.gc_pause_us_per_op", "us", "lower"},
		// The trace itself.
		{"trace.self_sum_ratio", "ratio", "lower"},
		{"trace.latency_overhead_ratio", "ratio", "lower"},
		{"trace.cpu_overhead_ratio", "ratio", "lower"},
		// World study, from spans around the study's public calls.
		{"campaign.run_s", "s", "lower"},
		{"campaign.worker_busy_ratio", "ratio", "higher"},
		{"campaign.cpu_us_per_client", "us", "lower"},
		{"analysis.new_ms", "ms", "lower"},
	}
	for _, id := range reportIDs {
		specs = append(specs, metricSpec{reportMetric(id), "ms", "lower"})
	}
	specs = append(specs,
		metricSpec{"campaign.export_ms", "ms", "lower"},
		metricSpec{"campaign.import_ms", "ms", "lower"},
	)
	// World study, replayed call by call through the simulator API.
	for _, c := range replayCalls {
		specs = append(specs,
			metricSpec{c.metric, c.unit, "lower"},
			metricSpec{c.perClient, "count", "lower"},
		)
	}
	return append(specs,
		metricSpec{"anycast.nearest_pop_ns", "ns", "lower"},
		metricSpec{"geo.distance_ns", "ns", "lower"},
		metricSpec{"replay.us_per_client", "us", "lower"},
		metricSpec{"replay.accounted_ratio", "ratio", "higher"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns measured values into the reported metric set: exactly the
// specs, each with its unit, missing ones as 0. A measured value with
// no spec, or one that is not a finite number, is an error in the
// benchmark itself.
func fill(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which is not a reported metric", name)
		}
	}
	return out, nil
}
