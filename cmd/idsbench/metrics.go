package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported number and its unit. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; the smoke test holds the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the numbers a user of the system sees, reported by every
// workload from the untraced run. An "op" is the workload's unit of
// account: one scorecard (quick, full), one at-scale run (scale), or
// one stream from Hello to scorecard (serve). Op times are in "ref":
// multiples of the host reference kernel's time measured right around
// the op (see hostRef).
var endToEnd = []metricDef{
	// Fresh process start → ready for the first timed op, including one
	// untimed warm-up op; the median of several cold starts. For serve
	// the process is idsevald.
	{"setup_s", "s"},
	// Median over ops of op wall time ÷ reference time.
	{"op_p50_ref", "ref"},
	// CPU time of the process under test per op ÷ reference time.
	{"cpu_ref_per_op", "ref"},
	// runtime.MemStats.TotalAlloc of the process under test per op.
	{"alloc_mb_per_op", "MB"},
	// Peak resident set of the process under test: the median over ops
	// of VmHWM, reset before each op (for serve, whose streams overlap,
	// over one-second windows).
	{"peak_rss_mb", "MB"},
}

// cpuModules are the repo modules whose share of the CPU profile is
// reported as <module>.cpu_share. Samples elsewhere in the repo or in
// the standard library count as other.cpu_share; runtime.* counts as
// runtime.cpu_share.
var cpuModules = []string{
	"traffic", "simtime", "netsim", "detect", "ids", "eval", "attack",
	"packet", "trace", "serve", "campaign", "fsio", "obs",
}

// perLayer are the numbers of single layers, reported by every workload
// from the traced run. A layer the workload does not exercise from the
// benchmark's vantage point reports 0, as does a tail percentile with
// fewer than minBeyond samples beyond it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The untraced loop's raw numbers behind op_p50_ref and
		// cpu_ref_per_op, and the reference time they were divided by.
		{"op_p50_s", "s"},
		{"cpu_s_per_op", "s"},
		{"host.ref_ms", "ms"},
		{"trace_overhead_frac", "ratio"},
		{"traffic.calibrate_ms", "ms"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_share", "frac"})
	}
	return append(defs, []metricDef{
		{"runtime.cpu_share", "frac"},
		{"other.cpu_share", "frac"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.mallocs_per_op", "count"},
		{"simtime.ns_per_event", "ns"},
		{"simtime.shard.busy_frac", "frac"},
		{"simtime.shard.blocked_frac", "frac"},
		{"simtime.shard.idle_frac", "frac"},
		{"simtime.shard.barrier_stall_p99_us", "us"},
		{"simtime.shard.windows_per_op", "count"},
		{"simtime.shard.cross_msgs_per_op", "count"},
		{"netsim.tapped_pkts_per_op", "count"},
		{"netsim.mirror_drops_per_op", "count"},
		{"detect.scan_mb_per_s", "MB/s"},
		{"detect.bytes_per_op", "MB"},
		{"ids.ingested_per_op", "count"},
		{"ids.sensor_drop_ratio", "ratio"},
		{"eval.accuracy_s", "s"},
		{"eval.throughput_s", "s"},
		{"eval.latency_s", "s"},
		{"eval.impact_s", "s"},
		{"eval.sweep_s", "s"},
		{"eval.critical_path_s", "s"},
		{"eval.throughput_probes_per_op", "count"},
		{"report.rank_render_ms", "ms"},
		{"trace.decode_mb_per_s", "MB/s"},
		{"fsio.append_sync_us_p50", "us"},
		{"fsio.append_sync_us_p99", "us"},
		{"serve.ack_ns_p50", "ns"},
		{"serve.ack_ns_p99", "ns"},
		{"serve.client_ack_ms_p50", "ms"},
		{"serve.client_ack_ms_p99", "ms"},
		{"serve.wire_us_p50", "us"},
		{"serve.upload_s_p50", "s"},
		{"serve.eval_s_p50", "s"},
		{"serve.queue_wait_s_p90", "s"},
		{"serve.stream_p90_s", "s"},
		{"serve.ingest_mb_per_s", "MB/s"},
		{"campaign.checkpoint_write_ms_p50", "ms"},
		{"campaign.experiments_per_op", "count"},
	}...)
}()

// zeroLayers is the per-layer set with every value 0: what a workload
// that exercises none of the layers would report.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict for one workload run: the last line
// of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// fillMetrics turns raw values into the reported set for a run. Every
// defined metric must be present in raw; a missing one is a bug in the
// workload that measured it, and extra names are refused the same way.
func fillMetrics(defs []metricDef, raw map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range raw {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
