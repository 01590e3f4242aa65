package eval

import (
	"time"

	"repro/internal/obs"
)

// This file is the obs→scorecard bridge: it distills a product
// evaluation's raw results into the class-3 performance quantities the
// paper scores on, and publishes them as "scorecard.*" telemetry so the
// exported dump carries the same numbers the report prints.
//
// Determinism contract: everything here is derived from result structs
// that are computed identically whether telemetry export is enabled or
// not. Telemetry observes; it never perturbs.

// delayStats summarizes detection delays through the same fixed-bucket
// histogram estimator the telemetry subsystem exports, so the
// percentiles in AccuracyResult and in the telemetry dump are one
// number, not two estimators that drift apart. Returns zeros and a nil
// snapshot when nothing was detected.
func delayStats(delays []time.Duration) (p50, p95, p99 time.Duration, snap *obs.HistSnap) {
	if len(delays) == 0 {
		return 0, 0, 0, nil
	}
	h := obs.NewHistogram("eval.detection_delay_ns", obs.ClockSim, nil)
	for _, d := range delays {
		h.Observe(int64(d))
	}
	snap = h.Snap()
	return snap.QuantileDuration(0.5), snap.QuantileDuration(0.95), snap.QuantileDuration(0.99), snap
}

// Telemetry is the structured snapshot of scorecard-grade performance
// quantities for one product: the class-3 metrics of the paper
// (timeliness, pipeline loss, scan throughput, operator workload,
// induced latency) in raw physical units, before scoring discretizes
// them to 0–4.
type Telemetry struct {
	Product string `json:"product"`

	// Detection latency distribution (sim clock).
	DelayP50 time.Duration `json:"delay_p50"`
	DelayP95 time.Duration `json:"delay_p95"`
	DelayP99 time.Duration `json:"delay_p99"`

	// Pipeline loss: packets the product never inspected, as a fraction
	// of packets offered to the tap (mirror-link drops + sensor queue
	// drops over tap-offered = ingested + tap drops).
	DropRatio   float64 `json:"drop_ratio"`
	TapDrops    uint64  `json:"tap_drops"`
	SensorDrops uint64  `json:"sensor_drops"`
	Ingested    uint64  `json:"ingested"`
	Processed   uint64  `json:"processed"`

	// ScanThroughputPps is processed packets per second of summed
	// sensor busy time (sim clock) — the sensors' demonstrated scan
	// rate, independent of offered load.
	ScanThroughputPps float64 `json:"scan_throughput_pps"`

	// Operator workload: what the monitor pushed at a human.
	Incidents     int `json:"incidents"`
	Notifications int `json:"notifications"`
	FalseAlarms   int `json:"false_alarms"`

	// Induced traffic latency (sim clock): mean and tail.
	InducedLatency    time.Duration `json:"induced_latency"`
	InducedLatencyP95 time.Duration `json:"induced_latency_p95"`
}

// BuildTelemetry distills a completed evaluation into its Telemetry
// summary. Nil sub-results (a partially-run evaluation) contribute
// zeros.
func BuildTelemetry(ev *ProductEvaluation) *Telemetry {
	t := &Telemetry{Product: ev.Spec.Name}
	if acc := ev.Accuracy; acc != nil {
		t.DelayP50, t.DelayP95, t.DelayP99 = acc.DelayP50, acc.DelayP95, acc.DelayP99
		t.TapDrops = acc.TapDrops
		t.SensorDrops = acc.SensorDrops
		t.Ingested = acc.IngestedPkts
		t.Processed = acc.ProcessedPkts
		if offered := acc.IngestedPkts + acc.TapDrops; offered > 0 {
			t.DropRatio = float64(acc.TapDrops+acc.SensorDrops) / float64(offered)
		}
		if acc.SensorBusy > 0 {
			t.ScanThroughputPps = float64(acc.ProcessedPkts) / acc.SensorBusy.Seconds()
		}
		t.Incidents = acc.ReportedIncidents
		t.Notifications = acc.Notifications
		t.FalseAlarms = acc.FalseAlarms
	}
	if lat := ev.Latency; lat != nil {
		t.InducedLatency = lat.Induced
		t.InducedLatencyP95 = lat.InducedP95
	}
	return t
}

// Publish writes the summary into reg as "scorecard.*" gauges — the
// class-3 scorecard quantities in the telemetry dump's own vocabulary.
// Ratios are published in parts per million to stay integral. No-op on
// a nil registry.
func (t *Telemetry) Publish(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Gauge("scorecard.detection_delay_p50_ns").Set(int64(t.DelayP50))
	reg.Gauge("scorecard.detection_delay_p95_ns").Set(int64(t.DelayP95))
	reg.Gauge("scorecard.detection_delay_p99_ns").Set(int64(t.DelayP99))
	reg.Gauge("scorecard.drop_ratio_ppm").Set(int64(t.DropRatio * 1e6))
	reg.Gauge("scorecard.scan_throughput_pps").Set(int64(t.ScanThroughputPps))
	reg.Gauge("scorecard.operator_incidents").Set(int64(t.Incidents))
	reg.Gauge("scorecard.operator_notifications").Set(int64(t.Notifications))
	reg.Gauge("scorecard.false_alarms").Set(int64(t.FalseAlarms))
	reg.Gauge("scorecard.induced_latency_ns").Set(int64(t.InducedLatency))
	reg.Gauge("scorecard.induced_latency_p95_ns").Set(int64(t.InducedLatencyP95))
}

// publishMeasurementHists files the always-on measurement-level
// histograms (detection delays, latency probes) in reg, so the export
// carries full distributions, not just the derived percentiles.
func (ev *ProductEvaluation) publishMeasurementHists(reg *obs.Registry) {
	if acc := ev.Accuracy; acc != nil {
		reg.AdoptHist(acc.DelayHist)
	}
	if lat := ev.Latency; lat != nil {
		reg.AdoptHist(lat.BaselineHist)
		reg.AdoptHist(lat.WithIDSHist)
	}
}
