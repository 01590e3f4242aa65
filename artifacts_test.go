package repro_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/ids"
	"repro/internal/products"
)

// TestPaperArtifacts asserts by value the numbers EXPERIMENTS.md quotes
// for the ablations and the extension whose measurements run through a
// single-server queue: a sensor's processing budget, which the zero-loss
// searches probe and the dynamic balancer reads, or the watch-stander's
// triage queue. It also pins Lesson 1, which runs the synthesized
// payloads end to end, and the Section-2.1 host-logging overhead. Each
// case calls the function its benchmark reports from.
func TestPaperArtifacts(t *testing.T) {
	cases := []struct {
		name string
		got  func() (any, error)
		want any
	}{
		{"load-balancing/static", func() (any, error) { return pps(loadBalancingZeroLoss(ids.BalancerStatic)) }, 30457.0},
		{"load-balancing/flow-hash", func() (any, error) { return pps(loadBalancingZeroLoss(ids.BalancerFlowHash)) }, 54783.0},
		{"load-balancing/dynamic", func() (any, error) { return pps(loadBalancingZeroLoss(ids.BalancerDynamic)) }, 66625.0},
		{"data-pool/all-traffic", func() (any, error) { return pps(dataPoolZeroLoss(nil)) }, 45046.0},
		{"data-pool/cluster-excluded", func() (any, error) { return pps(dataPoolZeroLoss(ids.ClusterExclusionPool())) }, 262144.0},
		{"tap-mode/mirror", func() (any, error) { return tapInducedLatency(eval.TapMirror) }, time.Duration(0)},
		{"tap-mode/inline", func() (any, error) { return tapInducedLatency(eval.TapInline) }, 72440 * time.Nanosecond},
		{"separation/fused", func() (any, error) { return usec(separationDelay(false)) }, "553577 µs"},
		{"separation/separated", func() (any, error) { return usec(separationDelay(true)) }, "554720 µs"},
		{"human/StreamHunter", func() (any, error) { return humanCounts(humanDimension(products.StreamHunter())) },
			"27 notifications, 15 unseen, 2/7 acted on"},
		{"human/NetRecorder", func() (any, error) { return humanCounts(humanDimension(products.NetRecorder())) },
			"5 notifications, 0 unseen, 5/7 acted on"},
		{"lesson1/realistic", func() (any, error) { return falseAlarms(lesson1Accuracy(false)) },
			"22 false alarms (ratio 0.0824)"},
		{"lesson1/random", func() (any, error) { return falseAlarms(lesson1Accuracy(true)) },
			"0 false alarms (ratio 0.0000)"},
		{"host-logging/nominal", func() (any, error) { return loggingCost(hostLoggingOverhead(products.TrueSecure())) },
			"4.0% CPU, 0/1800 deadline misses"},
		{"host-logging/C2", func() (any, error) { return loggingCost(hostLoggingOverhead(products.AgentSwarm())) },
			"20.0% CPU, 1500/1800 deadline misses"},
	}
	for _, c := range cases {
		got, err := c.got()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

// pps rounds a zero-loss throughput to the whole packets per second
// EXPERIMENTS.md quotes.
func pps(x float64, err error) (any, error) { return math.Round(x), err }

// usec renders a delay in whole microseconds, as its benchmark reports it.
func usec(d time.Duration, err error) (any, error) {
	return fmt.Sprintf("%d µs", d.Microseconds()), err
}

// humanCounts renders the human-dimension outcome EXPERIMENTS.md quotes.
func humanCounts(res *eval.HumanResult, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return fmt.Sprintf("%d notifications, %d unseen, %d/%d acted on",
		res.Notifications, res.Report.Unseen, res.HumanActedOn, res.ActualIncidents), nil
}

// falseAlarms renders a Lesson-1 run as its benchmark prints it.
func falseAlarms(res *eval.AccuracyResult, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return fmt.Sprintf("%d false alarms (ratio %.4f)", res.FalseAlarms, res.FalsePositiveRatio), nil
}

// loggingCost renders a host-logging measurement as its benchmark
// prints it.
func loggingCost(res *eval.ImpactResult, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return fmt.Sprintf("%.1f%% CPU, %d/%d deadline misses",
		res.OverheadFraction*100, res.DeadlineMisses, res.JobsCompleted), nil
}
