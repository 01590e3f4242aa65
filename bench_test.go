// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablations for the design choices DESIGN.md calls out. Each
// benchmark regenerates its artifact (printed once, on the first
// iteration) and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` reproduces the paper's evaluation section
// end to end.
package repro_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/ids"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/requirements"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// onceFor guards one-time artifact printing per benchmark.
var onces sync.Map

func printOnce(name string, f func()) {
	once, _ := onces.LoadOrStore(name, &sync.Once{})
	once.(*sync.Once).Do(f)
}

// staticCards applies every product's static observations plus uniform
// placeholder scores for the measured metrics, for benchmarks that
// exercise scorecard mechanics without the measurement harness.
func staticCards(b *testing.B, reg *core.Registry) []*core.Scorecard {
	b.Helper()
	var cards []*core.Scorecard
	for _, spec := range products.All() {
		card := core.NewScorecard(reg, spec.Name, spec.Version)
		if err := spec.ApplyStatic(card); err != nil {
			b.Fatal(err)
		}
		for _, id := range card.Missing() {
			if err := card.Set(core.Observation{MetricID: id, Score: 2}); err != nil {
				b.Fatal(err)
			}
		}
		cards = append(cards, card)
	}
	return cards
}

// BenchmarkTable1Logistical regenerates Table 1: the logistical metric
// definitions and the product field's statically-observed scores.
func BenchmarkTable1Logistical(b *testing.B) {
	reg := core.StandardRegistry()
	for i := 0; i < b.N; i++ {
		cards := staticCards(b, reg)
		printOnce("table1", func() {
			fmt.Println("\n=== Table 1: selected logistical metrics ===")
			report.MetricTable(os.Stdout, reg, core.Logistical, false)
			fmt.Println()
			report.ScoreMatrix(os.Stdout, reg, core.Logistical, cards, true)
		})
	}
}

// BenchmarkTable2Architectural regenerates Table 2: architectural metric
// definitions plus the measured architectural scores (throughput,
// load-balancing scalability, storage, sensitivity) for one product.
func BenchmarkTable2Architectural(b *testing.B) {
	reg := core.StandardRegistry()
	for i := 0; i < b.N; i++ {
		ev, err := eval.EvaluateProduct(context.Background(), products.StreamHunter(), reg, eval.Options{Seed: 11, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		o, _ := ev.Card.Get(core.MSystemThroughput)
		b.ReportMetric(float64(ev.Throughput.ZeroLossPps), "zero-loss-pps")
		printOnce("table2", func() {
			fmt.Println("\n=== Table 2: selected architectural metrics ===")
			report.MetricTable(os.Stdout, reg, core.Architectural, false)
			fmt.Println()
			report.ScoreMatrix(os.Stdout, reg, core.Architectural, []*core.Scorecard{ev.Card}, true)
			fmt.Printf("(StreamHunter system throughput scored %d: %s)\n", o.Score, o.Note)
		})
	}
}

// BenchmarkTable3Performance regenerates Table 3: the performance metric
// scores from a full measured evaluation of one product.
func BenchmarkTable3Performance(b *testing.B) {
	reg := core.StandardRegistry()
	for i := 0; i < b.N; i++ {
		ev, err := eval.EvaluateProduct(context.Background(), products.TrueSecure(), reg, eval.Options{Seed: 11, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ev.Accuracy.DetectionRate*100, "detection-%")
		printOnce("table3", func() {
			fmt.Println("\n=== Table 3: selected performance metrics ===")
			report.MetricTable(os.Stdout, reg, core.Performance, false)
			fmt.Println()
			report.ScoreMatrix(os.Stdout, reg, core.Performance, []*core.Scorecard{ev.Card}, true)
		})
	}
}

// BenchmarkFigure1Pipeline exercises the generalized network-IDS
// architecture of Figure 1: load balancer -> sensors -> analyzers ->
// monitor -> console over the testbed topology, measuring pipeline
// packet throughput.
func BenchmarkFigure1Pipeline(b *testing.B) {
	tb, err := eval.NewTestbed(products.StreamHunter(), eval.TestbedConfig{
		Seed: 1, TrainFor: 2 * time.Second, BackgroundPps: 400,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Train(); err != nil {
		b.Fatal(err)
	}
	gen := tb.Gen
	b.ResetTimer()
	start := tb.Sim.Now()
	deadline := start
	for i := 0; i < b.N; i++ {
		deadline += 50 * time.Millisecond
		tb.Sim.RunUntil(deadline)
	}
	b.StopTimer()
	gen.Stop()
	st := tb.IDS.Stats()
	b.ReportMetric(float64(st.Processed)/float64(b.N), "pkts/op")
	printOnce("figure1", func() {
		fmt.Printf("\n=== Figure 1 pipeline ===\nprocessed=%d alerts=%d incidents=%d notifications=%d\n",
			st.Processed, st.AlertsRaised, st.Incidents, st.Notifications)
	})
}

// BenchmarkFigure2Cardinality verifies the Figure-2 subprocess
// cardinalities across fan-out configurations: one conditional load
// balancer per sensor pool, sensors mapped M:M onto analyzers, analyzers
// M:1 onto one monitor, monitor 1:1c console.
func BenchmarkFigure2Cardinality(b *testing.B) {
	stub := func() detect.Engine { return detect.NewStandardSignatureEngine() }
	for i := 0; i < b.N; i++ {
		for sensors := 1; sensors <= 8; sensors *= 2 {
			for analyzers := 1; analyzers <= 4; analyzers *= 2 {
				inst, err := ids.New(simtime.New(1), ids.Config{
					Name: "card", Engine: stub,
					Sensors: sensors, Analyzers: analyzers,
					Balancer: ids.BalancerDynamic, HasConsole: sensors%2 == 0,
				})
				if err != nil {
					b.Fatal(err)
				}
				c := inst.Cardinality()
				if c.Monitors != 1 || c.Balancers != 1 || len(c.SensorToAnalyze) != sensors {
					b.Fatalf("cardinality violated: %+v", c)
				}
			}
		}
	}
	printOnce("figure2", func() {
		fmt.Println("\n=== Figure 2 cardinalities hold: LB 1c:M, sensors M:M analyzers, analyzers M:1 monitor, monitor 1:1c console ===")
	})
}

// BenchmarkFigure3ErrorRatios regenerates Figure 3: the false positive
// (Type I) and false negative (Type II) ratios against ground truth,
// |D−A|/|T| and |A−D|/|T|, for every product.
func BenchmarkFigure3ErrorRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range products.All() {
			tb, err := eval.NewTestbed(spec, eval.TestbedConfig{Seed: 11, TrainFor: 8 * time.Second, BackgroundPps: 250})
			if err != nil {
				b.Fatal(err)
			}
			res, err := eval.RunAccuracy(tb, 0.6, 20*time.Second, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			spec := spec
			printOnce("figure3-"+spec.Name, func() {
				fmt.Printf("\n=== Figure 3 error ratios: %s ===\n", spec.Name)
				report.AccuracySummary(os.Stdout, res)
			})
		}
	}
}

// BenchmarkFigure4EqualErrorRate regenerates Figure 4: the Type I / Type
// II error-rate curves across sensitivity and the Equal Error Rate, for
// the hybrid product (both failure directions visible).
func BenchmarkFigure4EqualErrorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := eval.SensitivitySweep(context.Background(), products.TrueSecure(), eval.SweepOptions{
			Seed: 7, Points: 5, TrainFor: 6 * time.Second,
			RunFor: 14 * time.Second, Pps: 200, Strength: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sw.EERValid {
			b.ReportMetric(sw.EER, "eer-sensitivity")
		}
		printOnce("figure4", func() {
			fmt.Println("\n=== Figure 4: error-rate curves and Equal Error Rate (TrueSecure) ===")
			report.ErrorCurves(os.Stdout, sw)
		})
	}
}

// BenchmarkFigure5WeightedScore regenerates Figure 5: the weighted-score
// computation S_j = Σ U_ij · W_ij over complete scorecards, including a
// negative-weight variant.
func BenchmarkFigure5WeightedScore(b *testing.B) {
	reg := core.StandardRegistry()
	cards := staticCards(b, reg)
	w := core.Uniform(reg)
	w[core.MOutsourcedSolution] = -1 // negative weights are part of the spec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, err := core.Rank(cards, w)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure5", func() {
			fmt.Println("\n=== Figure 5: weighted scores (uniform weights, negative on Outsourced Solution) ===")
			report.Ranking(os.Stdout, ranked)
		})
	}
}

// BenchmarkFigure6RequirementMapping regenerates Figure 6: deriving
// metric weights from a partially-ordered requirement list.
func BenchmarkFigure6RequirementMapping(b *testing.B) {
	reg := core.StandardRegistry()
	for i := 0; i < b.N; i++ {
		s, w, err := requirements.Figure6Example(reg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure6", func() {
			fmt.Println("\n=== Figure 6: requirement-to-metric weighting example ===")
			fmt.Print(s.Describe())
			for _, id := range requirements.SortedNonZero(w) {
				m, _ := reg.Get(id)
				fmt.Printf("  %-35s weight %g\n", m.Name, w[id])
			}
		})
	}
}

// BenchmarkHostLoggingOverhead reproduces the Section-2.1 calibration:
// nominal event logging costs 3-5% of the monitored host, C2-level
// auditing ~20%, and only the latter blows real-time deadlines.
func BenchmarkHostLoggingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nominal, err := hostLoggingOverhead(products.TrueSecure())
		if err != nil {
			b.Fatal(err)
		}
		c2, err := hostLoggingOverhead(products.AgentSwarm())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(nominal.OverheadFraction*100, "nominal-%cpu")
		b.ReportMetric(c2.OverheadFraction*100, "c2-%cpu")
		printOnce("hostlog", func() {
			fmt.Printf("\n=== Section 2.1 host logging overhead ===\n"+
				"nominal: %.1f%% CPU, %d/%d deadline misses\n"+
				"C2:      %.1f%% CPU, %d/%d deadline misses\n",
				nominal.OverheadFraction*100, nominal.DeadlineMisses, nominal.JobsCompleted,
				c2.OverheadFraction*100, c2.DeadlineMisses, c2.JobsCompleted)
		})
	}
}

// hostLoggingOverhead measures what one product's host agents cost the
// monitored real-time host: TrueSecure logs at the nominal level,
// AgentSwarm at C2.
func hostLoggingOverhead(spec products.Spec) (*eval.ImpactResult, error) {
	return eval.MeasureOperationalImpact(spec, 3)
}

// BenchmarkLesson1PayloadRealism reproduces the paper's first lesson
// learned: probing with meaningless (random) payloads under-exercises
// payload-inspecting engines — keyword false positives vanish.
func BenchmarkLesson1PayloadRealism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		realistic, err := lesson1Accuracy(false)
		if err != nil {
			b.Fatal(err)
		}
		random, err := lesson1Accuracy(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(realistic.FalseAlarms), "fa-realistic")
		b.ReportMetric(float64(random.FalseAlarms), "fa-random")
		printOnce("lesson1", func() {
			fmt.Printf("\n=== Lesson 1: payload realism ===\n"+
				"realistic payload background: %d false alarms (ratio %.4f)\n"+
				"random payload background:    %d false alarms (ratio %.4f)\n",
				realistic.FalseAlarms, realistic.FalsePositiveRatio,
				random.FalseAlarms, random.FalsePositiveRatio)
		})
	}
}

// lesson1Accuracy runs NetRecorder at seed 13 against the e-commerce
// background, its payloads synthesized (random false) or replaced by
// random bytes of the same lengths (random true).
func lesson1Accuracy(random bool) (*eval.AccuracyResult, error) {
	profile := traffic.EcommerceEdge()
	if random {
		profile = profile.WithRandomPayloads()
	}
	tb, err := eval.NewTestbed(products.NetRecorder(), eval.TestbedConfig{
		Seed: 13, TrainFor: 5 * time.Second, BackgroundPps: 250, Profile: profile,
	})
	if err != nil {
		return nil, err
	}
	return eval.RunAccuracy(tb, 1.0, 15*time.Second, 0.5)
}

// BenchmarkFullEvaluation reproduces the paper's prototype evaluation:
// the complete scorecard run over the three commercial products and the
// research system, ranked under the real-time posture.
func BenchmarkFullEvaluation(b *testing.B) {
	reg := core.StandardRegistry()
	for i := 0; i < b.N; i++ {
		evs, err := eval.EvaluateAll(context.Background(), products.All(), reg, eval.Options{Seed: 11, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		cards := make([]*core.Scorecard, len(evs))
		for j, ev := range evs {
			cards[j] = ev.Card
		}
		w, err := requirements.DeriveWeights(requirements.RealTimeEmphasis(), reg)
		if err != nil {
			b.Fatal(err)
		}
		ranked, err := core.Rank(cards, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ranked[0].Total, "winner-total")
		printOnce("fulleval", func() {
			fmt.Println("\n=== Full prototype evaluation (real-time posture) ===")
			report.Ranking(os.Stdout, ranked)
		})
	}
}

// --- Ablations ---

// BenchmarkAblationLoadBalancing compares the load-balancing disciplines'
// zero-loss throughput on the same engine: none of the paper's anchors is
// free — static placement starves, dynamic balancing scales.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	disciplines := []struct {
		name string
		kind ids.BalancerKind
	}{
		{"static", ids.BalancerStatic},
		{"flow-hash", ids.BalancerFlowHash},
		{"dynamic", ids.BalancerDynamic},
	}
	for _, d := range disciplines {
		d := d
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pps, err := loadBalancingZeroLoss(d.kind)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pps, "zero-loss-pps")
			}
		})
	}
}

// loadBalancingZeroLoss is the load-balancing ablation's zero-loss
// throughput under one discipline, on a deliberately capacity-bound pool
// (slow signature engines, 4 sensors) so the discipline is the limiting
// factor.
func loadBalancingZeroLoss(kind ids.BalancerKind) (float64, error) {
	spec := products.NetRecorder()
	spec.IDS.Sensors = 4
	spec.IDS.Balancer = kind
	spec.IDS.BalancerCost = 0
	spec.IDS.SensorSpeedFactor = 0.5
	res, err := eval.MeasureThroughput(context.Background(), spec, eval.ThroughputOptions{
		Window: 100 * time.Millisecond, LoPps: 500, HiPps: 262144, Seed: 5,
	})
	if err != nil {
		return 0, err
	}
	return res.ZeroLossPps, nil
}

// BenchmarkAblationSeparation compares fused sensing+analysis (1:1)
// against separated (M:M with network overhead): separation delays
// reports and spends alert bandwidth.
func BenchmarkAblationSeparation(b *testing.B) {
	variants := []struct {
		name     string
		separate bool
	}{{"fused", false}, {"separated", true}}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				delay, err := separationDelay(v.separate)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(delay.Microseconds()), "mean-delay-us")
			}
		})
	}
}

// separationDelay is the separation ablation's mean detection delay,
// with sensing and analysis fused or separated by a 2 ms hop.
func separationDelay(separate bool) (time.Duration, error) {
	spec := products.TrueSecure()
	spec.IDS.SeparateAnalysis = separate
	spec.IDS.AnalysisLatency = 2 * time.Millisecond
	tb, err := eval.NewTestbed(spec, eval.TestbedConfig{Seed: 11, TrainFor: 6 * time.Second, BackgroundPps: 200})
	if err != nil {
		return 0, err
	}
	res, err := eval.RunAccuracy(tb, 0.6, 15*time.Second, 0.5)
	if err != nil {
		return 0, err
	}
	return res.MeanDetectionDelay, nil
}

// BenchmarkAblationMatcher compares the Aho–Corasick corpus scan against
// the naive per-pattern scan on realistic payloads.
func BenchmarkAblationMatcher(b *testing.B) {
	// A production-scale corpus: the stock rules plus several hundred
	// synthetic signatures (2002-era signature databases carried
	// thousands). Multi-pattern matching is where Aho–Corasick's
	// input-linear scan separates from the naive per-pattern loop.
	rules := detect.StandardContentRules()
	pats := make([][]byte, 0, len(rules)+500)
	for _, r := range rules {
		pats = append(pats, r.Pattern)
	}
	sim := simtime.New(9)
	rng := sim.Stream("bench")
	for i := 0; i < 500; i++ {
		sig := make([]byte, 8+rng.Intn(24))
		for j := range sig {
			sig[j] = byte('!' + rng.Intn(90))
		}
		pats = append(pats, sig)
	}
	payload := traffic.HTTPResponse(rng, 4096)
	b.Run("aho-corasick", func(b *testing.B) {
		m := detect.NewMatcher(pats)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Contains(payload)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			detect.NaiveScan(pats, payload)
		}
	})
}

// BenchmarkAblationTapMode compares mirrored against in-line collection:
// the induced-latency cost of putting the IDS in the forwarding path.
func BenchmarkAblationTapMode(b *testing.B) {
	for _, tap := range []eval.TapMode{eval.TapMirror, eval.TapInline} {
		tap := tap
		b.Run(tap.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				induced, err := tapInducedLatency(tap)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(induced.Nanoseconds()), "induced-ns")
			}
		})
	}
}

// tapInducedLatency is the tap-mode ablation's induced latency for
// NetRecorder on one tap.
func tapInducedLatency(tap eval.TapMode) (time.Duration, error) {
	res, err := eval.MeasureInducedLatency(products.NetRecorder(), tap, 3)
	if err != nil {
		return 0, err
	}
	return res.Induced, nil
}

// BenchmarkScenarioCampaign measures raw attack-campaign generation.
func BenchmarkScenarioCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := eval.NewTestbed(products.NetRecorder(), eval.TestbedConfig{Seed: 4, TrainFor: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		camp := attack.NewCampaign(tb.AttackContext())
		if err := camp.SpreadAcross(0, 10*time.Second, attack.StandardScenarios(1)); err != nil {
			b.Fatal(err)
		}
		tb.Sim.Run()
	}
}

// BenchmarkExtensionOperatorFatigue runs the human-dimension extension
// (the paper's future work): the same campaign through each product's
// notification stream and a watch-stander model. Noisy products bury the
// operator; quiet ones keep every notification actionable.
func BenchmarkExtensionOperatorFatigue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range []products.Spec{products.NetRecorder(), products.StreamHunter()} {
			res, err := humanDimension(spec)
			if err != nil {
				b.Fatal(err)
			}
			printOnce("operator-"+spec.Name, func() {
				fmt.Printf("\n=== Human dimension: %s ===\n"+
					"notifications=%d acted-on=%d dismissed=%d unseen=%d final-vigilance=%.2f\n"+
					"wire-detected=%d/%d, human-acted-on=%d/%d\n",
					spec.Name, res.Notifications, res.Report.ActedOn, res.Report.Dismissed,
					res.Report.Unseen, res.Report.FinalVigilance,
					res.WireDetected, res.ActualIncidents, res.HumanActedOn, res.ActualIncidents)
			})
		}
	}
}

// humanDimension runs the human-dimension extension for one product at
// sensitivity 0.8.
func humanDimension(spec products.Spec) (*eval.HumanResult, error) {
	return eval.MeasureHumanDimension(spec, 0.8, 11)
}

// BenchmarkExtensionEvasion measures the fragmentation-evasion ablation:
// per-packet scanning vs stream reassembly against the evasive exploit.
func BenchmarkExtensionEvasion(b *testing.B) {
	run := func(spec products.Spec) bool {
		tb, err := eval.NewTestbed(spec, eval.TestbedConfig{Seed: 17, TrainFor: 6 * time.Second, BackgroundPps: 200})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Train(); err != nil {
			b.Fatal(err)
		}
		tb.IDS.SetSensitivity(0.5)
		camp := attack.NewCampaign(tb.AttackContext())
		if err := camp.LaunchAt(tb.Sim.Now()+time.Second, attack.Exploit{Count: 3, Evasive: true}); err != nil {
			b.Fatal(err)
		}
		tb.Sim.RunUntil(tb.Sim.Now() + 10*time.Second)
		tb.Drain()
		for _, rep := range tb.IDS.Monitor().Incidents {
			if rep.Technique == "exploit" {
				return true
			}
		}
		return false
	}
	for i := 0; i < b.N; i++ {
		reassembling := run(products.NetRecorder())
		perPacket := run(products.TrueSecure())
		printOnce("evasion", func() {
			fmt.Printf("\n=== Fragmentation evasion (Ptacek–Newsham) ===\n"+
				"NetRecorder (stream reassembly): detected=%v\n"+
				"TrueSecure (per-packet scan):    detected=%v\n",
				reassembling, perPacket)
		})
	}
}

// BenchmarkAblationDataPool measures Data Pool Selectability as the
// paper motivates it for clusters: excluding the cluster's own
// tightly-cadenced protocols (inter-node RPC, replication) from analysis
// raises sustainable zero-loss throughput on the cluster profile without
// touching the traffic external attacks ride on.
func BenchmarkAblationDataPool(b *testing.B) {
	variants := []struct {
		name string
		pool *ids.DataPool
	}{
		{"all-traffic", nil},
		{"cluster-excluded", ids.ClusterExclusionPool()},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pps, err := dataPoolZeroLoss(v.pool)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pps, "zero-loss-pps")
			}
		})
	}
}

// dataPoolZeroLoss is the data-pool ablation's zero-loss throughput for
// NetRecorder's capacity-bound signature sensors on the cluster profile,
// analyzing the given pool (nil: all traffic).
func dataPoolZeroLoss(pool *ids.DataPool) (float64, error) {
	res, err := eval.MeasureThroughput(context.Background(), products.NetRecorder(), eval.ThroughputOptions{
		Window: 100 * time.Millisecond, LoPps: 500, HiPps: 262144,
		Seed: 5, Profile: traffic.RealTimeCluster(), Pool: pool,
	})
	if err != nil {
		return 0, err
	}
	return res.ZeroLossPps, nil
}

// BenchmarkAblationPlacement compares sensor placements on the segmented
// LAN: a central distribution-switch SPAN versus one sensor per subnet.
// The structural result behind the paper's placement warning: the
// central sensor never sees intra-subnet insider traffic.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := eval.MeasurePlacement(5)
		printOnce("placement", func() {
			fmt.Printf("\n=== Sensor placement (segmented LAN) ===\n"+
				"central SPAN:   exploit=%v insider=%v (%d attack packets seen)\n"+
				"per-subnet:     exploit=%v insider=%v (%d attack packets seen)\n",
				res.CentralSawExploit, res.CentralSawInsider, res.CentralPackets,
				res.LeafSawExploit, res.LeafSawInsider, res.LeafPackets)
		})
	}
}
