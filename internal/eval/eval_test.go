package eval

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/products"
	"repro/internal/traffic"
)

// quickAccuracy runs a reduced accuracy experiment for one product.
func quickAccuracy(t testing.TB, spec products.Spec, sensitivity float64) *AccuracyResult {
	t.Helper()
	tb, err := NewTestbed(spec, TestbedConfig{Seed: 11, TrainFor: 8 * time.Second, BackgroundPps: 250})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAccuracy(tb, sensitivity, 20*time.Second, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAccuracyRunProducesSaneRatios(t *testing.T) {
	res := quickAccuracy(t, products.TrueSecure(), 0.6)
	if res.ActualIncidents != 7 {
		t.Fatalf("actual incidents = %d, want 7 standard scenarios", res.ActualIncidents)
	}
	if res.Transactions <= res.ActualIncidents {
		t.Fatalf("transactions = %d; background sessions missing", res.Transactions)
	}
	if res.DetectedIncidents < 4 {
		t.Fatalf("TrueSecure detected only %d/7", res.DetectedIncidents)
	}
	if res.FalsePositiveRatio < 0 || res.FalsePositiveRatio > 1 ||
		res.FalseNegativeRatio < 0 || res.FalseNegativeRatio > 1 {
		t.Fatalf("ratios out of range: fp=%v fn=%v", res.FalsePositiveRatio, res.FalseNegativeRatio)
	}
	if res.MissRate+res.DetectionRate != 1 {
		t.Fatalf("miss+detection = %v", res.MissRate+res.DetectionRate)
	}
	if res.DetectedIncidents > 0 && res.MeanDetectionDelay <= 0 {
		t.Fatal("zero detection delay despite detections")
	}
	if res.MaxDetectionDelay < res.MeanDetectionDelay {
		t.Fatal("max delay below mean")
	}
}

func TestSignatureProductMissesNovelAttack(t *testing.T) {
	// The paper: a signature-based IDS "will only detect previously known
	// attacks". The DNS tunnel has no signature; the pure-signature
	// product must miss it while an anomaly product catches it.
	sig := quickAccuracy(t, products.NetRecorder(), 0.6)
	if sig.ByTechnique[attack.TechTunnel] {
		t.Fatal("pure signature product detected the DNS tunnel")
	}
	anom := quickAccuracy(t, products.StreamHunter(), 0.6)
	if !anom.ByTechnique[attack.TechTunnel] {
		t.Fatal("anomaly product missed the DNS tunnel")
	}
}

func TestSignatureProductHasLowerFalsePositives(t *testing.T) {
	sig := quickAccuracy(t, products.NetRecorder(), 0.6)
	anom := quickAccuracy(t, products.StreamHunter(), 0.6)
	if sig.FalsePositiveRatio > anom.FalsePositiveRatio {
		t.Fatalf("signature FP %.4f > anomaly FP %.4f", sig.FalsePositiveRatio, anom.FalsePositiveRatio)
	}
	if anom.MissRate > sig.MissRate {
		t.Fatalf("anomaly misses %.2f > signature %.2f", anom.MissRate, sig.MissRate)
	}
}

func TestResponseChannelsExercised(t *testing.T) {
	res := quickAccuracy(t, products.TrueSecure(), 0.6)
	if res.FirewallBlocks == 0 {
		t.Fatal("TrueSecure block-all policy produced no firewall blocks")
	}
	res2 := quickAccuracy(t, products.StreamHunter(), 0.6)
	if res2.RouterRedirects == 0 {
		t.Fatal("StreamHunter redirect policy produced no redirects")
	}
	// AgentSwarm has no console: no response events possible.
	res3 := quickAccuracy(t, products.AgentSwarm(), 0.6)
	if res3.FirewallBlocks+res3.RouterRedirects+res3.SNMPTraps != 0 {
		t.Fatal("console-less product produced response events")
	}
}

func TestCompromiseAnalysis(t *testing.T) {
	spec := products.TrueSecure()
	tb, err := NewTestbed(spec, TestbedConfig{Seed: 11, TrainFor: 8 * time.Second, BackgroundPps: 250})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAccuracy(tb, 0.6, 20*time.Second, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	comp := AnalyzeCompromise(tb, res)
	if len(comp.TrulyCompromised) == 0 {
		t.Fatal("insider+masquerade scenarios compromised no hosts")
	}
	if comp.Coverage < 0 || comp.Coverage > 1 {
		t.Fatalf("coverage = %v", comp.Coverage)
	}
	// Full-trust cluster: any compromise exposes every node.
	if len(comp.ExposedByTrust) != len(tb.Top.Cluster) {
		t.Fatalf("trust exposure %d nodes, want all %d", len(comp.ExposedByTrust), len(tb.Top.Cluster))
	}
}

func TestThroughputSearch(t *testing.T) {
	opts := ThroughputOptions{Window: 100 * time.Millisecond, LoPps: 500, HiPps: 65536, Seed: 5}
	res, err := MeasureThroughput(context.Background(), products.StreamHunter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroLossPps <= 0 {
		t.Fatalf("zero-loss = %v", res.ZeroLossPps)
	}
	if res.Probes < 2 {
		t.Fatalf("only %d probes", res.Probes)
	}
	// Probes counts simulations run. With zero-loss at hi, the lethal
	// ramp's first rate is hi, which the search already ran to
	// completion, so it must cost no probe of its own.
	if res.ZeroLossPps == opts.HiPps && res.Probes != 2 {
		t.Fatalf("%d probes with zero-loss at hi, want 2: the ramp re-ran the hi probe", res.Probes)
	}
	if !res.Indestructible && res.LethalPps < res.ZeroLossPps {
		t.Fatalf("lethal %v below zero-loss %v", res.LethalPps, res.ZeroLossPps)
	}
}

func TestThroughputOrderingAcrossProducts(t *testing.T) {
	// The 4-sensor dynamically balanced anomaly product must sustain more
	// than the 3-sensor research prototype running parallel hybrid
	// engines on tiny queues.
	opts := ThroughputOptions{Window: 100 * time.Millisecond, LoPps: 500, HiPps: 65536, Seed: 5}
	fast, err := MeasureThroughput(context.Background(), products.StreamHunter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MeasureThroughput(context.Background(), products.AgentSwarm(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.ZeroLossPps <= slow.ZeroLossPps {
		t.Fatalf("StreamHunter %.0f pps <= AgentSwarm %.0f pps", fast.ZeroLossPps, slow.ZeroLossPps)
	}
}

func TestThroughputBoundsValidation(t *testing.T) {
	if _, err := MeasureThroughput(context.Background(), products.NetRecorder(), ThroughputOptions{LoPps: 1000, HiPps: 500}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestInducedLatencyInlineVsMirror(t *testing.T) {
	spec := products.NetRecorder()
	mirror, err := MeasureInducedLatency(spec, TapMirror, 3)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := MeasureInducedLatency(spec, TapInline, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mirror.Induced > 50*time.Microsecond {
		t.Fatalf("mirrored tap induced %v", mirror.Induced)
	}
	if inline.Induced <= mirror.Induced {
		t.Fatalf("inline (%v) not slower than mirror (%v)", inline.Induced, mirror.Induced)
	}
	if _, err := MeasureInducedLatency(spec, TapMode(9), 3); err == nil {
		t.Fatal("bad tap mode accepted")
	}
}

func TestOperationalImpactDifferentiates(t *testing.T) {
	netOnly, err := MeasureOperationalImpact(products.NetRecorder(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if netOnly.HasHostComponents || netOnly.OverheadFraction != 0 {
		t.Fatalf("standalone network product charged host CPU: %+v", netOnly)
	}
	nominal, err := MeasureOperationalImpact(products.TrueSecure(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if nominal.OverheadFraction < 0.02 || nominal.OverheadFraction > 0.06 {
		t.Fatalf("nominal agent overhead %.3f outside 3-5%% band", nominal.OverheadFraction)
	}
	if nominal.DeadlineMisses != 0 {
		t.Fatalf("nominal logging caused %d deadline misses", nominal.DeadlineMisses)
	}
	c2, err := MeasureOperationalImpact(products.AgentSwarm(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if c2.OverheadFraction < 0.15 || c2.OverheadFraction > 0.25 {
		t.Fatalf("C2 agent overhead %.3f outside ~20%% band", c2.OverheadFraction)
	}
	if c2.DeadlineMisses == 0 {
		t.Fatal("C2 auditing caused no deadline misses")
	}
}

func TestSensitivitySweepProducesTradeoff(t *testing.T) {
	sw, err := SensitivitySweep(context.Background(), products.NetRecorder(), SweepOptions{
		Seed: 7, Points: 3, TrainFor: 6 * time.Second,
		RunFor: 14 * time.Second, Pps: 200, Strength: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 3 {
		t.Fatalf("%d points", len(sw.Points))
	}
	first, last := sw.Points[0], sw.Points[len(sw.Points)-1]
	if last.TypeII > first.TypeII {
		t.Fatalf("raising sensitivity increased Type II error: %.1f -> %.1f", first.TypeII, last.TypeII)
	}
	if last.TypeI < first.TypeI {
		t.Fatalf("raising sensitivity decreased Type I error: %.2f -> %.2f", first.TypeI, last.TypeI)
	}
	eff := sw.Effect()
	if eff.TypeIIRange <= 0 {
		t.Fatal("sensitivity knob had no Type II effect")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := SensitivitySweep(context.Background(), products.NetRecorder(), SweepOptions{Points: 1}); err == nil {
		t.Fatal("single-point sweep accepted")
	}
}

func TestEqualErrorRateInterpolation(t *testing.T) {
	pts := []SweepPoint{
		{Sensitivity: 0.0, TypeI: 0, TypeII: 10},
		{Sensitivity: 0.5, TypeI: 2, TypeII: 6},
		{Sensitivity: 1.0, TypeI: 6, TypeII: 2},
	}
	s, e, ok := equalErrorRate(pts)
	if !ok {
		t.Fatal("no crossover found")
	}
	if s <= 0.5 || s >= 1.0 {
		t.Fatalf("EER sensitivity %v outside (0.5, 1.0)", s)
	}
	if e <= 2 || e >= 6 {
		t.Fatalf("EER error %v outside (2, 6)", e)
	}
	// Exact crossover: TypeII-TypeI = 4 at s=0.5 and -4 at s=1 -> s=0.75.
	if s != 0.75 || e != 4 {
		t.Fatalf("EER = (%v, %v), want (0.75, 4)", s, e)
	}
	// No crossover case.
	flat := []SweepPoint{
		{Sensitivity: 0, TypeI: 1, TypeII: 10},
		{Sensitivity: 1, TypeI: 2, TypeII: 9},
	}
	if _, _, ok := equalErrorRate(flat); ok {
		t.Fatal("crossover claimed for non-crossing curves")
	}
}

// TestScoreBands checks every band's shape — strictly ordered edges,
// inclusive on the edge, monotone toward the bad end, every score
// reachable — and pins the guards of the three metrics whose raw value
// alone does not decide the score.
func TestScoreBands(t *testing.T) {
	for _, c := range []struct {
		name string
		band Band
	}{
		{"zero loss", ZeroLossBand},
		{"lethal dose", LethalDoseBand},
		{"induced latency", InducedLatencyBand},
		{"timeliness", TimelinessBand},
		{"FP ratio", FalsePositiveBand},
		{"FN", FalseNegativeBand},
		{"operational impact", OperationalImpactBand},
		{"data storage", DataStorageBand},
		{"compromise", CompromiseBand},
		{"survivability", SurvivabilityBand},
		{"graceful degradation", GracefulDegradationBand},
	} {
		b, e := c.band, c.band.Edges
		lowerIsBetter := e[0] < e[3]
		bad := math.Inf(-1)
		if lowerIsBetter {
			bad = math.Inf(1)
		}
		for i := 1; i < len(e); i++ {
			if e[i-1] == e[i] || (e[i-1] < e[i]) != lowerIsBetter {
				t.Errorf("%s: edges %v are not strictly ordered", c.name, e)
			}
		}
		probes := []float64{0, bad, -bad}
		for i, edge := range e {
			past := math.Nextafter(edge, bad)
			want := core.MaxScore - core.Score(i)
			if got := b.Score(edge); got != want {
				t.Errorf("%s: Score(edge %v) = %d, want %d", c.name, edge, got, want)
			}
			if got := b.Score(past); got != want-1 {
				t.Errorf("%s: Score(%v, just past edge %v) = %d, want %d", c.name, past, edge, got, want-1)
			}
			probes = append(probes, edge, past, edge/2, edge*2)
			if i > 0 {
				probes = append(probes, (e[i-1]+edge)/2)
			}
		}
		sort.Float64s(probes)
		if !lowerIsBetter {
			sort.Sort(sort.Reverse(sort.Float64Slice(probes)))
		}
		seen := map[core.Score]bool{}
		prev := core.MaxScore
		for _, v := range probes {
			s := b.Score(v)
			if s > prev {
				t.Errorf("%s: Score(%v) = %d rises above %d toward the bad end", c.name, v, s, prev)
			}
			prev = s
			seen[s] = true
		}
		for s := core.MinScore; s <= core.MaxScore; s++ {
			if !seen[s] {
				t.Errorf("%s: score %d unreachable", c.name, s)
			}
		}
		if got := b.Score(math.NaN()); got != 0 {
			t.Errorf("%s: Score(NaN) = %d, want 0", c.name, got)
		}
	}

	for _, c := range []struct {
		name      string
		got, want core.Score
	}{
		{"no detection", timelinessScore(&AccuracyResult{}), 0},
		{"detected at zero delay", timelinessScore(&AccuracyResult{DetectedIncidents: 1}), 4},
		{"indestructible", lethalDoseScore(&ThroughputResult{Indestructible: true}), 4},
		{"failed at 0 pps", lethalDoseScore(&ThroughputResult{}), 0},
		{"coverage 0, a host named", compromiseScore(&CompromiseResult{Identified: []string{"c1"}}), 1},
		{"coverage 0, none named", compromiseScore(&CompromiseResult{}), 0},
		{"retention exactly 0.1", SurvivabilityBand.Score(0.1), 0},
		{"miss rate 0", FalseNegativeBand.Score(0), 4},
		// AgentSwarm's host overhead is exactly the 0.20 edge.
		{"host overhead 0.2", OperationalImpactBand.Score(0.2), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s: score %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestScoreErrorReportingAnchors pins the Error Reporting score for every
// combination of failure mode, restart policy and console.
func TestScoreErrorReportingAnchors(t *testing.T) {
	for _, c := range []struct {
		mode    ids.FailureMode
		restart time.Duration
		console bool
		want    core.Score
	}{
		{ids.FailOpen, 0, false, 2},
		{ids.FailOpen, 0, true, 3},
		{ids.FailOpen, 10 * time.Second, false, 2},
		{ids.FailOpen, 10 * time.Second, true, 3},
		{ids.FailClosed, 0, false, 1},
		{ids.FailClosed, 0, true, 2},
		{ids.FailClosed, 10 * time.Second, false, 1},
		{ids.FailClosed, 10 * time.Second, true, 2},
		{ids.FailCrash, 0, false, 0},
		{ids.FailCrash, 0, true, 1},
		{ids.FailCrash, 10 * time.Second, false, 3},
		{ids.FailCrash, 10 * time.Second, true, 4},
	} {
		cfg := ids.Config{FailureMode: c.mode, RestartAfter: c.restart, HasConsole: c.console}
		if got := ScoreErrorReporting(cfg); got != c.want {
			t.Errorf("%v restart=%v console=%v: score %d, want %d", c.mode, c.restart, c.console, got, c.want)
		}
	}
}

func TestEvaluateProductFillsCompleteScorecard(t *testing.T) {
	reg := core.StandardRegistry()
	ev, err := EvaluateProduct(context.Background(), products.NetRecorder(), reg, Options{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Card.Complete() {
		t.Fatalf("scorecard incomplete, missing: %v", ev.Card.Missing())
	}
	// The weighted evaluation must work end to end.
	ws, err := ev.Card.Evaluate(core.Uniform(reg))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Total <= 0 {
		t.Fatalf("total weighted score %v", ws.Total)
	}
	if ev.Accuracy == nil || ev.Throughput == nil || ev.Latency == nil || ev.Impact == nil || ev.Sweep == nil {
		t.Fatal("raw results missing")
	}
}

func TestEvaluateAllRanksDifferently(t *testing.T) {
	if testing.Short() {
		t.Skip("full field evaluation is slow")
	}
	reg := core.StandardRegistry()
	evs, err := EvaluateAll(context.Background(), products.All(), reg, Options{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("%d evaluations", len(evs))
	}
	cards := make([]*core.Scorecard, len(evs))
	for i, ev := range evs {
		if !ev.Card.Complete() {
			t.Fatalf("%s incomplete: %v", ev.Spec.Name, ev.Card.Missing())
		}
		cards[i] = ev.Card
	}
	uniform, err := core.Rank(cards, core.Uniform(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Under uniform weights the totals must not be all identical — the
	// metrics are "characteristic".
	allEqual := true
	for i := 1; i < len(uniform); i++ {
		if uniform[i].Total != uniform[0].Total {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("all products scored identically under uniform weights")
	}
}

func TestLesson1RandomPayloadsUnderTest(t *testing.T) {
	// Lesson 1: with random-payload background, a payload-inspecting IDS
	// sees unrealistically few keyword false positives.
	run := func(random bool) *AccuracyResult {
		profile := traffic.EcommerceEdge()
		if random {
			profile = profile.WithRandomPayloads()
		}
		tb, err := NewTestbed(products.NetRecorder(), TestbedConfig{
			Seed: 13, TrainFor: 5 * time.Second, BackgroundPps: 250, Profile: profile,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Maximum sensitivity so keyword rules are active.
		res, err := RunAccuracy(tb, 1.0, 15*time.Second, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	realistic := run(false)
	random := run(true)
	if realistic.FalseAlarms <= random.FalseAlarms {
		t.Fatalf("realistic payloads produced %d false alarms vs %d with random payloads; Lesson 1 not reproduced",
			realistic.FalseAlarms, random.FalseAlarms)
	}
}

func BenchmarkQuickAccuracyRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := NewTestbed(products.NetRecorder(), TestbedConfig{Seed: 11, TrainFor: 4 * time.Second, BackgroundPps: 200})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunAccuracy(tb, 0.6, 10*time.Second, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvasionDifferentiatesProducts(t *testing.T) {
	// The Ptacek–Newsham fragmentation evasion: the reassembling product
	// (NetRecorder) catches the fragmented exploit; the per-packet
	// scanner (TrueSecure's signature path) misses it.
	run := func(spec products.Spec) bool {
		tb, err := NewTestbed(spec, TestbedConfig{Seed: 17, TrainFor: 6 * time.Second, BackgroundPps: 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Train(); err != nil {
			t.Fatal(err)
		}
		tb.IDS.SetSensitivity(0.5)
		camp := attack.NewCampaign(tb.AttackContext())
		if err := camp.LaunchAt(tb.Sim.Now()+time.Second, attack.Exploit{Count: 3, Evasive: true}); err != nil {
			t.Fatal(err)
		}
		tb.Sim.RunUntil(tb.Sim.Now() + 10*time.Second)
		tb.Drain()
		tb.IDS.Flush()
		inc := camp.Incidents()[0]
		for _, rep := range tb.IDS.Monitor().Incidents {
			if rep.Technique == "exploit" && matches(rep, inc) {
				return true
			}
		}
		return false
	}
	if !run(products.NetRecorder()) {
		t.Fatal("reassembling product missed the fragmented exploit")
	}
	if run(products.TrueSecure()) {
		t.Fatal("per-packet product detected the fragmented exploit — evasion model broken")
	}
}

func TestStealthScanEvadesThresholds(t *testing.T) {
	// A scan spread across probe intervals longer than the rule window
	// defeats the sliding-window counter (noted limitation; anomaly pair
	// novelty may still fire on some products).
	tb, err := NewTestbed(products.NetRecorder(), TestbedConfig{Seed: 17, TrainFor: 6 * time.Second, BackgroundPps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Train(); err != nil {
		t.Fatal(err)
	}
	tb.IDS.SetSensitivity(0.5)
	camp := attack.NewCampaign(tb.AttackContext())
	if err := camp.LaunchAt(tb.Sim.Now()+time.Second, attack.PortScan{Ports: 30, Stealth: true}); err != nil {
		t.Fatal(err)
	}
	tb.Sim.RunUntil(tb.Sim.Now() + 120*time.Second)
	tb.Drain()
	tb.IDS.Flush()
	for _, rep := range tb.IDS.Monitor().Incidents {
		if rep.Technique == "portscan" {
			t.Fatal("stealth scan tripped the threshold rule")
		}
	}
}

func TestHumanDimensionFloodBuriesOperator(t *testing.T) {
	// At maximum sensitivity the anomaly product floods the operator;
	// the quiet signature product's few notifications all get attention.
	noisy, err := MeasureHumanDimension(products.StreamHunter(), 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := MeasureHumanDimension(products.NetRecorder(), 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Notifications <= quiet.Notifications {
		t.Fatalf("expected the anomaly product to notify more: %d vs %d",
			noisy.Notifications, quiet.Notifications)
	}
	if noisy.Report.Unseen == 0 && noisy.Report.Dismissed == 0 {
		t.Fatal("operator absorbed the flood without loss — fatigue model inert")
	}
	if quiet.Report.Unseen != 0 {
		t.Fatalf("quiet product overflowed the operator queue: %+v", quiet.Report)
	}
	// End-to-end (human) detection cannot exceed wire detection.
	for _, r := range []*HumanResult{noisy, quiet} {
		if r.HumanActedOn > r.WireDetected {
			t.Fatalf("%s: human acted on %d > wire detected %d", r.Product, r.HumanActedOn, r.WireDetected)
		}
	}
}

func TestIntentProfilesFromCampaign(t *testing.T) {
	res := quickAccuracy(t, products.TrueSecure(), 0.6)
	if len(res.Profiles) == 0 {
		t.Fatal("no attacker profiles from a full campaign")
	}
	// The campaign includes exfiltration (tunnel, insider) and escalation
	// (masquerade); the deepest profile stage must reflect that.
	deepest := res.Profiles[0].Stage
	if deepest < 3 { // at least penetration
		t.Fatalf("deepest campaign stage = %v", deepest)
	}
	for _, p := range res.Profiles {
		if p.Incidents <= 0 || p.Victims < 0 {
			t.Fatalf("malformed profile %+v", p)
		}
	}
}

func TestPlacementCentralBlindToIntraSubnet(t *testing.T) {
	res := MeasurePlacement(5)
	if !res.CentralSawExploit {
		t.Fatal("central SPAN missed the north-south exploit")
	}
	if res.CentralSawInsider {
		t.Fatal("central SPAN claims to see intra-leaf insider traffic")
	}
	if !res.LeafSawExploit || !res.LeafSawInsider {
		t.Fatalf("per-subnet placement missed attacks: %+v", res)
	}
	// The counts BenchmarkAblationPlacement prints: the central SPAN sees
	// only the exploit; the per-subnet sensors see the exploit at leaf 0
	// and the insider pull at leaf 1.
	if res.CentralPackets != 1 || res.LeafPackets != 2 {
		t.Fatalf("attack packets seen: central %d, per-subnet %d; want 1 and 2", res.CentralPackets, res.LeafPackets)
	}
}

func TestVendorUpdateImprovesExtendedCampaign(t *testing.T) {
	// The harder campaign (sweep + evasion variants) separates the 5.0
	// and 5.1 releases: the update must detect strictly more.
	run := func(spec products.Spec) *AccuracyResult {
		tb, err := NewTestbed(spec, TestbedConfig{Seed: 19, TrainFor: 8 * time.Second, BackgroundPps: 250})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Train(); err != nil {
			t.Fatal(err)
		}
		tb.IDS.SetSensitivity(0.6)
		start := tb.Sim.Now()
		camp := attack.NewCampaign(tb.AttackContext())
		if err := camp.SpreadAcross(start+2*time.Second, 24*time.Second, attack.ExtendedScenarios(0.5)); err != nil {
			t.Fatal(err)
		}
		tb.Sim.RunUntil(start + 30*time.Second)
		tb.Drain()
		tb.IDS.Flush()
		res, err := scoreAccuracy(tb, tb.deps[0], 0.6, camp.Incidents(), int(tb.Gen.SessionsStarted))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	v50 := run(products.NetRecorder())
	v51 := run(products.NetRecorder51())
	if v51.DetectedIncidents <= v50.DetectedIncidents {
		t.Fatalf("5.1 detected %d vs 5.0's %d on the extended campaign",
			v51.DetectedIncidents, v50.DetectedIncidents)
	}
	// Specifically, the update adds the tunnel and sweep heuristics.
	if !v51.ByTechnique[attack.TechTunnel] || !v51.ByTechnique[attack.TechPingSweep] {
		t.Fatalf("5.1 coverage: tunnel=%v sweep=%v",
			v51.ByTechnique[attack.TechTunnel], v51.ByTechnique[attack.TechPingSweep])
	}
	if v50.ByTechnique[attack.TechPingSweep] {
		t.Fatal("5.0 should be ICMP-blind")
	}
}
