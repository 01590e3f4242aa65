package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStandardRegistryBuilds(t *testing.T) {
	reg := StandardRegistry()
	if reg.Len() < 50 {
		t.Fatalf("registry has %d metrics, want the full paper set (>50)", reg.Len())
	}
}

func TestStandardRegistryTableCounts(t *testing.T) {
	reg := StandardRegistry()
	counts := map[Class]int{}
	tabled := map[Class]int{}
	for _, m := range reg.All() {
		counts[m.Class]++
		if m.InPaperTable {
			tabled[m.Class]++
		}
	}
	// Tables 1, 2, 3 have 6, 8, 12 metrics respectively.
	if tabled[Logistical] != 6 {
		t.Fatalf("Table 1 metrics = %d, want 6", tabled[Logistical])
	}
	if tabled[Architectural] != 8 {
		t.Fatalf("Table 2 metrics = %d, want 8", tabled[Architectural])
	}
	if tabled[Performance] != 12 {
		t.Fatalf("Table 3 metrics = %d, want 12", tabled[Performance])
	}
	// Plus the "defined but not included" lists: 8, 8, 10.
	if got := counts[Logistical] - tabled[Logistical]; got != 8 {
		t.Fatalf("untabled logistical = %d, want 8", got)
	}
	if got := counts[Architectural] - tabled[Architectural]; got != 8 {
		t.Fatalf("untabled architectural = %d, want 8", got)
	}
	if got := counts[Performance] - tabled[Performance]; got != 10 {
		t.Fatalf("untabled performance = %d, want 10", got)
	}
}

func TestRegistryRejectsDuplicatesAndInvalid(t *testing.T) {
	base := Metric{ID: "x", Name: "X", Class: Logistical, Description: "d", Methods: ByAnalysis}
	if _, err := NewRegistry([]Metric{base, base}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	bad := base
	bad.Class = Class(9)
	if _, err := NewRegistry([]Metric{bad}); err == nil {
		t.Fatal("invalid class accepted")
	}
	bad = base
	bad.Methods = 0
	if _, err := NewRegistry([]Metric{bad}); err == nil {
		t.Fatal("no-method metric accepted")
	}
	bad = base
	bad.Description = ""
	if _, err := NewRegistry([]Metric{bad}); err == nil {
		t.Fatal("uncharacteristic metric accepted")
	}
	bad = base
	bad.ID = ""
	if _, err := NewRegistry([]Metric{bad}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestAnchorsPresentForIllustratedMetrics(t *testing.T) {
	reg := StandardRegistry()
	for _, id := range []string{MDistributedManagement, MScalableLoadBalancing, MErrorReporting} {
		m, ok := reg.Get(id)
		if !ok {
			t.Fatalf("metric %q missing", id)
		}
		if m.Anchors.Low == "" || m.Anchors.Average == "" || m.Anchors.High == "" {
			t.Fatalf("metric %q missing its paper anchors", id)
		}
	}
}

func TestScoreValidation(t *testing.T) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "sys", "1.0")
	if err := c.Set(Observation{MetricID: MTimeliness, Score: 5}); err == nil {
		t.Fatal("score 5 accepted")
	}
	if err := c.Set(Observation{MetricID: MTimeliness, Score: -1}); err == nil {
		t.Fatal("score -1 accepted")
	}
	if err := c.Set(Observation{MetricID: "no-such-metric", Score: 2}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := c.Set(Observation{MetricID: MTimeliness, Score: 3, How: ByAnalysis}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodEnforcement(t *testing.T) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "sys", "1.0")
	// Outsourced Solution is open-source-only in the registry.
	if err := c.Set(Observation{MetricID: MOutsourcedSolution, Score: 2, How: ByAnalysis}); err == nil {
		t.Fatal("disallowed method accepted")
	}
	if err := c.Set(Observation{MetricID: MOutsourcedSolution, Score: 2, How: ByOpenSource}); err != nil {
		t.Fatal(err)
	}
	// Zero method means "unspecified" and is accepted.
	if err := c.Set(Observation{MetricID: MTimeliness, Score: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingAndComplete(t *testing.T) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "sys", "1.0")
	if c.Complete() {
		t.Fatal("empty scorecard reports complete")
	}
	for _, m := range reg.All() {
		if err := c.Set(Observation{MetricID: m.ID, Score: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Complete() || len(c.Missing()) != 0 {
		t.Fatal("full scorecard reports incomplete")
	}
}

// figure5Fixture builds a small registry and scorecard for exact-sum tests.
func figure5Fixture(t *testing.T) (*Registry, *Scorecard) {
	t.Helper()
	reg, err := NewRegistry([]Metric{
		{ID: "l1", Name: "L1", Class: Logistical, Description: "d", Methods: ByAnalysis},
		{ID: "l2", Name: "L2", Class: Logistical, Description: "d", Methods: ByAnalysis},
		{ID: "a1", Name: "A1", Class: Architectural, Description: "d", Methods: ByAnalysis},
		{ID: "p1", Name: "P1", Class: Performance, Description: "d", Methods: ByAnalysis},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewScorecard(reg, "sys", "1.0")
	for id, s := range map[string]Score{"l1": 4, "l2": 1, "a1": 3, "p1": 2} {
		if err := c.Set(Observation{MetricID: id, Score: s}); err != nil {
			t.Fatal(err)
		}
	}
	return reg, c
}

func TestFigure5WeightedScore(t *testing.T) {
	_, c := figure5Fixture(t)
	w := Weights{"l1": 2, "l2": 0.5, "a1": 1, "p1": 3}
	got, err := c.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	// S1 = 4*2 + 1*0.5 = 8.5; S2 = 3*1 = 3; S3 = 2*3 = 6; total 17.5.
	if got.ByClass[Logistical] != 8.5 || got.ByClass[Architectural] != 3 || got.ByClass[Performance] != 6 {
		t.Fatalf("class scores = %+v", got.ByClass)
	}
	if got.Total != 17.5 {
		t.Fatalf("total = %v", got.Total)
	}
}

func TestNegativeWeights(t *testing.T) {
	_, c := figure5Fixture(t)
	// Counterproductive feature: negative weight reduces the total.
	w := Weights{"l1": -1, "a1": 2}
	got, err := c.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != -4+6 {
		t.Fatalf("total with negative weight = %v, want 2", got.Total)
	}
}

func TestUnweightedMetricsIgnored(t *testing.T) {
	_, c := figure5Fixture(t)
	w := Weights{"p1": 1}
	got, err := c.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 2 {
		t.Fatalf("total = %v, want 2", got.Total)
	}
}

var (
	evaluateSink WeightedScore
	classMapSink map[Class]float64
)

// Scoring walks the registry in place: ClassScore allocates nothing, and
// Evaluate allocates no more than its own ByClass result map.
func TestEvaluateAllocatesOnlyResultMap(t *testing.T) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "sys", "1.0")
	for i, m := range reg.All() {
		if err := c.Set(Observation{MetricID: m.ID, Score: Score(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	w := Uniform(reg)
	for _, j := range Classes {
		if allocs := testing.AllocsPerRun(50, func() { _, _ = c.ClassScore(j, w) }); allocs != 0 {
			t.Fatalf("ClassScore(%v): %v allocs/op, want 0", j, allocs)
		}
	}
	resultMap := testing.AllocsPerRun(50, func() {
		m := make(map[Class]float64)
		for _, j := range Classes {
			m[j] = 1
		}
		classMapSink = m
	})
	if allocs := testing.AllocsPerRun(50, func() { evaluateSink, _ = c.Evaluate(w) }); allocs > resultMap {
		t.Fatalf("Evaluate: %v allocs/op, want at most the result map's %v", allocs, resultMap)
	}
}

func TestEvaluateMissingObservationFails(t *testing.T) {
	reg, err := NewRegistry([]Metric{
		{ID: "l1", Name: "L1", Class: Logistical, Description: "d", Methods: ByAnalysis},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewScorecard(reg, "sys", "1.0")
	if _, err := c.Evaluate(Weights{"l1": 1}); err == nil {
		t.Fatal("evaluation with missing observation succeeded")
	}
}

func TestWeightsValidate(t *testing.T) {
	reg := StandardRegistry()
	if err := (Weights{"bogus": 1}).Validate(reg); err == nil {
		t.Fatal("unknown metric weight accepted")
	}
	if err := (Weights{MTimeliness: math.NaN()}).Validate(reg); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if err := (Weights{MTimeliness: math.Inf(1)}).Validate(reg); err == nil {
		t.Fatal("Inf weight accepted")
	}
	if err := (Weights{MTimeliness: -2.5}).Validate(reg); err != nil {
		t.Fatalf("negative finite weight rejected: %v", err)
	}
}

func TestUniformWeightsCoverRegistry(t *testing.T) {
	reg := StandardRegistry()
	w := Uniform(reg)
	if len(w) != reg.Len() {
		t.Fatalf("uniform weights cover %d of %d metrics", len(w), reg.Len())
	}
}

func TestRankOrdersBestFirst(t *testing.T) {
	reg, err := NewRegistry([]Metric{
		{ID: "p1", Name: "P1", Class: Performance, Description: "d", Methods: ByAnalysis},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, s Score) *Scorecard {
		c := NewScorecard(reg, name, "")
		if err := c.Set(Observation{MetricID: "p1", Score: s}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ranked, err := Rank([]*Scorecard{mk("low", 1), mk("high", 4), mk("mid", 2)}, Weights{"p1": 1})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].System != "high" || ranked[1].System != "mid" || ranked[2].System != "low" {
		t.Fatalf("ranking = %v, %v, %v", ranked[0].System, ranked[1].System, ranked[2].System)
	}
}

func TestRankStableOnTies(t *testing.T) {
	reg, _ := NewRegistry([]Metric{
		{ID: "p1", Name: "P1", Class: Performance, Description: "d", Methods: ByAnalysis},
	})
	mk := func(name string) *Scorecard {
		c := NewScorecard(reg, name, "")
		c.Set(Observation{MetricID: "p1", Score: 2})
		return c
	}
	ranked, err := Rank([]*Scorecard{mk("first"), mk("second")}, Weights{"p1": 1})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].System != "first" {
		t.Fatal("tie order not stable")
	}
}

// Property: evaluation is linear in the weights — scaling every weight by
// k scales every class score and the total by k.
func TestPropertyEvaluationLinear(t *testing.T) {
	_, c := figure5Fixture(t)
	base := Weights{"l1": 1.5, "l2": 2, "a1": -1, "p1": 0.25}
	s0, err := c.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kRaw int8) bool {
		k := float64(kRaw)
		scaled := make(Weights, len(base))
		for id, v := range base {
			scaled[id] = v * k
		}
		s, err := c.Evaluate(scaled)
		if err != nil {
			return false
		}
		approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
		return approx(s.Total, s0.Total*k) &&
			approx(s.ByClass[Logistical], s0.ByClass[Logistical]*k) &&
			approx(s.ByClass[Architectural], s0.ByClass[Architectural]*k) &&
			approx(s.ByClass[Performance], s0.ByClass[Performance]*k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for valid observations and nonnegative weights, the total is
// bounded by MaxScore times the weight mass.
func TestPropertyTotalBounded(t *testing.T) {
	reg := StandardRegistry()
	f := func(scores []uint8, weightsRaw []uint8) bool {
		c := NewScorecard(reg, "sys", "")
		all := reg.All()
		w := make(Weights)
		var mass float64
		for i, m := range all {
			s := Score(0)
			if i < len(scores) {
				s = Score(scores[i] % 5)
			}
			if err := c.Set(Observation{MetricID: m.ID, Score: s}); err != nil {
				return false
			}
			wi := 1.0
			if i < len(weightsRaw) {
				wi = float64(weightsRaw[i] % 10)
			}
			w[m.ID] = wi
			mass += wi
		}
		got, err := c.Evaluate(w)
		if err != nil {
			return false
		}
		return got.Total >= 0 && got.Total <= float64(MaxScore)*mass+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScorecardJSONRoundTrip(t *testing.T) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "NetRecorder", "5.0")
	c.Set(Observation{MetricID: MTimeliness, Score: 3, How: ByAnalysis, Note: "mean 12ms"})
	c.Set(Observation{MetricID: MOutsourcedSolution, Score: 4, How: ByOpenSource})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScorecardJSON(&buf, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got.System != "NetRecorder" || got.Version != "5.0" {
		t.Fatalf("meta = %q %q", got.System, got.Version)
	}
	o, ok := got.Get(MTimeliness)
	if !ok || o.Score != 3 || o.How != ByAnalysis || o.Note != "mean 12ms" {
		t.Fatalf("observation = %+v", o)
	}
}

func TestReadScorecardJSONRejectsInvalid(t *testing.T) {
	reg := StandardRegistry()
	cases := []string{
		`not json`,
		`{"observations": []}`, // no system
		`{"system":"x","observations":[{"metric":"bogus","score":1}]}`,
		`{"system":"x","observations":[{"metric":"timeliness","score":9}]}`,
		`{"system":"x","observations":[{"metric":"timeliness","score":2,"how":"psychic"}]}`,
		`{"system":"x","observations":[{"metric":"timeliness","score":1},{"metric":"timeliness","score":4}]}`,
		`{"system":"x","observations":[]} {"system":"y"}`,
		`{"system":"x","observations":[]} trailing`,
	}
	for _, in := range cases {
		if _, err := ReadScorecardJSON(strings.NewReader(in), reg); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestByClassOrdering(t *testing.T) {
	reg := StandardRegistry()
	per := reg.ByClass(Performance)
	if len(per) != 22 {
		t.Fatalf("performance metrics = %d, want 22", len(per))
	}
	for _, m := range per {
		if m.Class != Performance {
			t.Fatalf("ByClass returned %q of class %v", m.ID, m.Class)
		}
	}
}

func BenchmarkEvaluateFullScorecard(b *testing.B) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "bench", "")
	for i, m := range reg.All() {
		c.Set(Observation{MetricID: m.ID, Score: Score(i % 5)})
	}
	w := Uniform(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(w); err != nil {
			b.Fatal(err)
		}
	}
}
