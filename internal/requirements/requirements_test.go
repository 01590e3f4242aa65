package requirements

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func reg(t testing.TB) *core.Registry {
	t.Helper()
	return core.StandardRegistry()
}

func TestAssignOrdinalWeights(t *testing.T) {
	reqs := AssignOrdinalWeights([][]string{
		{"least-a", "least-b"}, // group 1
		{"mid"},                // group 2
		{"most"},               // group 3
	})
	if len(reqs) != 4 {
		t.Fatalf("got %d requirements", len(reqs))
	}
	if reqs[0].Weight != 1 || reqs[1].Weight != 1 {
		t.Fatal("first group must share the lowest weight (duplicates allowed)")
	}
	if reqs[2].Weight != 2 || reqs[3].Weight != 3 {
		t.Fatalf("weights = %v, %v", reqs[2].Weight, reqs[3].Weight)
	}
}

func TestValidateOrderingEnforced(t *testing.T) {
	r := reg(t)
	bad := &Set{Requirements: []Requirement{
		{Name: "most", Weight: 3, Contributes: []string{core.MTimeliness}},
		{Name: "least", Weight: 1, Contributes: []string{core.MTimeliness}},
	}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("descending weights accepted")
	}
	dup := &Set{Requirements: []Requirement{
		{Name: "a", Weight: 2, Contributes: []string{core.MTimeliness}},
		{Name: "b", Weight: 2, Contributes: []string{core.MObservedFNRatio}},
	}}
	if err := dup.Validate(r); err != nil {
		t.Fatalf("duplicate weights rejected (partial order allows them): %v", err)
	}
}

func TestValidateRejectsUnknownMetricAndEmpty(t *testing.T) {
	r := reg(t)
	if err := (&Set{}).Validate(r); err == nil {
		t.Fatal("empty set accepted")
	}
	bad := &Set{Requirements: []Requirement{{Name: "x", Weight: 1, Contributes: []string{"nope"}}}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("unknown metric accepted")
	}
	bad2 := &Set{Requirements: []Requirement{{Name: "x", Weight: 1}}}
	if err := bad2.Validate(r); err == nil {
		t.Fatal("contribution-free requirement accepted")
	}
	bad3 := &Set{Requirements: []Requirement{{Weight: 1, Contributes: []string{core.MTimeliness}}}}
	if err := bad3.Validate(r); err == nil {
		t.Fatal("nameless requirement accepted")
	}
}

func TestDeriveWeightsSumsContributions(t *testing.T) {
	r := reg(t)
	s := &Set{Requirements: []Requirement{
		{Name: "least", Weight: 1, Contributes: []string{core.MTimeliness}},
		{Name: "mid", Weight: 2.5, Contributes: []string{core.MTimeliness, core.MObservedFNRatio}},
		{Name: "most", Weight: 3, Contributes: []string{core.MObservedFNRatio}},
	}}
	w, err := DeriveWeights(s, r)
	if err != nil {
		t.Fatal(err)
	}
	if w[core.MTimeliness] != 3.5 {
		t.Fatalf("timeliness weight = %v, want 1+2.5", w[core.MTimeliness])
	}
	if w[core.MObservedFNRatio] != 5.5 {
		t.Fatalf("fn-ratio weight = %v, want 2.5+3", w[core.MObservedFNRatio])
	}
	if w[core.MOutsourcedSolution] != 0 {
		t.Fatal("untouched metric must get weight 0")
	}
	if len(w) != r.Len() {
		t.Fatalf("weights cover %d of %d metrics", len(w), r.Len())
	}
}

func TestFigure6Example(t *testing.T) {
	r := reg(t)
	s, w, err := Figure6Example(r)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's published requirement weights.
	if s.Requirements[0].Weight != 1 || s.Requirements[1].Weight != 2.5 || s.Requirements[2].Weight != 3 {
		t.Fatalf("requirement weights = %v", s.Requirements)
	}
	// Shared metric gets the sum of both contributors.
	if w[core.MSystemThroughput] != 5.5 {
		t.Fatalf("system-throughput = %v, want 2.5+3", w[core.MSystemThroughput])
	}
	if w[core.MDistributedManagement] != 1 || w[core.MTimeliness] != 3 {
		t.Fatalf("weights = dm:%v t:%v", w[core.MDistributedManagement], w[core.MTimeliness])
	}
	// Zero-weight metrics exist (Figure 6 shows 0-weighted metrics).
	zeros := 0
	for _, v := range w {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no zero-weight metrics")
	}
}

func TestPostureSetsValid(t *testing.T) {
	r := reg(t)
	for _, s := range []*Set{RealTimeEmphasis(), DistributedEmphasis()} {
		if err := s.Validate(r); err != nil {
			t.Fatal(err)
		}
		w, err := DeriveWeights(s, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(SortedNonZero(w)) < 4 {
			t.Fatal("posture weighted too few metrics")
		}
	}
}

func TestDistributedEmphasisPrioritizesFNRatio(t *testing.T) {
	r := reg(t)
	w, err := DeriveWeights(DistributedEmphasis(), r)
	if err != nil {
		t.Fatal(err)
	}
	// "Distributed systems … should put emphasis on reducing the false
	// negative ratio to the lowest possible level."
	top := SortedNonZero(w)[0]
	if top != core.MObservedFNRatio {
		t.Fatalf("heaviest metric = %q, want observed-false-negative-ratio", top)
	}
	if w[core.MObservedFNRatio] <= w[core.MObservedFPRatio] {
		t.Fatal("FN ratio must outweigh FP ratio in the distributed posture")
	}
}

func TestRealTimeEmphasisPrioritizesSpeedAndReaction(t *testing.T) {
	r := reg(t)
	w, err := DeriveWeights(RealTimeEmphasis(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Timeliness contributes to both weight-3 requirements.
	if w[core.MTimeliness] != 6 {
		t.Fatalf("timeliness weight = %v, want 6", w[core.MTimeliness])
	}
	if w[core.MFirewallInteraction] <= w[core.MDistributedManagement] {
		t.Fatal("reaction must outweigh logistics in the real-time posture")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := RealTimeEmphasis()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requirements) != len(s.Requirements) {
		t.Fatalf("%d requirements, want %d", len(got.Requirements), len(s.Requirements))
	}
	for i := range s.Requirements {
		if got.Requirements[i].Name != s.Requirements[i].Name ||
			got.Requirements[i].Weight != s.Requirements[i].Weight {
			t.Fatalf("requirement %d mismatch", i)
		}
	}
	for _, bad := range []string{
		"{broken",
		`{"requirements":[]} garbage {`,
		`{"requirements":[]} {"requirements":[]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed JSON %q accepted", bad)
		}
	}
}

func TestDescribeListsEveryRequirement(t *testing.T) {
	s := DistributedEmphasis()
	d := s.Describe()
	for _, r := range s.Requirements {
		if !strings.Contains(d, r.Name) {
			t.Fatalf("description missing %q", r.Name)
		}
	}
}

func TestSortedNonZeroOrder(t *testing.T) {
	w := core.Weights{"a": 1, "b": 5, "c": 0, "d": 5}
	got := SortedNonZero(w)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	if got[0] != "b" || got[1] != "d" || got[2] != "a" {
		t.Fatalf("order = %v", got)
	}
}

// Property: derived metric weight equals the sum over requirements that
// list it, for arbitrary contribution patterns.
func TestPropertyDeriveWeightsIsSum(t *testing.T) {
	r := reg(t)
	all := r.All()
	f := func(pattern []uint16, weightsRaw []uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		var s Set
		prev := 0.0
		for i, p := range pattern {
			if i >= 6 {
				break
			}
			wt := prev
			if i < len(weightsRaw) {
				wt = prev + float64(weightsRaw[i]%4)
			}
			prev = wt
			m1 := all[int(p)%len(all)].ID
			m2 := all[int(p>>8)%len(all)].ID
			s.Requirements = append(s.Requirements, Requirement{
				Name: "r", Weight: wt, Contributes: []string{m1, m2},
			})
		}
		w, err := DeriveWeights(&s, r)
		if err != nil {
			return false
		}
		// Recompute independently.
		want := make(map[string]float64)
		for _, rq := range s.Requirements {
			for _, id := range rq.Contributes {
				want[id] += rq.Weight
			}
		}
		for id, v := range want {
			if math.Abs(w[id]-v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
