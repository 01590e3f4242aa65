package products

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ids"
	"repro/internal/simtime"
)

func TestAllProductsInstantiate(t *testing.T) {
	for _, spec := range All() {
		sim := simtime.New(1)
		inst, err := spec.Instantiate(sim)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(inst.Sensors()) != spec.IDS.Sensors {
			t.Fatalf("%s: %d sensors, want %d", spec.Name, len(inst.Sensors()), spec.IDS.Sensors)
		}
		hasConsole := inst.Console() != nil
		if hasConsole != spec.IDS.HasConsole {
			t.Fatalf("%s: console presence %v, want %v", spec.Name, hasConsole, spec.IDS.HasConsole)
		}
	}
}

func TestFieldCoversPaperLineup(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("%d products, want 4 (three commercial + research)", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		names[s.Name] = true
	}
	for _, want := range []string{"NetRecorder", "TrueSecure", "StreamHunter", "AgentSwarm"} {
		if !names[want] {
			t.Fatalf("missing product %s", want)
		}
	}
}

func TestStaticScoresApplyCleanly(t *testing.T) {
	reg := core.StandardRegistry()
	for _, spec := range All() {
		card := core.NewScorecard(reg, spec.Name, spec.Version)
		if err := spec.ApplyStatic(card); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Statics must cover every logistical metric...
		for _, m := range reg.ByClass(core.Logistical) {
			if _, ok := card.Get(m.ID); !ok {
				t.Fatalf("%s: logistical metric %q unscored", spec.Name, m.ID)
			}
		}
		// ...and every untabled metric of the other classes.
		for _, m := range reg.All() {
			if m.Class != core.Logistical && !m.InPaperTable {
				if _, ok := card.Get(m.ID); !ok {
					t.Fatalf("%s: untabled metric %q unscored", spec.Name, m.ID)
				}
			}
		}
	}
}

// measuredByHarness lists the metrics the eval package fills; statics
// must NOT pre-fill them.
var measuredByHarness = []string{
	core.MAdjustableSensitivity, core.MDataStorage,
	core.MScalableLoadBalancing, core.MSystemThroughput,
	core.MAnalysisOfCompromise, core.MErrorReporting, core.MFirewallInteraction,
	core.MInducedLatency, core.MZeroLossThroughput, core.MNetworkLethalDose,
	core.MObservedFNRatio, core.MObservedFPRatio, core.MOperationalImpact,
	core.MRouterInteraction, core.MSNMPInteraction, core.MTimeliness,
}

func TestStaticScoresLeaveMeasuredMetricsOpen(t *testing.T) {
	reg := core.StandardRegistry()
	for _, spec := range All() {
		card := core.NewScorecard(reg, spec.Name, spec.Version)
		if err := spec.ApplyStatic(card); err != nil {
			t.Fatal(err)
		}
		for _, id := range measuredByHarness {
			if _, ok := card.Get(id); ok {
				t.Fatalf("%s: metric %q is harness-measured but statically scored", spec.Name, id)
			}
		}
		// Statics + harness metrics = complete coverage.
		missing := card.Missing()
		if len(missing) != len(measuredByHarness) {
			t.Fatalf("%s: %d metrics missing after statics, want exactly the %d measured ones: %v",
				spec.Name, len(missing), len(measuredByHarness), missing)
		}
	}
}

func TestProductsAreCharacteristicallyDifferent(t *testing.T) {
	// The scorecard methodology requires metrics that "clearly
	// differentiate between otherwise similar systems"; the product field
	// must actually differ on key axes.
	specs := All()
	balancers := map[ids.BalancerKind]bool{}
	mechanisms := map[detect.Mechanism]bool{}
	failureModes := map[ids.FailureMode]bool{}
	for _, s := range specs {
		balancers[s.IDS.Balancer] = true
		failureModes[s.IDS.FailureMode] = true
		mechanisms[s.IDS.Engine().Mechanism()] = true
	}
	if len(balancers) < 3 {
		t.Fatalf("only %d balancer disciplines across the field", len(balancers))
	}
	if len(mechanisms) != 3 {
		t.Fatalf("field covers %d mechanisms, want signature+anomaly+hybrid", len(mechanisms))
	}
	if len(failureModes) < 2 {
		t.Fatal("field has uniform failure behaviour")
	}
	hostAgents := 0
	for _, s := range specs {
		if s.HostAgents {
			hostAgents++
		}
	}
	if hostAgents == 0 || hostAgents == len(specs) {
		t.Fatal("host-agent support must differentiate the field")
	}
}

func TestStaticScoresDifferentiate(t *testing.T) {
	// For each logistical metric at least two products must disagree —
	// otherwise the metric isn't "characteristic" for this field.
	reg := core.StandardRegistry()
	cards := map[string]*core.Scorecard{}
	for _, spec := range All() {
		card := core.NewScorecard(reg, spec.Name, spec.Version)
		if err := spec.ApplyStatic(card); err != nil {
			t.Fatal(err)
		}
		cards[spec.Name] = card
	}
	uniform := 0
	for _, m := range reg.ByClass(core.Logistical) {
		scores := map[core.Score]bool{}
		for _, card := range cards {
			if o, ok := card.Get(m.ID); ok {
				scores[o.Score] = true
			}
		}
		if len(scores) == 1 {
			uniform++
		}
	}
	if uniform > 2 {
		t.Fatalf("%d logistical metrics score identically across the whole field", uniform)
	}
}

func TestResponsePoliciesWire(t *testing.T) {
	sim := simtime.New(1)
	spec := TrueSecure()
	inst, err := spec.Instantiate(sim)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Console() == nil {
		t.Fatal("TrueSecure needs a console")
	}
	if inst.Console().Policy["exploit"] != ids.ActionFirewallBlock {
		t.Fatal("response policy not applied")
	}
	// AgentSwarm has no console; instantiation must still succeed.
	if _, err := AgentSwarm().Instantiate(simtime.New(1)); err != nil {
		t.Fatal(err)
	}
}

func TestNetRecorder51IsAPointRelease(t *testing.T) {
	v50, v51 := NetRecorder(), NetRecorder51()
	if v51.Version != "5.1" || v51.Name != v50.Name {
		t.Fatalf("point release identity wrong: %s %s", v51.Name, v51.Version)
	}
	// Same architecture...
	if v51.IDS.Sensors != v50.IDS.Sensors || v51.IDS.Balancer != v50.IDS.Balancer ||
		v51.IDS.FailureMode != v50.IDS.FailureMode {
		t.Fatal("point release changed the architecture")
	}
	// ...different engine build.
	e50 := v50.IDS.Engine().(*detect.SignatureEngine)
	e51 := v51.IDS.Engine().(*detect.SignatureEngine)
	if !e50.Reassembling() || !e51.Reassembling() {
		t.Fatal("both releases should reassemble")
	}
	if _, err := v51.Instantiate(simtime.New(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFindProducts(t *testing.T) {
	if _, ok := Find("netrecorder"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if s, ok := Find("NetRecorder:5.1"); !ok || s.Version != "5.1" {
		t.Fatalf("versioned lookup = %+v, %v", s, ok)
	}
	if s, ok := Find("netrecorder:5.0"); !ok || s.Version != "5.0" {
		t.Fatalf("5.0 lookup = %+v, %v", s, ok)
	}
	if _, ok := Find("nonesuch"); ok {
		t.Fatal("unknown product found")
	}
}

// TestTelemetryNames pins the release naming rule: every current
// release keeps its Name, and any other release gets a dot-free name
// carrying its version.
func TestTelemetryNames(t *testing.T) {
	for _, s := range All() {
		if got := s.TelemetryName(); got != s.Name {
			t.Fatalf("%s %s: telemetry name %q, want %q", s.Name, s.Version, got, s.Name)
		}
	}
	if got := NetRecorder51().TelemetryName(); got != "NetRecorder_5_1" {
		t.Fatalf("NetRecorder 5.1: telemetry name %q, want NetRecorder_5_1", got)
	}
}
