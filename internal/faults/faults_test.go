package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

func TestParseScenario(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "span-degrade",
		"description": "SPAN port loses bandwidth mid-campaign",
		"resilience": true,
		"events": [
			{"at": "2s", "duration": "10s", "kind": "link-degrade", "target": "link:span", "severity": 0.8},
			{"at": "4s", "kind": "sensor-crash", "target": "sensor:0"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "span-degrade" || !sc.Resilience || len(sc.Events) != 2 {
		t.Fatalf("parsed scenario wrong: %+v", sc)
	}
	if sc.Events[0].At.Std() != 2*time.Second || sc.Events[0].Duration.Std() != 10*time.Second {
		t.Fatalf("durations mis-parsed: %+v", sc.Events[0])
	}
	if sc.Empty() {
		t.Fatal("non-empty scenario reported Empty")
	}
}

func TestParseRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown-kind", `{"name":"x","events":[{"at":"1s","kind":"meteor-strike"}]}`, "unknown kind"},
		{"missing-name", `{"events":[]}`, "needs a name"},
		{"bad-severity", `{"name":"x","events":[{"at":"1s","duration":"1s","kind":"alert-loss","severity":1.5}]}`, "outside [0,1]"},
		{"missing-duration", `{"name":"x","events":[{"at":"1s","kind":"analyzer-stall","target":"analyzer:0"}]}`, "positive duration"},
		{"wrong-target-shape", `{"name":"x","events":[{"at":"1s","duration":"1s","kind":"link-loss","target":"sensor:0"}]}`, "must be link:"},
		{"bad-duration-string", `{"name":"x","events":[{"at":"1 parsec","kind":"sensor-crash","target":"sensor:0"}]}`, "bad duration"},
		{"unknown-field", `{"name":"x","frobnicate":true,"events":[]}`, "unknown field"},
		{"negative-offset", `{"name":"x","events":[{"at":"-1s","kind":"sensor-crash","target":"sensor:0"}]}`, "negative offset"},
		{"trailing-object", `{"name":"x","events":[]} {"name":"y"}`, "trailing data"},
		{"trailing-garbage", `{"name":"x","events":[]} ]`, "trailing data"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.in))
		if err == nil {
			t.Errorf("%s: Parse accepted invalid scenario", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// testRig builds a minimal sim + link + IDS for injector tests: src
// sends over the "span" link to sink.
func testRig(t *testing.T) (*simtime.Sim, *netsim.Host, *netsim.Sink, *ids.IDS, Targets) {
	t.Helper()
	sim := simtime.New(3)
	sink := netsim.NewSink("sink")
	src := netsim.NewHost(sim, "src", packet.IPv4(10, 0, 0, 1))
	link := netsim.NewLink(sim, src, sink, netsim.LinkConfig{Name: "span"})
	src.SetLink(link)
	inst, err := ids.New(sim, ids.Config{
		Name: "rig", Sensors: 2, Analyzers: 1, Balancer: ids.BalancerFlowHash,
		Engine: func() detect.Engine {
			return detect.NewSignatureEngine(detect.StandardContentRules(), detect.StandardThresholdRules())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, src, sink, inst, Targets{Links: map[string]*netsim.Link{"span": link}, IDS: inst}
}

func TestInjectorRejectsUnknownTargets(t *testing.T) {
	sim, _, _, _, tg := testRig(t)
	cases := []struct {
		ev      Event
		wantErr string
	}{
		{Event{At: 0, Duration: Duration(time.Second), Kind: KindLinkPartition, Target: "link:backhaul"}, "unknown link"},
		{Event{At: 0, Kind: KindSensorCrash, Target: "sensor:7"}, "sensor index"},
		{Event{At: 0, Duration: Duration(time.Second), Kind: KindAnalyzerStall, Target: "analyzer:3"}, "analyzer index"},
	}
	for _, c := range cases {
		sc := &Scenario{Name: "t", Events: []Event{c.ev}}
		_, err := NewInjector(sim, sc, 1, tg)
		if err == nil {
			t.Errorf("%s: injector accepted bad target %q", c.ev.Kind, c.ev.Target)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.ev.Kind, err, c.wantErr)
		}
	}
}

func TestInjectorPartitionWindowScalesWithSeverity(t *testing.T) {
	// A partition's active window scales with severity: packets offered
	// inside the scaled window drop, those after it pass.
	dropsAtSeverity := func(sev float64) uint64 {
		sim, src, sink, _, tg := testRig(t)
		sc := &Scenario{Name: "t", Events: []Event{
			{At: 0, Duration: Duration(8 * time.Second), Kind: KindLinkPartition, Target: "link:span"},
		}}
		inj, err := NewInjector(sim, sc, sev, tg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Arm(); err != nil {
			t.Fatal(err)
		}
		// One packet per second for 10s.
		for i := 0; i < 10; i++ {
			at := time.Duration(i)*time.Second + 500*time.Millisecond
			sim.MustSchedule(at, func() {
				src.Send(&packet.Packet{Dst: packet.IPv4(10, 0, 0, 2), Payload: []byte("x")})
			})
		}
		sim.Run()
		return 10 - sink.Count
	}
	full, half, none := dropsAtSeverity(1), dropsAtSeverity(0.5), dropsAtSeverity(0)
	if none != 0 {
		t.Fatalf("severity 0 dropped %d packets", none)
	}
	if full != 8 {
		t.Fatalf("severity 1 dropped %d, want 8 (full window)", full)
	}
	if half != 4 {
		t.Fatalf("severity 0.5 dropped %d, want 4 (half window)", half)
	}
}

func TestInjectorZeroSeverityArmsNothing(t *testing.T) {
	sim, _, _, _, tg := testRig(t)
	sc := &Scenario{Name: "t", Resilience: false, Events: []Event{
		{At: 0, Duration: Duration(time.Second), Kind: KindAlertLoss},
		{At: 0, Kind: KindSensorCrash, Target: "sensor:*"},
	}}
	inj, err := NewInjector(sim, sc, 0, tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	if len(inj.Applied) != 0 {
		t.Fatalf("severity 0 applied %d events", len(inj.Applied))
	}
	// The event queue must be empty: Run returns immediately at time 0.
	sim.Run()
	if sim.Now() != 0 {
		t.Fatalf("severity-0 injector left events on the queue (now=%v)", sim.Now())
	}
}

func TestInjectorSensorCrashAndHang(t *testing.T) {
	sim, _, _, inst, tg := testRig(t)
	sc := &Scenario{Name: "t", Events: []Event{
		{At: Duration(time.Second), Kind: KindSensorCrash, Target: "sensor:0"},
		{At: Duration(time.Second), Duration: Duration(2 * time.Second), Kind: KindSensorHang, Target: "sensor:1"},
	}}
	inj, err := NewInjector(sim, sc, 1, tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(1500 * time.Millisecond)
	if inst.Sensors()[0].State() != ids.SensorFailed || inst.Sensors()[1].State() != ids.SensorFailed {
		t.Fatal("sensors not failed inside fault window")
	}
	sim.Run()
	// The rig has no RestartAfter: the crashed sensor stays down, the
	// hung one was revived by the injector at window end.
	if inst.Sensors()[0].State() != ids.SensorFailed {
		t.Fatal("crashed sensor without restart policy revived itself")
	}
	if inst.Sensors()[1].State() != ids.SensorUp {
		t.Fatal("hung sensor not recovered at window end")
	}
	if got := inst.Sensors()[1].Downtime(); got != 2*time.Second {
		t.Fatalf("hung sensor downtime = %v, want 2s", got)
	}
}
