package ids

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// resilientIDS builds an instrumented two-sensor IDS with the
// self-healing layer on.
func resilientIDS(t *testing.T) (*simtime.Sim, *IDS, *obs.Registry) {
	t.Helper()
	sim := simtime.New(11)
	inst, err := New(sim, Config{
		Name: "res", Sensors: 2, Analyzers: 1, Balancer: BalancerStatic,
		Engine: func() detect.Engine {
			return detect.NewSignatureEngine(detect.StandardContentRules(), detect.StandardThresholdRules())
		},
		HasConsole: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inst.Instrument(reg)
	inst.EnableResilience()
	return sim, inst, reg
}

func benign(src packet.Addr) *packet.Packet {
	return &packet.Packet{Src: src, Dst: packet.IPv4(10, 0, 9, 9), Payload: []byte("benign payload")}
}

func TestRerouteAwayFromDeadSensor(t *testing.T) {
	sim, inst, reg := resilientIDS(t)
	// Static balancer: third-octet parity picks the sensor. Crash sensor
	// 0 before the first heartbeat classifies it.
	inst.Sensors()[0].InjectCrash()
	inst.StartHealthLoop()

	inst.Ingest(benign(packet.IPv4(10, 0, 0, 1))) // maps to dead sensor 0 -> reroute
	inst.Ingest(benign(packet.IPv4(10, 0, 1, 1))) // maps to healthy sensor 1 -> direct
	inst.StopHealthLoop()
	sim.Run()

	if got := inst.ResilienceStats().Rerouted; got != 1 {
		t.Fatalf("Rerouted = %d, want 1", got)
	}
	if got := reg.Counter("ids.balancer.rerouted").Value(); got != 1 {
		t.Fatalf("rerouted counter = %d, want 1", got)
	}
	if got := inst.Sensors()[1].Processed; got != 2 {
		t.Fatalf("healthy sensor processed %d packets, want 2 (own + rerouted)", got)
	}
	if got := inst.Sensors()[0].Processed; got != 0 {
		t.Fatalf("dead sensor processed %d packets, want 0", got)
	}
	if inst.ResilienceStats().HealthChecks == 0 {
		t.Fatal("heartbeat never ticked")
	}
}

func TestRerouteKeepsFailClosedVerdict(t *testing.T) {
	// Rerouting restores detection coverage but must not launder the
	// product's in-line policy: a dead fail-closed sensor still blocks
	// its share of traffic.
	sim := simtime.New(11)
	inst, err := New(sim, Config{
		Name: "res", Sensors: 2, Analyzers: 1, Balancer: BalancerStatic,
		Engine: func() detect.Engine {
			return detect.NewSignatureEngine(detect.StandardContentRules(), detect.StandardThresholdRules())
		},
		FailureMode: FailClosed,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.EnableResilience()
	inst.Sensors()[0].InjectCrash()
	inst.StartHealthLoop()
	if inst.Ingest(benign(packet.IPv4(10, 0, 0, 1))) {
		t.Fatal("rerouted packet passed a down fail-closed sensor")
	}
	if inst.ResilienceStats().Rerouted != 1 {
		t.Fatal("packet was not rerouted")
	}
	inst.StopHealthLoop()
	sim.Run()
}

func TestAlertLossSpooledAndRedelivered(t *testing.T) {
	sim, inst, reg := resilientIDS(t)
	deliver := inst.deliverFunc(inst.Analyzers()[0])
	alerts := []detect.Alert{{Technique: "probe", Severity: 0.9, Engine: "sig"}}

	inst.SetAlertLoss(true)
	deliver(alerts)
	if inst.AlertsLost != 0 {
		t.Fatalf("resilient run lost %d alerts during the outage", inst.AlertsLost)
	}
	if got := inst.ResilienceStats().Spooled; got != 1 {
		t.Fatalf("Spooled = %d, want 1", got)
	}
	sim.MustSchedule(600*time.Millisecond, func() { inst.SetAlertLoss(false) })
	sim.Run()

	st := inst.ResilienceStats()
	if st.SpoolDelivered != 1 {
		t.Fatalf("SpoolDelivered = %d, want 1", st.SpoolDelivered)
	}
	// Retries at 250ms and 500ms found the fault active; the pass at 1s
	// delivered. The first retry interval repeats the 250ms base delay,
	// and the second doubles it to 500ms.
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if got := inst.Monitor().Incidents[0].ReportedAt; got != time.Second {
		t.Fatalf("redelivered at %v, want 1s", got)
	}
	if got := inst.Analyzers()[0].AlertsSeen; got != 1 {
		t.Fatalf("analyzer saw %d alerts after redelivery, want 1", got)
	}
	if got := reg.Counter("ids.spool.delivered").Value(); got != 1 {
		t.Fatalf("delivered counter = %d, want 1", got)
	}
	if got := inst.Stats().SpoolDelivered; got != 1 {
		t.Fatalf("Stats().SpoolDelivered = %d, want 1", got)
	}
}

func TestAlertLossWithoutResilienceAccountsLoss(t *testing.T) {
	sim := simtime.New(11)
	inst, err := New(sim, Config{
		Name: "bare", Sensors: 1, Analyzers: 1,
		Engine: func() detect.Engine {
			return detect.NewSignatureEngine(detect.StandardContentRules(), detect.StandardThresholdRules())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inst.Instrument(reg)
	deliver := inst.deliverFunc(inst.Analyzers()[0])

	inst.SetAlertLoss(true)
	deliver([]detect.Alert{{Technique: "probe"}, {Technique: "flood"}})
	inst.SetAlertLoss(false)
	sim.Run()

	if inst.AlertsLost != 2 {
		t.Fatalf("AlertsLost = %d, want 2", inst.AlertsLost)
	}
	if got := reg.Counter("ids.alerts_lost").Value(); got != 2 {
		t.Fatalf("alerts_lost counter = %d, want 2", got)
	}
	if got := inst.Analyzers()[0].AlertsSeen; got != 0 {
		t.Fatalf("severed path still delivered %d alerts", got)
	}
	if got := inst.Stats().AlertsLost; got != 2 {
		t.Fatalf("Stats().AlertsLost = %d, want 2", got)
	}
}

func TestAnalyzerStallSpoolOverflowAccounted(t *testing.T) {
	sim, inst, reg := resilientIDS(t)
	an := inst.Analyzers()[0]
	an.SetStalled(true)
	alerts := make([]detect.Alert, spoolLimit+2)
	for i := range alerts {
		alerts[i] = detect.Alert{Technique: "a"}
	}
	an.Submit(alerts)

	if an.DroppedAlerts != 2 {
		t.Fatalf("DroppedAlerts = %d, want 2 (spool limit %d)", an.DroppedAlerts, spoolLimit)
	}
	if got := reg.Counter("ids.analyzer.alerts_dropped").Value(); got != 2 {
		t.Fatalf("alerts_dropped counter = %d, want 2", got)
	}
	if got := len(an.spool.items); got != spoolLimit {
		t.Fatalf("spool holds %d alerts, want %d", got, spoolLimit)
	}

	sim.MustSchedule(150*time.Millisecond, func() { an.SetStalled(false) })
	sim.Run()

	if an.spool.delivered != spoolLimit {
		t.Fatalf("spool delivered %d, want %d", an.spool.delivered, spoolLimit)
	}
	// Every submitted alert is in exactly one bucket.
	if an.AlertsSeen+an.DroppedAlerts != spoolLimit+2 {
		t.Fatalf("accounting leak: seen %d + dropped %d != %d submitted", an.AlertsSeen, an.DroppedAlerts, spoolLimit+2)
	}
	st := inst.Stats()
	if st.AlertsDropped != 2 || st.SpoolDelivered != spoolLimit {
		t.Fatalf("Stats dropped/delivered = %d/%d, want 2/%d", st.AlertsDropped, st.SpoolDelivered, spoolLimit)
	}
}

func TestAnalyzerStallWithoutSpoolDropsAll(t *testing.T) {
	sim := simtime.New(11)
	inst, err := New(sim, Config{
		Name: "bare", Sensors: 1, Analyzers: 1,
		Engine: func() detect.Engine {
			return detect.NewSignatureEngine(detect.StandardContentRules(), detect.StandardThresholdRules())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inst.Instrument(reg)
	an := inst.Analyzers()[0]

	an.SetStalled(true)
	an.Submit([]detect.Alert{{Technique: "a"}, {Technique: "b"}, {Technique: "c"}})
	an.SetStalled(false)
	sim.Run()

	if an.DroppedAlerts != 3 {
		t.Fatalf("DroppedAlerts = %d, want 3 (no spool configured)", an.DroppedAlerts)
	}
	if got := reg.Counter("ids.analyzer.alerts_dropped").Value(); got != 3 {
		t.Fatalf("alerts_dropped counter = %d, want 3", got)
	}
	if an.AlertsSeen != 0 {
		t.Fatalf("unspooled stall still delivered %d alerts", an.AlertsSeen)
	}
}

func TestMgmtOutageSpoolsAndDrainsConsoleDeliveries(t *testing.T) {
	sim, inst, reg := resilientIDS(t)
	m := inst.Monitor()
	an := inst.Analyzers()[0]

	m.SetMgmtOutage(true)
	// spoolLimit+1 distinct incidents above the notify threshold: the
	// first spoolLimit console deliveries spool, the last is counted lost.
	alerts := make([]detect.Alert, spoolLimit+1)
	for i := range alerts {
		alerts[i] = detect.Alert{Technique: fmt.Sprintf("t%d", i), Severity: 0.9, Engine: "sig"}
	}
	an.Submit(alerts)

	if len(m.Notifications) != spoolLimit+1 {
		t.Fatalf("operator notifications = %d, want %d (monitor view survives the outage)", len(m.Notifications), spoolLimit+1)
	}
	if m.MgmtDropped != 1 {
		t.Fatalf("MgmtDropped = %d, want 1", m.MgmtDropped)
	}
	if got := reg.Counter("ids.monitor.mgmt_dropped").Value(); got != 1 {
		t.Fatalf("mgmt_dropped counter = %d, want 1", got)
	}

	sim.MustSchedule(400*time.Millisecond, func() { m.SetMgmtOutage(false) })
	sim.Run()

	if m.mgmt.delivered != spoolLimit {
		t.Fatalf("mgmt spool delivered %d, want %d (spooled incidents drained)", m.mgmt.delivered, spoolLimit)
	}
	if m.mgmt.retries == 0 {
		t.Fatal("no retry recorded while the channel was down")
	}
	if got := reg.Counter("ids.monitor.mgmt_retries").Value(); got != m.mgmt.retries {
		t.Fatalf("mgmt_retries counter = %d, want %d", got, m.mgmt.retries)
	}
	if got := inst.Stats().MgmtDropped; got != 1 {
		t.Fatalf("Stats().MgmtDropped = %d, want 1", got)
	}
}

// TestSpoolRetrySchedule pins the retry schedule the three resilience
// spools share. Each run spools one item at t=0 with its fault on and
// clears the fault at T; the item arrives on the first retry after T.
// The first retry fires one base delay (250ms) after the item arrives,
// and each later delay doubles from the base up to the 4s cap: 250ms,
// 500ms, 1s, 2s, 4s, 4s, ….
func TestSpoolRetrySchedule(t *testing.T) {
	alert := detect.Alert{Technique: "probe", Severity: 0.9, Engine: "sig"}
	reportedAt := func(inst *IDS) []time.Duration {
		var at []time.Duration
		for _, inc := range inst.Monitor().Incidents {
			at = append(at, inc.ReportedAt)
		}
		return at
	}
	spools := []struct {
		name  string
		fault func(inst *IDS, on bool)
		add   func(inst *IDS)
		// deliveredAt lists the delivery times seen after the run.
		deliveredAt func(inst *IDS) []time.Duration
		// retries is nil for a spool that does not count its retries.
		retries func(inst *IDS, reg *obs.Registry) uint64
	}{
		{
			name:        "transit",
			fault:       func(inst *IDS, on bool) { inst.SetAlertLoss(on) },
			add:         func(inst *IDS) { inst.deliverFunc(inst.Analyzers()[0])([]detect.Alert{alert}) },
			deliveredAt: reportedAt,
			retries:     func(inst *IDS, _ *obs.Registry) uint64 { return inst.ResilienceStats().Retries },
		},
		{
			name:        "analyzer",
			fault:       func(inst *IDS, on bool) { inst.Analyzers()[0].SetStalled(on) },
			add:         func(inst *IDS) { inst.Analyzers()[0].Submit([]detect.Alert{alert}) },
			deliveredAt: reportedAt,
		},
		{
			name:  "management",
			fault: func(inst *IDS, on bool) { inst.Monitor().SetMgmtOutage(on) },
			add: func(inst *IDS) {
				inst.Console().SetPolicy(alert.Technique, ActionSNMPTrap)
				inst.Analyzers()[0].Submit([]detect.Alert{alert})
			},
			// The console acts one response latency after delivery.
			deliveredAt: func(inst *IDS) []time.Duration {
				var at []time.Duration
				for _, trap := range inst.Console().SNMPTraps {
					at = append(at, trap.At-inst.Console().ResponseLatency)
				}
				return at
			},
			retries: func(_ *IDS, reg *obs.Registry) uint64 {
				return reg.Counter("ids.monitor.mgmt_retries").Value()
			},
		},
	}
	schedule := []struct {
		clear, deliver time.Duration
		retries        uint64
	}{
		{100 * time.Millisecond, 250 * time.Millisecond, 0},
		{300 * time.Millisecond, 500 * time.Millisecond, 1},
		{600 * time.Millisecond, time.Second, 2},
		{1500 * time.Millisecond, 2 * time.Second, 3},
		{3 * time.Second, 4 * time.Second, 4},
		{5 * time.Second, 8 * time.Second, 5},
		{9 * time.Second, 12 * time.Second, 6},
		{13 * time.Second, 16 * time.Second, 7},
	}
	for _, sp := range spools {
		for _, want := range schedule {
			sim, inst, reg := resilientIDS(t)
			sp.fault(inst, true)
			sp.add(inst)
			sim.MustSchedule(want.clear, func() { sp.fault(inst, false) })
			sim.Run()

			got := sp.deliveredAt(inst)
			if len(got) != 1 || got[0] != want.deliver {
				t.Errorf("%s spool, fault cleared at %v: delivered at %v, want [%v]", sp.name, want.clear, got, want.deliver)
			}
			if sp.retries == nil {
				continue
			}
			if n := sp.retries(inst, reg); n != want.retries {
				t.Errorf("%s spool, fault cleared at %v: %d retries, want %d", sp.name, want.clear, n, want.retries)
			}
		}
	}
}
