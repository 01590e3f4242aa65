package ids

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/detect"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// stubEngine alerts on payloads containing the byte 'X' with fixed cost.
type stubEngine struct {
	sens float64
	cost time.Duration
}

func (e *stubEngine) Name() string                              { return "stub" }
func (e *stubEngine) Mechanism() detect.Mechanism               { return detect.MechanismSignature }
func (e *stubEngine) Train(p *packet.Packet, now time.Duration) {}
func (e *stubEngine) Inspect(p *packet.Packet, now time.Duration) []detect.Alert {
	for _, b := range p.Payload {
		if b == 'X' {
			return []detect.Alert{{
				At: now, Technique: "stub-attack", Severity: 0.9,
				Attacker: p.Src, Victim: p.Dst, Flow: p.Key(),
				Reason: "X marker", Engine: "stub",
			}}
		}
	}
	return nil
}
func (e *stubEngine) SetSensitivity(s float64) error {
	if s < 0 || s > 1 {
		return errBadSens
	}
	e.sens = s
	return nil
}
func (e *stubEngine) CostPerPacket(p *packet.Packet) time.Duration {
	if e.cost > 0 {
		return e.cost
	}
	return time.Microsecond
}

var errBadSens = &badSensErr{}

type badSensErr struct{}

func (*badSensErr) Error() string { return "bad sensitivity" }

func stubFactory() detect.Engine { return &stubEngine{sens: 0.5} }

func attackPkt(srcLast byte) *packet.Packet {
	return &packet.Packet{
		Src: packet.IPv4(203, 0, 1, srcLast), Dst: packet.IPv4(10, 1, 1, 1),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte("XXXX"),
	}
}

func benignPkt(srcLast byte) *packet.Packet {
	return &packet.Packet{
		Src: packet.IPv4(203, 0, 1, srcLast), Dst: packet.IPv4(10, 1, 1, 1),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte("hello"),
	}
}

func TestNewValidation(t *testing.T) {
	sim := simtime.New(1)
	if _, err := New(sim, Config{Name: "x"}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(sim, Config{Name: "x", Engine: stubFactory, Sensors: 4, Balancer: BalancerNone}); err == nil {
		t.Fatal("multi-sensor with no balancer accepted")
	}
	if _, err := New(sim, Config{Name: "x", Engine: stubFactory, Sensors: -1}); err == nil {
		t.Fatal("negative sensors accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(attackPkt(1))
	s.Ingest(benignPkt(1))
	sim.Run()

	st := s.Stats()
	if st.Processed != 2 {
		t.Fatalf("processed %d", st.Processed)
	}
	if st.AlertsRaised != 1 {
		t.Fatalf("alerts %d", st.AlertsRaised)
	}
	if st.Incidents != 1 {
		t.Fatalf("incidents %d", st.Incidents)
	}
	if st.Notifications != 1 {
		t.Fatalf("notifications %d (severity 0.9 >= default threshold)", st.Notifications)
	}
	inc := s.Monitor().Incidents[0]
	if inc.Technique != "stub-attack" || inc.Attacker != packet.IPv4(203, 0, 1, 1) {
		t.Fatalf("incident %+v", inc)
	}
}

func TestCorrelationFoldsRepeatedAlerts(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, CorrelationWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		i := i
		sim.MustSchedule(time.Duration(i)*100*time.Millisecond, func() { s.Ingest(attackPkt(7)) })
	}
	sim.Run()
	if got := len(s.Monitor().Incidents); got != 1 {
		t.Fatalf("%d incidents, want 1 correlated", got)
	}
	if ac := s.Monitor().Incidents[0].AlertCount; ac != 20 {
		t.Fatalf("AlertCount = %d", ac)
	}
	if n := len(s.Monitor().Notifications); n != 1 {
		t.Fatalf("notifications = %d, want 1 (no renotify)", n)
	}
}

func TestCorrelationWindowExpiry(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, CorrelationWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim.MustSchedule(0, func() { s.Ingest(attackPkt(7)) })
	sim.MustSchedule(10*time.Second, func() { s.Ingest(attackPkt(7)) })
	sim.Run()
	if got := len(s.Monitor().Incidents); got != 2 {
		t.Fatalf("%d incidents, want 2 (window expired)", got)
	}
}

func TestDistinctAttackersDistinctIncidents(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "test", Engine: stubFactory})
	s.Ingest(attackPkt(1))
	s.Ingest(attackPkt(2))
	sim.Run()
	if got := len(s.Monitor().Incidents); got != 2 {
		t.Fatalf("%d incidents, want 2", got)
	}
}

func TestFlowHashKeepsSessionOnOneSensor(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, Sensors: 4, Balancer: BalancerFlowHash})
	if err != nil {
		t.Fatal(err)
	}
	fwd := &packet.Packet{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: packet.ProtoTCP}
	rev := &packet.Packet{Src: 2, Dst: 1, SrcPort: 20, DstPort: 10, Proto: packet.ProtoTCP}
	a := s.pickSensor(fwd)
	b := s.pickSensor(rev)
	if a != b {
		t.Fatal("session directions landed on different sensors")
	}
}

func TestDynamicBalancerPinsFlows(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, Sensors: 3, Balancer: BalancerDynamic})
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Src: 9, Dst: 8, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	first := s.pickSensor(p)
	for i := 0; i < 10; i++ {
		if s.pickSensor(p) != first {
			t.Fatal("pinned flow moved sensors")
		}
	}
}

func TestDynamicBalancerSpreadsLoad(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, Sensors: 4, Balancer: BalancerDynamic})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		p := benignPkt(byte(i % 200))
		p.SrcPort = uint16(i)
		s.Ingest(p)
	}
	sim.Run()
	for i, sn := range s.Sensors() {
		if sn.Processed == 0 {
			t.Fatalf("sensor %d starved under dynamic balancing", i)
		}
	}
}

func TestStaticBalancerCanStarve(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, Sensors: 4, Balancer: BalancerStatic})
	if err != nil {
		t.Fatal(err)
	}
	// All traffic from one subnet: static placement sends it to one sensor.
	for i := 0; i < 100; i++ {
		s.Ingest(benignPkt(5))
	}
	sim.Run()
	active := 0
	for _, sn := range s.Sensors() {
		if sn.Processed > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("static placement used %d sensors for single-subnet traffic", active)
	}
}

func TestSensorOverloadDrops(t *testing.T) {
	sim := simtime.New(1)
	slow := func() detect.Engine { return &stubEngine{sens: 0.5, cost: time.Millisecond} }
	s, err := New(sim, Config{Name: "test", Engine: slow, SensorQueue: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Ingest(benignPkt(1))
	}
	sim.Run()
	st := s.Stats()
	if st.SensorDropped == 0 {
		t.Fatal("no drops under overload")
	}
	if st.Processed+st.SensorDropped != 100 {
		t.Fatalf("conservation: %d + %d != 100", st.Processed, st.SensorDropped)
	}
}

func TestLethalDoseFailsAndRestarts(t *testing.T) {
	sim := simtime.New(1)
	slow := func() detect.Engine { return &stubEngine{sens: 0.5, cost: 10 * time.Millisecond} }
	s, err := New(sim, Config{
		Name: "test", Engine: slow, SensorQueue: 4,
		LethalDropsPerSec: 50, FailureMode: FailCrash, RestartAfter: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		sim.MustSchedule(time.Duration(i)*time.Millisecond, func() { s.Ingest(benignPkt(1)) })
	}
	sim.RunUntil(time.Second)
	sensor := s.Sensors()[0]
	if sensor.State() != SensorFailed {
		t.Fatal("sensor survived lethal dose")
	}
	if sensor.Failures != 1 {
		t.Fatalf("Failures = %d", sensor.Failures)
	}
	sim.RunUntil(20 * time.Second)
	if sensor.State() != SensorUp {
		t.Fatal("sensor did not restart")
	}
	if sensor.Downtime() < 5*time.Second {
		t.Fatalf("downtime %v", sensor.Downtime())
	}
}

func TestFailClosedPassVerdict(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, FailureMode: FailClosed})
	if err != nil {
		t.Fatal(err)
	}
	sensor := s.Sensors()[0]
	if !s.Ingest(benignPkt(1)) {
		t.Fatal("healthy fail-closed sensor blocked traffic")
	}
	sensor.fail(sim.Now())
	if s.Ingest(benignPkt(1)) {
		t.Fatal("failed fail-closed sensor passed traffic")
	}
	// Fail-open keeps passing.
	s2, _ := New(sim, Config{Name: "t2", Engine: stubFactory, FailureMode: FailOpen})
	s2.Sensors()[0].fail(sim.Now())
	if !s2.Ingest(benignPkt(1)) {
		t.Fatal("failed fail-open sensor blocked traffic")
	}
}

func TestSeparateAnalysisAddsLatencyAndOverhead(t *testing.T) {
	run := func(separate bool) (time.Duration, uint64) {
		sim := simtime.New(1)
		s, err := New(sim, Config{
			Name: "test", Engine: stubFactory,
			SeparateAnalysis: separate, AnalysisLatency: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Ingest(attackPkt(1))
		sim.Run()
		if len(s.Monitor().Incidents) != 1 {
			t.Fatal("no incident")
		}
		return s.Monitor().Incidents[0].ReportedAt, s.Stats().AlertNetBytes
	}
	fusedAt, fusedBytes := run(false)
	sepAt, sepBytes := run(true)
	if sepAt <= fusedAt {
		t.Fatalf("separated analysis not slower: %v vs %v", sepAt, fusedAt)
	}
	if fusedBytes != 0 || sepBytes == 0 {
		t.Fatalf("alert net bytes: fused=%d sep=%d", fusedBytes, sepBytes)
	}
}

func TestConsoleFirewallResponse(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "test", Engine: stubFactory, HasConsole: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Console().SetPolicy("stub-attack", ActionFirewallBlock)
	s.Ingest(attackPkt(9))
	sim.Run()
	attacker := packet.IPv4(203, 0, 1, 9)
	if !s.Console().Firewall.Blocked(attacker) {
		t.Fatal("attacker not blocked")
	}
	// Subsequent traffic from the attacker is filtered at ingest.
	if s.Ingest(attackPkt(9)) {
		t.Fatal("blocked source passed")
	}
	if s.Console().Firewall.FilteredPackets != 1 {
		t.Fatalf("FilteredPackets = %d", s.Console().Firewall.FilteredPackets)
	}
}

func TestConsoleSNMPAndRedirect(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "test", Engine: stubFactory, HasConsole: true})
	s.Console().SetPolicy("stub-attack", ActionSNMPTrap)
	s.Ingest(attackPkt(3))
	sim.Run()
	if len(s.Console().SNMPTraps) != 1 {
		t.Fatalf("traps = %d", len(s.Console().SNMPTraps))
	}
	s.Console().SetPolicy("stub-attack", ActionRouterRedirect)
	s.Ingest(attackPkt(4))
	sim.Run()
	if len(s.Console().Redirects) != 1 {
		t.Fatalf("redirects = %d", len(s.Console().Redirects))
	}
}

func TestSetSensitivityReachesAllSensors(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "test", Engine: stubFactory, Sensors: 3, Balancer: BalancerFlowHash})
	if err := s.SetSensitivity(0.8); err != nil {
		t.Fatal(err)
	}
	for _, sn := range s.Sensors() {
		if sn.engine.(*stubEngine).sens != 0.8 {
			t.Fatal("sensitivity not pushed to all sensors")
		}
	}
}

// TestSharedProfileMatchesOwnTraining holds the contract that lets an
// IDS train one learned profile for all its sensors, and a testbed one
// for all its learning deployments: for a hybrid and an anomaly engine,
// every sensor of an IDS trained through IDS.Train returns, packet for
// packet, the alerts of an engine trained on its own, and so does every
// sensor of an anomaly IDS (StreamHunter's engine) that reads, through
// ShareProfile, the profile a hybrid IDS (TrueSecure's) trains. The
// IDSs also share a scan memo, as a testbed's do, so training and
// every sensor after the first read entropies through it, while the
// engines trained alone compute their own. The inspected
// packets come from a source whose rate window is still open when
// training ends, from a source first seen after training, and to a
// service unseen in training; each must alert.
func TestSharedProfileMatchesOwnTraining(t *testing.T) {
	lan, busy, late := packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(203, 0, 1, 9)
	type timed struct {
		at time.Duration
		p  *packet.Packet
	}
	pkt := func(at time.Duration, src packet.Addr, port uint16, i int) timed {
		return timed{at, &packet.Packet{
			Src: src, Dst: lan, SrcPort: 40000, DstPort: port, Proto: packet.ProtoTCP,
			Payload: []byte(fmt.Sprintf("GET /page%d.html HTTP/1.0 %s", i, strings.Repeat("x", 90+i%40))),
		}}
	}
	// 40 pps from busy for 3 s: the window open at the end of training
	// already holds 38 packets.
	var train, inspect []timed
	for i := 0; i < 120; i++ {
		train = append(train, pkt(time.Duration(i)*25*time.Millisecond, busy, 80, i))
	}
	// A 30-packet burst inside that window takes busy past 1.5x its
	// trained peak of 41 only if the window carries over.
	for i := 0; i < 30; i++ {
		inspect = append(inspect, pkt(3*time.Second+time.Duration(i)*time.Millisecond, busy, 80, i))
	}
	inspect = append(inspect, pkt(3100*time.Millisecond, late, 80, 0), pkt(3200*time.Millisecond, busy, 6000, 0))

	hybrid := func() detect.Engine {
		return detect.NewHybridEngine(detect.NewStandardSignatureEngine(), detect.NewAnomalyEngine(), detect.HybridSerial)
	}
	anomaly := func() detect.Engine { return detect.NewAnomalyEngine() }
	for _, c := range []struct {
		name    string
		sensors int
		engine  func() detect.Engine
		// trainer, when set, is the engine of the IDS that trains the
		// profile s reads; otherwise s trains its own.
		trainer func() detect.Engine
	}{
		{"hybrid", 3, hybrid, nil},
		{"anomaly", 4, anomaly, nil},
		{"anomaly reading hybrid", 4, anomaly, hybrid},
	} {
		sim := simtime.New(1)
		s, err := New(sim, Config{Name: c.name, Engine: c.engine, Sensors: c.sensors, Balancer: BalancerFlowHash})
		if err != nil {
			t.Fatal(err)
		}
		memo := detect.NewScanMemo(len(inspect))
		s.ShareScans(memo)
		learner := s
		if c.trainer != nil {
			if learner, err = New(sim, Config{Name: "trainer", Engine: c.trainer, Sensors: 2, Balancer: BalancerFlowHash}); err != nil {
				t.Fatal(err)
			}
			learner.ShareScans(memo)
			s.ShareProfile(learner)
		}
		for _, tp := range train {
			sim.MustSchedule(tp.at-sim.Now(), func() { learner.Train(tp.p) })
			sim.RunUntil(tp.at)
		}
		if err := s.SetSensitivity(1); err != nil {
			t.Fatal(err)
		}
		for i, sn := range s.Sensors() {
			own := c.engine()
			for _, tp := range train {
				own.Train(tp.p, tp.at)
			}
			own.SetSensitivity(1)
			var causes []string
			for k, ip := range inspect {
				got, want := sn.engine.Inspect(ip.p, ip.at), own.Inspect(ip.p, ip.at)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sensor %d, packet %d: shared profile alerts %v, own training %v", c.name, i, k, got, want)
				}
				for _, a := range want {
					causes = append(causes, fmt.Sprintf("%s %v: %s", a.Technique, a.Attacker, a.Reason))
				}
			}
			all := strings.Join(causes, "\n")
			for _, cause := range []string{
				"rate-anomaly " + busy.String(),
				"novel-service " + late.String() + ": first contact",
				"no baseline for service port 6000",
			} {
				if !strings.Contains(all, cause) {
					t.Fatalf("%s sensor %d: no %q alert among\n%s", c.name, i, cause, all)
				}
			}
		}
	}
}

func TestMonitorThresholdSuppressesLowSeverity(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "test", Engine: stubFactory, NotifyThreshold: 0.95})
	s.Ingest(attackPkt(1)) // severity 0.9 < 0.95
	sim.Run()
	if len(s.Monitor().Incidents) != 1 {
		t.Fatal("incident not recorded")
	}
	if len(s.Monitor().Notifications) != 0 {
		t.Fatal("notification despite sub-threshold severity")
	}
}

// Property: the Figure-2 cardinalities hold for arbitrary sensor/analyzer
// pool sizes — one conditional balancer for all sensors, every sensor
// mapped to exactly one analyzer, exactly one monitor, at most one
// console.
func TestPropertyCardinality(t *testing.T) {
	f := func(sensorsRaw, analyzersRaw uint8, console bool, balancerRaw uint8) bool {
		sensors := int(sensorsRaw%16) + 1
		analyzers := int(analyzersRaw%8) + 1
		balancer := BalancerKind(balancerRaw % 4)
		if balancer == BalancerNone && sensors > 1 {
			balancer = BalancerFlowHash
		}
		sim := simtime.New(1)
		s, err := New(sim, Config{
			Name: "prop", Engine: stubFactory,
			Sensors: sensors, Analyzers: analyzers,
			Balancer: balancer, HasConsole: console,
		})
		if err != nil {
			return false
		}
		c := s.Cardinality()
		if c.Monitors != 1 {
			return false
		}
		if c.Balancers > 1 || (c.Balancers == 1 && c.SensorsPerLB != sensors) {
			return false
		}
		if console != (c.Consoles == 1) {
			return false
		}
		if len(c.SensorToAnalyze) != sensors {
			return false
		}
		for _, a := range c.SensorToAnalyze {
			if a < 0 || a >= analyzers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIngestPipeline(b *testing.B) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "bench", Engine: stubFactory, Sensors: 4, Balancer: BalancerFlowHash})
	if err != nil {
		b.Fatal(err)
	}
	p := benignPkt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SrcPort = uint16(i)
		s.Ingest(p)
		if i%1024 == 0 {
			sim.Run()
		}
	}
	sim.Run()
}

func TestInformationSharingPropagatesBlocks(t *testing.T) {
	sim := simtime.New(1)
	a, err := New(sim, Config{Name: "site-a", Engine: stubFactory, HasConsole: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sim, Config{Name: "site-b", Engine: stubFactory, HasConsole: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Console().SetPolicy("stub-attack", ActionFirewallBlock)
	a.Console().ShareWith(b.Console())
	a.Console().ShareWith(b.Console()) // duplicate registration is a no-op
	b.Console().ShareWith(a.Console()) // ring must not loop

	attacker := packet.IPv4(203, 0, 1, 9)
	a.Ingest(attackPkt(9))
	sim.Run()

	if !a.Console().Firewall.Blocked(attacker) {
		t.Fatal("origin site did not block")
	}
	if !b.Console().Firewall.Blocked(attacker) {
		t.Fatal("peer site did not learn the block")
	}
	if b.Console().SharedBlocksIn != 1 {
		t.Fatalf("SharedBlocksIn = %d", b.Console().SharedBlocksIn)
	}
	// One-hop propagation: site A must not double-count its own block.
	if a.Console().SharedBlocksIn != 0 {
		t.Fatalf("origin learned its own block back: %d", a.Console().SharedBlocksIn)
	}
	// Peer now filters the attacker without ever seeing the attack.
	if b.Ingest(attackPkt(9)) {
		t.Fatal("peer passed traffic from a shared-blocked source")
	}
}

func TestShareWithSelfIgnored(t *testing.T) {
	sim := simtime.New(1)
	a, _ := New(sim, Config{Name: "solo", Engine: stubFactory, HasConsole: true})
	a.Console().ShareWith(a.Console())
	a.Console().ShareWith(nil)
	a.Console().SetPolicy("stub-attack", ActionFirewallBlock)
	a.Ingest(attackPkt(9))
	sim.Run() // must terminate (no self-loop)
	if !a.Console().Firewall.Blocked(packet.IPv4(203, 0, 1, 9)) {
		t.Fatal("block not applied")
	}
}

func TestDataPoolExcludeRules(t *testing.T) {
	pool := ClusterExclusionPool()
	if err := pool.Validate(); err != nil {
		t.Fatal(err)
	}
	rpc := &packet.Packet{
		Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(10, 1, 1, 2),
		SrcPort: 7400, DstPort: 7400, Proto: packet.ProtoUDP,
	}
	if pool.Selects(rpc) {
		t.Fatal("cluster RPC not excluded")
	}
	// Bulk replication east-west excluded; the same service from outside
	// is NOT (the prefix rules bind it to the LAN).
	bulkEW := &packet.Packet{
		Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(10, 1, 1, 2),
		SrcPort: 40000, DstPort: 20, Proto: packet.ProtoTCP,
	}
	if pool.Selects(bulkEW) {
		t.Fatal("east-west replication not excluded")
	}
	bulkExt := &packet.Packet{
		Src: packet.IPv4(203, 0, 1, 1), Dst: packet.IPv4(10, 1, 1, 2),
		SrcPort: 40000, DstPort: 20, Proto: packet.ProtoTCP,
	}
	if !pool.Selects(bulkExt) {
		t.Fatal("external traffic to port 20 wrongly excluded")
	}
	// Attack-relevant traffic passes.
	http := &packet.Packet{
		Src: packet.IPv4(203, 0, 1, 1), Dst: packet.IPv4(10, 1, 1, 2),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
	}
	if !pool.Selects(http) {
		t.Fatal("HTTP excluded")
	}
}

func TestDataPoolIncludeSemantics(t *testing.T) {
	pool := &DataPool{Include: []PoolRule{{Name: "dns-only", Proto: packet.ProtoUDP, Port: 53}}}
	dns := &packet.Packet{Proto: packet.ProtoUDP, SrcPort: 4000, DstPort: 53}
	other := &packet.Packet{Proto: packet.ProtoTCP, SrcPort: 4000, DstPort: 80}
	if !pool.Selects(dns) || pool.Selects(other) {
		t.Fatal("include semantics wrong")
	}
	// Exclude beats include.
	pool.Exclude = []PoolRule{{Name: "no-dns", Proto: packet.ProtoUDP, Port: 53}}
	if pool.Selects(dns) {
		t.Fatal("exclude did not override include")
	}
}

func TestDataPoolValidation(t *testing.T) {
	bad := &DataPool{Include: []PoolRule{{Name: "x", SrcBits: 40}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid prefix bits accepted")
	}
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "pool", Engine: stubFactory})
	if err := s.SetDataPool(bad); err == nil {
		t.Fatal("SetDataPool accepted invalid pool")
	}
	if err := s.SetDataPool(ClusterExclusionPool()); err != nil {
		t.Fatal(err)
	}
	if s.pool == nil {
		t.Fatal("pool not installed")
	}
	if err := s.SetDataPool(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataPoolSkipsAnalysisButPassesTraffic(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "pool", Engine: stubFactory})
	if err := s.SetDataPool(&DataPool{Exclude: []PoolRule{{Name: "no-80", Port: 80}}}); err != nil {
		t.Fatal(err)
	}
	// An attack packet on the excluded service: passed through (verdict
	// true), never analyzed, no alert — selectability is a blind spot by
	// design.
	if !s.Ingest(attackPkt(1)) {
		t.Fatal("excluded packet was blocked")
	}
	sim.Run()
	if s.PoolSkipped != 1 {
		t.Fatalf("PoolSkipped = %d", s.PoolSkipped)
	}
	if s.Stats().Processed != 0 || len(s.Monitor().Incidents) != 0 {
		t.Fatal("excluded packet was analyzed")
	}
}

func TestBalancerCostDelaysSensing(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{
		Name: "lb-cost", Engine: stubFactory,
		Sensors: 2, Balancer: ids0FlowHash(), BalancerCost: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(benignPkt(1))
	// Nothing processed before the balancer cost elapses.
	sim.RunUntil(time.Millisecond)
	if s.Stats().Processed != 0 {
		t.Fatal("packet sensed before balancer latency elapsed")
	}
	sim.Run()
	if s.Stats().Processed != 1 {
		t.Fatalf("processed = %d", s.Stats().Processed)
	}
}

// ids0FlowHash avoids a bare constant in the test body reading oddly.
func ids0FlowHash() BalancerKind { return BalancerFlowHash }

func TestStatsAggregatesAcrossSensors(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "agg", Engine: stubFactory, Sensors: 3, Balancer: BalancerDynamic})
	for i := 0; i < 30; i++ {
		p := attackPkt(byte(i%5 + 1))
		p.SrcPort = uint16(i)
		s.Ingest(p)
	}
	sim.Run()
	st := s.Stats()
	if st.Ingested != 30 || st.Processed != 30 {
		t.Fatalf("stats = %+v", st)
	}
	var perSensor uint64
	for _, sn := range s.Sensors() {
		perSensor += sn.Processed
	}
	if perSensor != st.Processed {
		t.Fatalf("per-sensor sum %d != aggregate %d", perSensor, st.Processed)
	}
}
