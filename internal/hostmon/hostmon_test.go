package hostmon

import (
	"math"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/packet"
	"repro/internal/rts"
	"repro/internal/simtime"
)

func TestOverheadFractionMatchesPaperFigures(t *testing.T) {
	// At the standard ~800 events/sec activity rate the paper's numbers
	// must emerge: nominal 3-5%, C2 ~20%.
	nominal := OverheadFraction(LogNominal, 800)
	if nominal < 0.03 || nominal > 0.05 {
		t.Fatalf("nominal overhead %.3f outside the paper's 3-5%% band", nominal)
	}
	c2 := OverheadFraction(LogC2, 800)
	if c2 < 0.15 || c2 > 0.25 {
		t.Fatalf("C2 overhead %.3f outside the ~20%% band", c2)
	}
	if c2 <= nominal {
		t.Fatal("C2 must cost more than nominal")
	}
	if f := OverheadFraction(LogC2, 1e9); f >= 1 {
		t.Fatalf("overhead %.3f not clamped below 1", f)
	}
}

func newAgent(t *testing.T) (*simtime.Sim, *rts.Host, *Agent, *[]detect.Alert) {
	t.Helper()
	sim := simtime.New(2)
	host := rts.NewHost(sim, "n0")
	agent := NewAgent(sim, host, LogNominal)
	var alerts []detect.Alert
	agent.Deliver = func(as []detect.Alert) { alerts = append(alerts, as...) }
	return sim, host, agent, &alerts
}

func TestAgentDetectsFailedLoginBurst(t *testing.T) {
	sim, _, agent, alerts := newAgent(t)
	remote := packet.IPv4(203, 0, 1, 1)
	for i := 0; i < 5; i++ {
		sim.MustSchedule(time.Duration(i)*time.Second, func() {
			agent.Observe(Event{Kind: EventLoginFailed, User: "root", Remote: remote})
		})
	}
	sim.Run()
	if len(*alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 after threshold", len(*alerts))
	}
	if (*alerts)[0].Technique != "bruteforce" || (*alerts)[0].Attacker != remote {
		t.Fatalf("alert = %+v", (*alerts)[0])
	}
}

func TestAgentFailedLoginWindowExpires(t *testing.T) {
	sim, _, agent, alerts := newAgent(t)
	remote := packet.IPv4(203, 0, 1, 1)
	// 4 failures, a minute gap, 4 more: never 5 within a window.
	for i := 0; i < 4; i++ {
		sim.MustSchedule(time.Duration(i)*time.Second, func() {
			agent.Observe(Event{Kind: EventLoginFailed, User: "root", Remote: remote})
		})
	}
	for i := 0; i < 4; i++ {
		sim.MustSchedule(2*time.Minute+time.Duration(i)*time.Second, func() {
			agent.Observe(Event{Kind: EventLoginFailed, User: "root", Remote: remote})
		})
	}
	sim.Run()
	if len(*alerts) != 0 {
		t.Fatalf("alerts = %d, want 0 (window expired)", len(*alerts))
	}
}

func TestAgentDetectsPrivilegeAndFileAccess(t *testing.T) {
	sim, _, agent, alerts := newAgent(t)
	agent.Observe(Event{Kind: EventPrivilege, User: "operator", Detail: "su root", Remote: packet.IPv4(203, 0, 1, 2)})
	agent.Observe(Event{Kind: EventFileAccess, User: "operator", Detail: "read /etc/shadow", Remote: packet.IPv4(203, 0, 1, 2)})
	agent.Observe(Event{Kind: EventFileAccess, User: "operator", Detail: "read /var/tmp/ok"})
	sim.Run()
	if len(*alerts) != 2 {
		t.Fatalf("alerts = %d, want 2", len(*alerts))
	}
	if (*alerts)[0].Technique != "masquerade" || (*alerts)[1].Technique != "insider-misuse" {
		t.Fatalf("techniques = %s, %s", (*alerts)[0].Technique, (*alerts)[1].Technique)
	}
}

func TestActivityGeneratorChargesHost(t *testing.T) {
	sim := simtime.New(2)
	host := rts.NewHost(sim, "n0")
	agent := NewAgent(sim, host, LogNominal)
	gen, err := NewActivityGenerator(sim, agent, 800)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(10 * time.Second)
	gen.Stop()
	if agent.EventsSeen < 7000 {
		t.Fatalf("EventsSeen = %d, want ~8000", agent.EventsSeen)
	}
	got := host.Overhead()
	if got < 0.025 || got > 0.06 {
		t.Fatalf("host overhead %.3f, want ~0.04 at nominal/800eps", got)
	}
}

func TestC2AgentChargesFiveTimesNominal(t *testing.T) {
	run := func(level LogLevel) float64 {
		sim := simtime.New(2)
		host := rts.NewHost(sim, "n0")
		agent := NewAgent(sim, host, level)
		gen, err := NewActivityGenerator(sim, agent, 800)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(10 * time.Second)
		gen.Stop()
		return host.Overhead()
	}
	nom, c2 := run(LogNominal), run(LogC2)
	if ratio := c2 / nom; math.Abs(ratio-5) > 0.5 {
		t.Fatalf("C2/nominal overhead ratio %.2f, want ~5", ratio)
	}
}

func TestC2AgentCausesDeadlineMisses(t *testing.T) {
	run := func(level LogLevel) (uint64, uint64) {
		sim := simtime.New(2)
		host := rts.NewHost(sim, "n0")
		for _, task := range rts.StandardTaskSet() {
			if err := host.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		agent := NewAgent(sim, host, level)
		gen, err := NewActivityGenerator(sim, agent, 800)
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Start(); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(10 * time.Second)
		gen.Stop()
		host.Stop()
		sim.Run()
		return host.JobsCompleted, host.DeadlineMisses
	}
	_, nomMisses := run(LogNominal)
	completed, c2Misses := run(LogC2)
	if nomMisses != 0 {
		t.Fatalf("nominal logging caused %d misses", nomMisses)
	}
	if c2Misses == 0 {
		t.Fatalf("C2 logging caused no misses in %d jobs", completed)
	}
}

func TestReportBytesScaleWithLevel(t *testing.T) {
	sim := simtime.New(2)
	host := rts.NewHost(sim, "n0")
	nom := NewAgent(sim, host, LogNominal)
	c2 := NewAgent(sim, host, LogC2)
	ev := Event{Kind: EventProcessExec, User: "x"}
	nom.Observe(ev)
	c2.Observe(ev)
	if c2.ReportBytes <= nom.ReportBytes {
		t.Fatalf("C2 report bytes %d <= nominal %d", c2.ReportBytes, nom.ReportBytes)
	}
	if nom.RecordsLogged != 1 || c2.RecordsLogged != 5 {
		t.Fatalf("records: nominal=%d c2=%d", nom.RecordsLogged, c2.RecordsLogged)
	}
}

func TestActivityGeneratorValidation(t *testing.T) {
	sim := simtime.New(1)
	host := rts.NewHost(sim, "n0")
	agent := NewAgent(sim, host, LogNominal)
	if _, err := NewActivityGenerator(sim, agent, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestEventsFromPacket(t *testing.T) {
	src := packet.IPv4(203, 0, 1, 5)
	dst := packet.IPv4(10, 1, 1, 1)
	mk := func(payload string) *packet.Packet {
		return &packet.Packet{Src: src, Dst: dst, Proto: packet.ProtoTCP, Payload: []byte(payload)}
	}
	cases := []struct {
		payload string
		kinds   []EventKind
	}{
		{"Login incorrect\r\n", []EventKind{EventLoginFailed}},
		{"login: root\r\npassword: toor\r\n", []EventKind{EventLogin}},
		{"su root\n", []EventKind{EventPrivilege}},
		{"echo '+ +' > /.rhosts\n", []EventKind{EventPrivilege}},
		{"cat /etc/shadow\n", []EventKind{EventFileAccess}},
		{"GET /index.html HTTP/1.0\r\n", nil},
		{"", nil},
	}
	for _, c := range cases {
		events := EventsFromPacket(mk(c.payload), time.Second)
		if len(events) != len(c.kinds) {
			t.Fatalf("payload %q: %d events, want %d", c.payload, len(events), len(c.kinds))
		}
		for i, k := range c.kinds {
			if events[i].Kind != k {
				t.Fatalf("payload %q: kind %v, want %v", c.payload, events[i].Kind, k)
			}
		}
	}
	// Privilege events attribute the sender as attacker.
	evs := EventsFromPacket(mk("su root\n"), 0)
	if evs[0].Remote != src {
		t.Fatalf("Remote = %v, want %v", evs[0].Remote, src)
	}
}

func BenchmarkAgentObserve(b *testing.B) {
	sim := simtime.New(2)
	host := rts.NewHost(sim, "n0")
	agent := NewAgent(sim, host, LogC2)
	ev := Event{Kind: EventProcessExec, User: "system", Detail: "dispatch"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agent.Observe(ev)
	}
}

func TestAgentMigratesUnderAttack(t *testing.T) {
	sim := simtime.New(2)
	home := rts.NewHost(sim, "home")
	refuge := rts.NewHost(sim, "refuge")
	agent := NewAgent(sim, home, LogNominal)
	var techniques []string
	agent.Deliver = func(as []detect.Alert) {
		for _, a := range as {
			techniques = append(techniques, a.Technique)
		}
	}
	if err := agent.EnableMigration(MigrationPolicy{
		AlertThreshold: 2, Window: time.Minute,
		Candidates: []*rts.Host{home, refuge},
	}); err != nil {
		t.Fatal(err)
	}
	// Drive activity so overhead is charged to home first.
	gen, err := NewActivityGenerator(sim, agent, 800)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Second)
	if home.Overhead() == 0 {
		t.Fatal("no overhead charged before migration")
	}
	// Two privilege alerts within the window trip the policy.
	remote := packet.IPv4(203, 0, 1, 1)
	agent.Observe(Event{Kind: EventPrivilege, User: "x", Detail: "su root", Remote: remote})
	agent.Observe(Event{Kind: EventPrivilege, User: "x", Detail: "chmod 4755", Remote: remote})
	gen.Stop()
	sim.Run()

	migs := agent.migrations
	if len(migs) != 1 {
		t.Fatalf("%d migrations, want 1", len(migs))
	}
	if migs[0].From != "home" || migs[0].To != "refuge" {
		t.Fatalf("migration %+v", migs[0])
	}
	if agent.host != refuge {
		t.Fatal("agent still on the attacked host")
	}
	// Overhead followed the agent.
	if home.Overhead() != 0 {
		t.Fatalf("home still charged %.3f after migration", home.Overhead())
	}
	if refuge.Overhead() == 0 {
		t.Fatal("refuge not charged after migration")
	}
	// The move was notified through the alert channel.
	found := false
	for _, tech := range techniques {
		if tech == "agent-migration" {
			found = true
		}
	}
	if !found {
		t.Fatalf("migration not notified: %v", techniques)
	}
}

func TestMigrationRequiresCandidates(t *testing.T) {
	sim := simtime.New(2)
	agent := NewAgent(sim, rts.NewHost(sim, "h"), LogNominal)
	if err := agent.EnableMigration(MigrationPolicy{}); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestMigrationWindowExpiry(t *testing.T) {
	sim := simtime.New(2)
	home := rts.NewHost(sim, "home")
	refuge := rts.NewHost(sim, "refuge")
	agent := NewAgent(sim, home, LogNominal)
	if err := agent.EnableMigration(MigrationPolicy{
		AlertThreshold: 2, Window: time.Second,
		Candidates: []*rts.Host{refuge},
	}); err != nil {
		t.Fatal(err)
	}
	remote := packet.IPv4(203, 0, 1, 1)
	// Alerts spaced beyond the window never accumulate to the threshold.
	agent.Observe(Event{Kind: EventPrivilege, User: "x", Detail: "su root", Remote: remote})
	sim.MustSchedule(10*time.Second, func() {
		agent.Observe(Event{Kind: EventPrivilege, User: "x", Detail: "su root", Remote: remote})
	})
	sim.Run()
	if len(agent.migrations) != 0 {
		t.Fatal("spaced alerts triggered migration")
	}
}
