package operator

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simtime"
)

func notif(at time.Duration, severity float64) ids.Notification {
	return ids.Notification{
		At:       at,
		Incident: &ids.ReportedIncident{Technique: "x", Severity: severity, FirstAlert: at, ReportedAt: at},
	}
}

func TestQuietOperatorActsOnSevereAlerts(t *testing.T) {
	sim := simtime.New(1)
	op := New(sim, Config{})
	// Ten severe alerts, well spaced: a rested operator acts on nearly
	// all of them.
	var ns []ids.Notification
	for i := 0; i < 10; i++ {
		ns = append(ns, notif(time.Duration(i)*10*time.Minute, 1.0))
	}
	if err := op.Feed(ns); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	r := op.Report()
	if r.Presented != 10 || r.Unseen != 0 {
		t.Fatalf("report = %+v", r)
	}
	if r.ActedOnRate < 0.8 {
		t.Fatalf("rested operator acted on only %.0f%%", r.ActedOnRate*100)
	}
	if r.FinalVigilance < 0.8 {
		t.Fatalf("vigilance %.2f after a quiet watch", r.FinalVigilance)
	}
}

func TestAlertFloodOverflowsQueue(t *testing.T) {
	sim := simtime.New(1)
	op := New(sim, Config{QueueLimit: 5, TriageTime: 30 * time.Second})
	// 100 alerts in one minute: the queue must overflow and most go
	// unseen — the paper's "IDS being ignored by the operators".
	var ns []ids.Notification
	for i := 0; i < 100; i++ {
		ns = append(ns, notif(time.Duration(i)*600*time.Millisecond, 0.6))
	}
	if err := op.Feed(ns); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	r := op.Report()
	if r.Unseen == 0 {
		t.Fatal("flood did not overflow the operator queue")
	}
	if r.Unseen < 50 {
		t.Fatalf("only %d unseen out of 100 in a flood", r.Unseen)
	}
}

func TestFatigueErodesVigilance(t *testing.T) {
	sim := simtime.New(1)
	op := New(sim, Config{TriageTime: time.Second, QueueLimit: 1000})
	var ns []ids.Notification
	for i := 0; i < 40; i++ {
		ns = append(ns, notif(time.Duration(i)*time.Second, 0.6))
	}
	if err := op.Feed(ns); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if v := op.vigilance; v > 0.5 {
		t.Fatalf("vigilance %.2f after 40 back-to-back triages", v)
	}
	// Some dismissals must appear once tired.
	if op.Report().Dismissed == 0 {
		t.Fatal("no cry-wolf dismissals under fatigue")
	}
}

func TestVigilanceRecoversWhenQuiet(t *testing.T) {
	sim := simtime.New(1)
	op := New(sim, Config{TriageTime: time.Second, RecoveryHalfLife: time.Minute, QueueLimit: 1000})
	// Burn the operator down...
	var ns []ids.Notification
	for i := 0; i < 30; i++ {
		ns = append(ns, notif(time.Duration(i)*time.Second, 0.5))
	}
	// ...then one alert after a long quiet spell.
	ns = append(ns, notif(2*time.Hour, 0.5))
	if err := op.Feed(ns); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(90 * time.Second)
	tired := op.vigilance
	sim.Run()
	rested := op.Handled[len(op.Handled)-1].Vigilance
	if rested <= tired {
		t.Fatalf("vigilance did not recover: %.2f -> %.2f", tired, rested)
	}
}

func TestSeverityWeightsDecision(t *testing.T) {
	// At reduced vigilance, severe alerts are acted on more often than
	// trivial ones.
	count := func(severity float64) int {
		sim := simtime.New(5)
		op := New(sim, Config{TriageTime: time.Second, QueueLimit: 10000, FatiguePerAlert: 0.015})
		var ns []ids.Notification
		for i := 0; i < 200; i++ {
			ns = append(ns, notif(time.Duration(i)*time.Second, severity))
		}
		if err := op.Feed(ns); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return op.Report().ActedOn
	}
	severe, trivial := count(1.0), count(0.1)
	if severe <= trivial {
		t.Fatalf("severe acted-on %d <= trivial %d", severe, trivial)
	}
}

func TestReportEmpty(t *testing.T) {
	sim := simtime.New(1)
	op := New(sim, Config{})
	r := op.Report()
	if r.Presented != 0 || r.ActedOnRate != 1 {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Report {
		sim := simtime.New(9)
		op := New(sim, Config{TriageTime: 2 * time.Second, QueueLimit: 8})
		var ns []ids.Notification
		for i := 0; i < 60; i++ {
			ns = append(ns, notif(time.Duration(i)*3*time.Second, 0.5+float64(i%5)*0.1))
		}
		if err := op.Feed(ns); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return op.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic operator: %+v vs %+v", a, b)
	}
}
