// Package hostmon implements host-based intrusion detection support: audit
// event streams, the CPU cost of event logging, and host agents that
// detect misuse from log data rather than packets. It reproduces the
// resource figures the paper cites (Section 2.1): "Nominal event-logging
// support for host IDSs has been shown to consume three to five percent of
// the monitored host's resources. Logging compliant with Department of
// Defense C2-level (Controlled Access Protection) security requires as
// much as twenty percent of the host's processing power."
package hostmon

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/packet"
	"repro/internal/rts"
	"repro/internal/simtime"
)

// EventKind classifies audit events.
type EventKind int

// Audit event kinds.
const (
	EventLogin EventKind = iota
	EventLoginFailed
	EventProcessExec
	EventFileAccess
	EventPrivilege
	EventNetConn
)

// Event is one audit record.
type Event struct {
	At      time.Duration
	Kind    EventKind
	User    string
	Detail  string
	Remote  packet.Addr // source of the triggering connection, if any
	Local   packet.Addr // address of the monitored host, if known
	HostIdx int         // index of the host that logged it
}

// LogLevel selects the audit depth and therefore the logging cost.
type LogLevel int

// Logging levels.
const (
	// LogNominal is ordinary event logging (~3-5% of host CPU).
	LogNominal LogLevel = iota
	// LogC2 is DoD C2 (Controlled Access Protection) compliant auditing
	// (~20% of host CPU): every event plus fine-grained syscall audit.
	LogC2
)

// String names the level.
func (l LogLevel) String() string {
	if l == LogC2 {
		return "c2"
	}
	return "nominal"
}

// eventMultiplier is how many audit records one observable activity
// produces at each level. C2 auditing records the event plus the syscall
// trail around it.
func (l LogLevel) eventMultiplier() float64 {
	if l == LogC2 {
		return 5
	}
	return 1
}

// CostPerRecord is the CPU time to format, protect, and commit one audit
// record. With the standard activity rate of ~800 events/sec this yields
// ~4% overhead at nominal level and ~20% at C2, matching the paper.
const CostPerRecord = 50 * time.Microsecond

// OverheadFraction computes the host CPU fraction consumed by audit
// logging at the given activity rate (observable events per second).
func OverheadFraction(level LogLevel, eventsPerSec float64) float64 {
	f := eventsPerSec * level.eventMultiplier() * CostPerRecord.Seconds()
	if f > 0.999 {
		f = 0.999
	}
	return f
}

// Agent is a host-based IDS sensor: it consumes the host's audit stream,
// raises alerts on misuse patterns, and charges the host for logging.
// Multi-host deployments report to a remote analyzer, spending network
// bandwidth (the paper: "Multi-host IDSs consume network bandwidth by
// transmitting logging information").
type Agent struct {
	sim   *simtime.Sim
	host  *rts.Host
	level LogLevel

	// failWindow tracks failed logins per (user, remote).
	failCounts map[string]*failState
	// FailedLoginThreshold fires the brute-force detection.
	FailedLoginThreshold int
	// sensitiveFiles trigger EventFileAccess alerts.
	sensitiveFiles []string

	// Deliver receives agent alerts (usually an analyzer Submit).
	Deliver func(alerts []detect.Alert)

	// EventsSeen counts processed audit events.
	EventsSeen uint64
	// RecordsLogged counts audit records written (events × multiplier).
	RecordsLogged uint64
	// ReportBytes models bandwidth used reporting to a remote analyzer.
	ReportBytes uint64
	// activityRate is the EWMA of events/sec used for overhead charging.
	activityRate    float64
	lastRateUpdate  time.Duration
	windowEvents    int
	overheadCharged bool

	// Self-preservation (see MigrationPolicy).
	migration          *MigrationPolicy
	migrations         []MigrationEvent
	migrateAlerts      int
	migrateWindowStart time.Duration
}

type failState struct {
	windowStart time.Duration
	count       int
}

// NewAgent attaches an agent to a host at the given logging level. A
// nil host makes a hostless agent: it detects, counts and reports as
// any other, but charges no host for its logging.
func NewAgent(sim *simtime.Sim, host *rts.Host, level LogLevel) *Agent {
	return &Agent{
		sim: sim, host: host, level: level,
		failCounts:           make(map[string]*failState),
		FailedLoginThreshold: 5,
		sensitiveFiles: []string{
			"/etc/shadow", "/etc/passwd", "/secure/", ".rhosts",
		},
	}
}

// Observe processes one audit event: log it (charging the host), update
// detection state, raise alerts.
func (a *Agent) Observe(ev Event) {
	now := a.sim.Now()
	a.EventsSeen++
	a.RecordsLogged += uint64(a.level.eventMultiplier())
	a.ReportBytes += 200 * uint64(a.level.eventMultiplier())
	a.updateOverhead(now)

	var alerts []detect.Alert
	switch ev.Kind {
	case EventLoginFailed:
		key := ev.User + "@" + ev.Remote.String()
		st, ok := a.failCounts[key]
		if !ok || now-st.windowStart > 30*time.Second {
			st = &failState{windowStart: now}
			a.failCounts[key] = st
		}
		st.count++
		if st.count >= a.FailedLoginThreshold {
			st.count = 0
			st.windowStart = now
			alerts = append(alerts, detect.Alert{
				At: now, Technique: "bruteforce", Severity: 0.7,
				Attacker: ev.Remote, Victim: ev.Local,
				Reason: fmt.Sprintf("host audit: %d failed logins for %q", a.FailedLoginThreshold, ev.User),
				Engine: "host-agent",
			})
		}
	case EventPrivilege:
		alerts = append(alerts, detect.Alert{
			At: now, Technique: "masquerade", Severity: 0.8,
			Attacker: ev.Remote, Victim: ev.Local,
			Reason: fmt.Sprintf("host audit: privilege change %q by %q", ev.Detail, ev.User),
			Engine: "host-agent",
		})
	case EventFileAccess:
		for _, f := range a.sensitiveFiles {
			if strings.Contains(ev.Detail, f) {
				alerts = append(alerts, detect.Alert{
					At: now, Technique: "insider-misuse", Severity: 0.75,
					Attacker: ev.Remote, Victim: ev.Local,
					Reason: fmt.Sprintf("host audit: sensitive file access %q by %q", ev.Detail, ev.User),
					Engine: "host-agent",
				})
				break
			}
		}
	}
	if n := len(alerts); n > 0 {
		alerts = append(alerts, a.noteOwnHostAlerts(n, now)...)
	}
	if len(alerts) > 0 && a.Deliver != nil {
		a.Deliver(alerts)
	}
}

// updateOverhead recomputes the host's logging overhead from the observed
// event rate once per second of virtual time. A hostless agent has
// nothing to charge.
func (a *Agent) updateOverhead(now time.Duration) {
	if a.host == nil {
		return
	}
	a.windowEvents++
	if now-a.lastRateUpdate < time.Second && a.overheadCharged {
		return
	}
	elapsed := now - a.lastRateUpdate
	if elapsed <= 0 {
		elapsed = time.Second
	}
	rate := float64(a.windowEvents) / elapsed.Seconds()
	// EWMA smoothing.
	if a.activityRate == 0 {
		a.activityRate = rate
	} else {
		a.activityRate = 0.7*a.activityRate + 0.3*rate
	}
	a.windowEvents = 0
	a.lastRateUpdate = now
	a.overheadCharged = true
	// Charging the rts host is what couples IDS presence to deadline
	// misses — the Operational Performance Impact metric.
	_ = a.host.SetOverhead("hostmon/"+a.level.String(), OverheadFraction(a.level, a.activityRate))
}

// ActivityGenerator produces a host's benign audit stream at a steady
// rate, with occasional logins and file accesses among the process churn.
type ActivityGenerator struct {
	sim    *simtime.Sim
	agent  *Agent
	rate   float64
	ticker *simtime.Ticker
	count  uint64
}

// NewActivityGenerator drives agent with eventsPerSec benign events.
func NewActivityGenerator(sim *simtime.Sim, agent *Agent, eventsPerSec float64) (*ActivityGenerator, error) {
	if eventsPerSec <= 0 {
		return nil, fmt.Errorf("hostmon: rate %v must be positive", eventsPerSec)
	}
	g := &ActivityGenerator{sim: sim, agent: agent, rate: eventsPerSec}
	period := time.Duration(float64(time.Second) / eventsPerSec)
	if period < time.Microsecond {
		period = time.Microsecond
	}
	var err error
	g.ticker, err = sim.NewTicker(period, g.emit)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (g *ActivityGenerator) emit() {
	g.count++
	ev := Event{At: g.sim.Now()}
	switch g.count % 20 {
	case 0:
		ev.Kind = EventLogin
		ev.User = "operator"
		ev.Detail = "console login"
	case 5:
		ev.Kind = EventFileAccess
		ev.User = "scheduler"
		ev.Detail = "/var/spool/jobs"
	case 10:
		ev.Kind = EventNetConn
		ev.User = "daemon"
		ev.Detail = "peer heartbeat"
	default:
		ev.Kind = EventProcessExec
		ev.User = "system"
		ev.Detail = "periodic task dispatch"
	}
	g.agent.Observe(ev)
}

// Stop halts the generator.
func (g *ActivityGenerator) Stop() { g.ticker.Stop() }

// EventsFromPacket derives host audit events from a packet delivered to
// the monitored host — how interactive network sessions materialize in
// log files. This is the host-based data path: it sees login failures and
// privilege changes even when the network sensor misses them.
func EventsFromPacket(p *packet.Packet, at time.Duration) []Event {
	if len(p.Payload) == 0 {
		return nil
	}
	s := string(p.Payload)
	var out []Event
	if strings.Contains(s, "Login incorrect") {
		out = append(out, Event{At: at, Kind: EventLoginFailed, User: "root", Remote: p.Dst, Local: p.Src, Detail: "remote login failure"})
	}
	if strings.Contains(s, "login: ") && strings.Contains(s, "password: ") {
		out = append(out, Event{At: at, Kind: EventLogin, User: "remote", Remote: p.Src, Local: p.Dst, Detail: "remote login attempt"})
	}
	for _, pat := range []string{"su root", "chmod 4755", "> /.rhosts", "pidof auditd"} {
		if strings.Contains(s, pat) {
			out = append(out, Event{At: at, Kind: EventPrivilege, User: "remote", Remote: p.Src, Local: p.Dst, Detail: pat})
		}
	}
	for _, f := range []string{"/etc/shadow", "/etc/passwd", "/secure/"} {
		if strings.Contains(s, f) {
			out = append(out, Event{At: at, Kind: EventFileAccess, User: "remote", Remote: p.Src, Local: p.Dst, Detail: "access " + f})
			break
		}
	}
	return out
}
