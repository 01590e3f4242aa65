package hostmon

import (
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/rts"
)

// MigrationEvent records one agent relocation.
type MigrationEvent struct {
	At       time.Duration
	From, To string
	// Alerts is the trigger count that forced the move.
	Alerts int
}

// MigrationPolicy arms self-preservation: "when the host they run on is
// under attack, [host-based IDSs] must quickly notify someone and
// possibly migrate to another host before they are compromised or
// disabled" (Section 2.1). No command arms it: it is the extension
// EXPERIMENTS.md describes under "Agent self-preservation", pinned by
// TestAgentMigratesUnderAttack.
type MigrationPolicy struct {
	// AlertThreshold is how many own-host alerts within Window force a
	// migration (default 3).
	AlertThreshold int
	// Window is the trigger window (default 10s).
	Window time.Duration
	// Candidates are hosts the agent may flee to.
	Candidates []*rts.Host
}

func (p *MigrationPolicy) applyDefaults() {
	if p.AlertThreshold == 0 {
		p.AlertThreshold = 3
	}
	if p.Window == 0 {
		p.Window = 10 * time.Second
	}
}

// EnableMigration arms the policy on the agent. Own-host alerts are
// counted from the agent's own detections (every alert it raises is, by
// construction, about activity on its host). A hostless agent cannot
// migrate: a move carries its charge from one host to another.
func (a *Agent) EnableMigration(p MigrationPolicy) error {
	if a.host == nil {
		return fmt.Errorf("hostmon: a hostless agent cannot migrate")
	}
	p.applyDefaults()
	if len(p.Candidates) == 0 {
		return fmt.Errorf("hostmon: migration needs at least one candidate host")
	}
	a.migration = &p
	return nil
}

// noteOwnHostAlerts feeds the migration trigger and performs the move
// when the threshold trips. It returns a synthetic notification alert
// describing the migration (delivered through the normal channel so the
// analyzer/monitor see it — the "quickly notify someone" half).
func (a *Agent) noteOwnHostAlerts(n int, now time.Duration) []detect.Alert {
	if a.migration == nil || n == 0 {
		return nil
	}
	if now-a.migrateWindowStart > a.migration.Window {
		a.migrateWindowStart = now
		a.migrateAlerts = 0
	}
	a.migrateAlerts += n
	if a.migrateAlerts < a.migration.AlertThreshold {
		return nil
	}
	// Choose the least-loaded candidate that is not the current host.
	var best *rts.Host
	for _, c := range a.migration.Candidates {
		if c == a.host {
			continue
		}
		if best == nil || c.Overhead() < best.Overhead() {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	from := a.host
	// Overhead moves with the agent.
	_ = from.SetOverhead("hostmon/"+a.level.String(), 0)
	_ = best.SetOverhead("hostmon/"+a.level.String(), OverheadFraction(a.level, a.activityRate))
	ev := MigrationEvent{At: now, From: from.Name(), To: best.Name(), Alerts: a.migrateAlerts}
	a.migrations = append(a.migrations, ev)
	a.host = best
	a.migrateAlerts = 0
	a.migrateWindowStart = now
	return []detect.Alert{{
		At: now, Technique: "agent-migration", Severity: 0.9,
		Reason: fmt.Sprintf("host agent migrated %s -> %s after %d own-host alerts", ev.From, ev.To, ev.Alerts),
		Engine: "host-agent",
	}}
}
