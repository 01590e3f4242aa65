// Package operator models the human dimension of intrusion detection —
// the extension the paper's future work calls for ("we would like to
// expand the scorecard metrics to capture the human dimension of IDS as
// well") and the failure mode Section 2.2 warns about: "frequent alerts
// on trivial or normal events result in a high false-positive rate …
// and lead to the IDS being ignored by the operators."
//
// The model is a single watch-stander with a finite triage rate and an
// attention state that erodes under alert floods: every notification
// joins a triage queue; queue overflow is discarded unseen; sustained
// overload lowers vigilance, which raises the chance that even triaged
// notifications are dismissed without action.
package operator

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/simtime"
)

// Outcome is what happened to one notification at the human.
type Outcome int

// Notification outcomes.
const (
	// ActedOn: the operator triaged and escalated the incident.
	ActedOn Outcome = iota
	// Dismissed: triaged but ignored (fatigue, cry-wolf effect).
	Dismissed
	// Unseen: dropped from an overflowing queue.
	Unseen
)

// Handling records the fate of one notification.
type Handling struct {
	Notification ids.Notification
	Outcome      Outcome
	// HandledAt is when triage completed (zero for Unseen).
	HandledAt time.Duration
	// Vigilance at triage time, for diagnostics.
	Vigilance float64
}

// Config parameterizes the watch-stander.
type Config struct {
	// TriageTime is the attention cost per notification (default 30s).
	TriageTime time.Duration
	// QueueLimit is the number of pending notifications the operator can
	// keep in view (default 12 — a console screenful).
	QueueLimit int
	// RecoveryHalfLife is how fast vigilance recovers when quiet
	// (default 5m).
	RecoveryHalfLife time.Duration
	// FatiguePerAlert is the vigilance fraction each triaged alert
	// burns (default 0.02).
	FatiguePerAlert float64
}

func (c *Config) applyDefaults() {
	if c.TriageTime == 0 {
		c.TriageTime = 30 * time.Second
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 12
	}
	if c.RecoveryHalfLife == 0 {
		c.RecoveryHalfLife = 5 * time.Minute
	}
	if c.FatiguePerAlert == 0 {
		c.FatiguePerAlert = 0.02
	}
}

// Operator is the watch-stander simulation. Attach it to a monitor by
// feeding it notifications (in time order) and then draining the sim.
type Operator struct {
	sim *simtime.Sim
	cfg Config
	rng *rand.Rand

	queueDepth int
	busyUntil  simtime.Time
	// vigilance in (0,1]: probability weight of acting on a real alert.
	vigilance  float64
	lastTriage simtime.Time
	Handled    []Handling
	queueDrops int
	actedCount int
	dismissed  int
}

// New creates an operator at full vigilance.
func New(sim *simtime.Sim, cfg Config) *Operator {
	cfg.applyDefaults()
	return &Operator{
		sim: sim, cfg: cfg,
		rng:       sim.Stream("operator"),
		vigilance: 1,
	}
}

// Notify presents one monitor notification to the operator at the
// current virtual time.
func (o *Operator) Notify(n ids.Notification) {
	if o.queueDepth >= o.cfg.QueueLimit {
		o.queueDrops++
		o.Handled = append(o.Handled, Handling{Notification: n, Outcome: Unseen})
		return
	}
	o.queueDepth++
	now := o.sim.Now()
	start := now
	if o.busyUntil > start {
		start = o.busyUntil
	}
	o.busyUntil = start + o.cfg.TriageTime
	done := o.busyUntil
	o.sim.MustSchedule(done-now, func() { o.triage(n) })
}

// triage completes one notification: recover vigilance for quiet time,
// then burn fatigue, then decide.
func (o *Operator) triage(n ids.Notification) {
	o.queueDepth--
	now := o.sim.Now()
	// Exponential vigilance recovery over idle time since last triage.
	if o.lastTriage > 0 && now > o.lastTriage {
		idle := float64(now-o.lastTriage) / float64(o.cfg.RecoveryHalfLife)
		o.vigilance = 1 - (1-o.vigilance)*math.Pow(0.5, idle)
	}
	o.lastTriage = now
	// Each alert handled erodes attention.
	o.vigilance -= o.cfg.FatiguePerAlert
	if o.vigilance < 0.05 {
		o.vigilance = 0.05
	}
	// Severity-weighted decision: severe incidents get acted on even by
	// a tired operator; marginal ones are dismissed when vigilance is
	// low.
	pAct := o.vigilance * (0.4 + 0.6*n.Incident.Severity)
	h := Handling{Notification: n, HandledAt: now, Vigilance: o.vigilance}
	if o.rng.Float64() < pAct {
		h.Outcome = ActedOn
		o.actedCount++
	} else {
		h.Outcome = Dismissed
		o.dismissed++
	}
	o.Handled = append(o.Handled, h)
}

// Report summarizes the human outcome of a run.
type Report struct {
	Presented int
	ActedOn   int
	Dismissed int
	Unseen    int
	// FinalVigilance is the attention level at the end of the run.
	FinalVigilance float64
	// ActedOnRate is ActedOn / Presented (1 when nothing presented).
	ActedOnRate float64
}

// Report computes the summary.
func (o *Operator) Report() Report {
	r := Report{
		Presented:      len(o.Handled),
		ActedOn:        o.actedCount,
		Dismissed:      o.dismissed,
		Unseen:         o.queueDrops,
		FinalVigilance: o.vigilance,
	}
	if r.Presented > 0 {
		r.ActedOnRate = float64(r.ActedOn) / float64(r.Presented)
	} else {
		r.ActedOnRate = 1
	}
	return r
}

// Feed presents a monitor's notification log to the operator in order,
// scheduling each at its original time. Call before draining the sim.
func (o *Operator) Feed(notifications []ids.Notification) error {
	for _, n := range notifications {
		n := n
		if _, err := o.sim.ScheduleAt(n.At, func() { o.Notify(n) }); err != nil {
			return err
		}
	}
	return nil
}
