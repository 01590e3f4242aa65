package ids

import (
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// ReportedIncident is the analyzer's correlated view of one threat: all
// alerts for the same (attacker, victim, technique) within the
// correlation window, reported to the monitor on first alert (timeliness
// is measured against this report time).
type ReportedIncident struct {
	// Key fields.
	Attacker, Victim packet.Addr
	Technique        string
	// Severity is the maximum alert severity seen.
	Severity float64
	// FirstAlert/LastAlert bound the alert activity.
	FirstAlert, LastAlert time.Duration
	// ReportedAt is when the monitor learned of the incident.
	ReportedAt time.Duration
	// AlertCount is how many alerts were folded in.
	AlertCount int
	// Engines lists contributing engine names.
	Engines []string
	// sampleAlerts retains the first alerts for evidence (capped).
	sampleAlerts []detect.Alert
}

// String renders a one-line summary.
func (r *ReportedIncident) String() string {
	return fmt.Sprintf("%s %v->%v sev=%.2f alerts=%d reported=%v",
		r.Technique, r.Attacker, r.Victim, r.Severity, r.AlertCount, r.ReportedAt)
}

// Analyzer is the analysis subprocess: it performs first-order severity
// assessment and second-order correlation (scope/frequency) by folding
// alert streams into incidents, and it accounts for the historical data
// storage the Data Storage metric measures.
type Analyzer struct {
	sim    *simtime.Sim
	id     int
	window time.Duration

	open map[string]*ReportedIncident

	monitor *Monitor
	// storagePerAlert models retained context bytes per alert.
	storagePerAlert int

	// AlertsSeen counts all alerts submitted.
	AlertsSeen uint64
	// StorageBytes models accumulated historical data.
	StorageBytes uint64

	// Stall/spool state. While stalled the analyzer folds nothing; alerts
	// go to a bounded spool (resilience on) or are counted lost
	// (resilience off). The spool is the only buffering on the
	// analyzer→monitor path and it is always bounded: overload shows up
	// in DroppedAlerts and the ids.analyzer.alerts_dropped counter, never
	// as unbounded memory growth.
	stalled      bool
	spool        []detect.Alert
	spoolLimit   int
	retryBackoff time.Duration
	retryMax     time.Duration
	curBackoff   time.Duration
	retryArmed   bool

	// DroppedAlerts counts alerts lost at the analyzer boundary: raised
	// while stalled with no spool configured, or overflowing the bounded
	// spool.
	DroppedAlerts uint64
	// SpoolDelivered counts alerts delivered late out of the spool.
	SpoolDelivered uint64
	// SpoolPeak is the spool's high-water mark.
	SpoolPeak int

	cAlerts  *obs.Counter
	cDropped *obs.Counter // shared ids.analyzer.alerts_dropped
}

// NewAnalyzer builds one analyzer reporting to monitor.
func NewAnalyzer(sim *simtime.Sim, id int, window time.Duration, storagePerAlert int, monitor *Monitor) *Analyzer {
	return &Analyzer{
		sim: sim, id: id, window: window,
		open:            make(map[string]*ReportedIncident),
		monitor:         monitor,
		storagePerAlert: storagePerAlert,
	}
}

func incidentKey(al detect.Alert) string {
	return fmt.Sprintf("%d/%d/%s", al.Attacker, al.Victim, al.Technique)
}

// SetStalled pauses (true) or resumes (false) incident folding — the
// analyzer-stall fault. On resume without a retry loop configured,
// whatever survived the bounded spool delivers immediately.
func (a *Analyzer) SetStalled(stalled bool) {
	a.stalled = stalled
	if !stalled && a.retryBackoff <= 0 {
		a.drainSpool()
	}
}

// configureSpool arms the bounded stall spool and its retry/backoff
// drain loop (the resilience layer's knobs).
func (a *Analyzer) configureSpool(limit int, backoff, max time.Duration) {
	a.spoolLimit = limit
	a.retryBackoff = backoff
	a.retryMax = max
}

// deferOrDrop handles alerts submitted while stalled: bounded spooling
// when configured, explicit accounted loss otherwise.
func (a *Analyzer) deferOrDrop(alerts []detect.Alert) {
	for _, al := range alerts {
		if len(a.spool) >= a.spoolLimit {
			a.DroppedAlerts++
			a.cDropped.Inc()
			continue
		}
		a.spool = append(a.spool, al)
	}
	if len(a.spool) > a.SpoolPeak {
		a.SpoolPeak = len(a.spool)
	}
	if len(a.spool) > 0 {
		a.armRetry()
	}
}

// armRetry schedules the next spool-drain attempt, if a retry loop is
// configured and none is pending.
func (a *Analyzer) armRetry() {
	if a.retryBackoff <= 0 || a.retryArmed {
		return
	}
	a.retryArmed = true
	delay := a.curBackoff
	if delay <= 0 {
		delay = a.retryBackoff
	}
	a.sim.MustSchedule(delay, a.retryFlush)
}

// retryFlush is one drain attempt: deliver if the stall has cleared,
// otherwise back off (doubling, capped) and try again. The loop always
// terminates — it only re-arms while the stall persists, and every
// injected stall has a scheduled end.
func (a *Analyzer) retryFlush() {
	a.retryArmed = false
	if len(a.spool) == 0 {
		a.curBackoff = 0
		return
	}
	if a.stalled {
		a.curBackoff *= 2
		if a.curBackoff < a.retryBackoff {
			a.curBackoff = a.retryBackoff
		}
		if a.retryMax > 0 && a.curBackoff > a.retryMax {
			a.curBackoff = a.retryMax
		}
		a.armRetry()
		return
	}
	a.drainSpool()
}

// drainSpool folds every spooled alert, late but delivered.
func (a *Analyzer) drainSpool() {
	if len(a.spool) == 0 {
		return
	}
	batch := a.spool
	a.spool = nil
	a.curBackoff = 0
	a.SpoolDelivered += uint64(len(batch))
	a.fold(batch)
}

// Submit folds a batch of alerts into open incidents, creating and
// reporting new incidents as needed. A stalled analyzer defers to the
// bounded spool instead (or accounts the loss).
func (a *Analyzer) Submit(alerts []detect.Alert) {
	if a.stalled {
		a.deferOrDrop(alerts)
		return
	}
	a.fold(alerts)
}

// fold is the actual correlation pass.
func (a *Analyzer) fold(alerts []detect.Alert) {
	now := a.sim.Now()
	for _, al := range alerts {
		a.AlertsSeen++
		a.cAlerts.Inc()
		a.StorageBytes += uint64(a.storagePerAlert)
		k := incidentKey(al)
		inc, ok := a.open[k]
		if ok && now-inc.LastAlert > a.window {
			// Stale: close it out and start fresh.
			delete(a.open, k)
			ok = false
		}
		if !ok {
			inc = &ReportedIncident{
				Attacker: al.Attacker, Victim: al.Victim, Technique: al.Technique,
				Severity: al.Severity, FirstAlert: al.At, LastAlert: al.At,
				ReportedAt: now, AlertCount: 1, Engines: []string{al.Engine},
				sampleAlerts: []detect.Alert{al},
			}
			a.open[k] = inc
			a.monitor.Report(inc)
			continue
		}
		inc.AlertCount++
		if len(inc.sampleAlerts) < maxSampleAlerts {
			inc.sampleAlerts = append(inc.sampleAlerts, al)
		}
		if al.Severity > inc.Severity {
			inc.Severity = al.Severity
			// Escalation may cross the notification threshold.
			a.monitor.Escalate(inc)
		}
		if al.At > inc.LastAlert {
			inc.LastAlert = al.At
		}
		found := false
		for _, e := range inc.Engines {
			if e == al.Engine {
				found = true
				break
			}
		}
		if !found {
			inc.Engines = append(inc.Engines, al.Engine)
		}
	}
}

// Flush closes every open incident (end of run).
func (a *Analyzer) Flush() {
	a.open = make(map[string]*ReportedIncident)
}

// Monitor is the monitoring subprocess: the operator's view of the
// threat. It retains every reported incident and issues notifications
// when severity crosses policy.
type Monitor struct {
	sim *simtime.Sim
	// NotifyThreshold is the minimum severity for operator notification.
	NotifyThreshold float64

	// Incidents is every incident reported, in report order.
	Incidents []*ReportedIncident
	// Notifications records operator alerts.
	Notifications []Notification

	notified map[*ReportedIncident]bool
	// onNotify, when set (console attached), receives notified incidents
	// for automated response.
	onNotify func(inc *ReportedIncident)

	// Management-channel outage state. The operator-facing Notifications
	// record is unaffected (the monitor still knows); only the
	// monitor→console control channel is severed. Spooled incidents are
	// re-driven with doubling backoff when resilience is on; otherwise
	// the console deliveries are counted lost.
	outage        bool
	mgmtSpool     []*ReportedIncident
	mgmtLimit     int
	retryBackoff  time.Duration
	retryMax      time.Duration
	curBackoff    time.Duration
	retryArmed    bool
	MgmtDropped   uint64 // console deliveries lost to the outage
	MgmtRetries   uint64 // drain attempts made while the channel was down
	MgmtDelivered uint64 // console deliveries completed late from the spool

	cIncidents, cNotifications *obs.Counter
	cMgmtDropped, cMgmtRetries *obs.Counter
}

// Notification is one operator alert.
type Notification struct {
	At       time.Duration
	Incident *ReportedIncident
}

// NewMonitor builds the monitor.
func NewMonitor(sim *simtime.Sim, threshold float64) *Monitor {
	return &Monitor{sim: sim, NotifyThreshold: threshold, notified: make(map[*ReportedIncident]bool)}
}

// Report registers a new incident and notifies if warranted.
func (m *Monitor) Report(inc *ReportedIncident) {
	m.Incidents = append(m.Incidents, inc)
	m.cIncidents.Inc()
	m.maybeNotify(inc)
}

// Escalate re-evaluates notification after a severity increase.
func (m *Monitor) Escalate(inc *ReportedIncident) { m.maybeNotify(inc) }

func (m *Monitor) maybeNotify(inc *ReportedIncident) {
	if m.notified[inc] || inc.Severity < m.NotifyThreshold {
		return
	}
	m.notified[inc] = true
	m.cNotifications.Inc()
	m.Notifications = append(m.Notifications, Notification{At: m.sim.Now(), Incident: inc})
	m.dispatchConsole(inc)
}

// SetMgmtOutage severs (true) or restores (false) the monitor→console
// management channel. On restore without a retry loop, surviving spooled
// incidents deliver immediately.
func (m *Monitor) SetMgmtOutage(out bool) {
	m.outage = out
	if !out && m.retryBackoff <= 0 {
		m.drainMgmtSpool()
	}
}

// configureMgmtSpool arms the bounded outage spool and retry loop.
func (m *Monitor) configureMgmtSpool(limit int, backoff, max time.Duration) {
	m.mgmtLimit = limit
	m.retryBackoff = backoff
	m.retryMax = max
}

// dispatchConsole drives the console hook through the management
// channel, spooling or accounting the loss during an outage.
func (m *Monitor) dispatchConsole(inc *ReportedIncident) {
	if m.onNotify == nil {
		return
	}
	if !m.outage {
		m.onNotify(inc)
		return
	}
	if len(m.mgmtSpool) < m.mgmtLimit {
		m.mgmtSpool = append(m.mgmtSpool, inc)
		m.armMgmtRetry()
		return
	}
	m.MgmtDropped++
	m.cMgmtDropped.Inc()
}

func (m *Monitor) armMgmtRetry() {
	if m.retryBackoff <= 0 || m.retryArmed {
		return
	}
	m.retryArmed = true
	delay := m.curBackoff
	if delay <= 0 {
		delay = m.retryBackoff
	}
	m.sim.MustSchedule(delay, m.mgmtRetryFlush)
}

func (m *Monitor) mgmtRetryFlush() {
	m.retryArmed = false
	if len(m.mgmtSpool) == 0 {
		m.curBackoff = 0
		return
	}
	if m.outage {
		m.MgmtRetries++
		m.cMgmtRetries.Inc()
		m.curBackoff *= 2
		if m.curBackoff < m.retryBackoff {
			m.curBackoff = m.retryBackoff
		}
		if m.retryMax > 0 && m.curBackoff > m.retryMax {
			m.curBackoff = m.retryMax
		}
		m.armMgmtRetry()
		return
	}
	m.drainMgmtSpool()
}

func (m *Monitor) drainMgmtSpool() {
	if len(m.mgmtSpool) == 0 {
		return
	}
	batch := m.mgmtSpool
	m.mgmtSpool = nil
	m.curBackoff = 0
	for _, inc := range batch {
		m.MgmtDelivered++
		m.onNotify(inc)
	}
}
