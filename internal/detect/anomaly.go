package detect

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/packet"
)

// welford is an online mean/variance accumulator.
type welford struct {
	n    uint64
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// z returns the z-score of x, guarding degenerate variance with a floor
// so constant-valued baselines still measure deviation meaningfully.
func (w *welford) z(x float64, floor float64) float64 {
	if w.n < 2 {
		return 0
	}
	s := w.std()
	if s < floor {
		s = floor
	}
	return math.Abs(x-w.mean) / s
}

// serviceProfile is the learned behaviour of one (dstPort, proto) service.
type serviceProfile struct {
	payloadLen welford
	entropy    welford
	packets    uint64
}

// Profile is an anomaly engine's learned baseline: the service
// profiles, the (src, dst, service) pairs seen, and the per-source rate
// trackers of the training traffic with their peak. Training writes it
// and inspection only reads it, so any number of engines can read one
// Profile — an IDS's sensors, the deployments of a sweep testbed — and
// each clean packet is folded in once for all of them.
type Profile struct {
	services map[uint32]*serviceProfile // key: port<<8|proto
	pairs    map[uint64]bool            // (src,dst,dstPort) triples seen in training
	// srcRate learns per-source peak packet rates during training.
	srcRate     map[packet.Addr]*rateTracker
	trainedPeak float64 // highest per-source pps seen in training
}

// newProfile returns an empty baseline.
func newProfile() *Profile {
	return &Profile{
		services: make(map[uint32]*serviceProfile),
		pairs:    make(map[uint64]bool),
		srcRate:  make(map[packet.Addr]*rateTracker),
	}
}

// AnomalyEngine is a behaviour detector: it learns a baseline of "normal"
// traffic during training and scores deviations afterwards. Section 2.1
// notes a "constrained application environment may help constrain the
// definition of normal behavior making anomaly-based systems more
// appropriate" for real-time clusters — the effect the harness's
// cluster-profile runs demonstrate.
type AnomalyEngine struct {
	profile *Profile
	// rates are the inspection-time per-source rate trackers. Inspect
	// advances them, so each engine keeps its own; a source's tracker
	// starts as a copy of its trained one when the source is first
	// inspected, so a rate window open at the end of training carries
	// over.
	rates map[packet.Addr]*rateTracker
	// scans, when set, is the memo Train and Inspect read payload
	// entropies through (ShareScans).
	scans *ScanMemo

	sensitivity float64
	suppress    map[anomalySuppressKey]time.Duration
	// SuppressWindow is the per-(cause,pair) alert holdoff.
	SuppressWindow time.Duration
	// lastPrune amortizes the sweep of expired suppress entries (same
	// long-replay leak as the signature engine's maps).
	lastPrune time.Duration
	// MinServiceSamples gates z-score alerts until a service baseline has
	// enough observations to be meaningful.
	MinServiceSamples uint64

	// Inspected counts packets analyzed after training.
	Inspected uint64
}

// anomalyCause enumerates the engine's alert causes; using it in the
// suppress key instead of a formatted string keeps raise() off the
// allocator.
type anomalyCause uint8

const (
	causeContent anomalyCause = iota
	causeNewService
	causePair
	causeRate
)

// anomalySuppressKey identifies one (cause, src, dst) alert stream.
type anomalySuppressKey struct {
	cause    anomalyCause
	src, dst packet.Addr
}

// rateTracker counts packets in tumbling one-second windows.
type rateTracker struct {
	windowStart time.Duration
	count       int
	peak        int
}

func (r *rateTracker) observe(now time.Duration) int {
	if now-r.windowStart > time.Second {
		if r.count > r.peak {
			r.peak = r.count
		}
		r.windowStart = now
		r.count = 0
	}
	r.count++
	return r.count
}

// NewAnomalyEngine creates an untrained engine at sensitivity 0.5,
// reading a baseline of its own.
func NewAnomalyEngine() *AnomalyEngine {
	return &AnomalyEngine{
		profile:           newProfile(),
		rates:             make(map[packet.Addr]*rateTracker),
		sensitivity:       0.5,
		suppress:          make(map[anomalySuppressKey]time.Duration),
		SuppressWindow:    2 * time.Second,
		MinServiceSamples: 30,
	}
}

// Name implements Engine.
func (e *AnomalyEngine) Name() string { return "anomaly" }

// Mechanism implements Engine.
func (e *AnomalyEngine) Mechanism() Mechanism { return MechanismAnomaly }

// SetSensitivity implements Engine.
func (e *AnomalyEngine) SetSensitivity(s float64) error {
	v, err := clampSensitivity(s)
	if err != nil {
		return err
	}
	e.sensitivity = v
	return nil
}

// CostPerPacket implements Engine: fixed feature extraction plus a cheap
// per-byte entropy pass.
func (e *AnomalyEngine) CostPerPacket(p *packet.Packet) time.Duration {
	return 4*time.Microsecond + time.Duration(len(p.Payload))*2*time.Nanosecond
}

// servicePort identifies the service side of a conversation: the smaller
// port number (well-known/registered services sit below the ephemeral
// range). Keying profiles this way makes both directions of a session —
// including server responses to ephemeral client ports — accrue to one
// service baseline instead of each response looking like a novel service.
func servicePort(p *packet.Packet) uint16 {
	if p.SrcPort != 0 && p.SrcPort < p.DstPort {
		return p.SrcPort
	}
	return p.DstPort
}

func serviceKey(p *packet.Packet) uint32 {
	return uint32(servicePort(p))<<8 | uint32(p.Proto)
}

func pairKey(p *packet.Packet) uint64 {
	k := p.Key().Canonical()
	return uint64(k.Src)<<32 ^ uint64(k.Dst)<<8 ^ uint64(servicePort(p))
}

// Profile implements Learner.
func (e *AnomalyEngine) Profile() *Profile { return e.profile }

// ReadProfile implements Learner.
func (e *AnomalyEngine) ReadProfile(pr *Profile) { e.profile = pr }

// ShareScans implements ScanSharer: Train and Inspect read each
// payload's entropy through memo.
func (e *AnomalyEngine) ShareScans(memo *ScanMemo) { e.scans = memo }

// Train implements Engine: fold one known-benign packet into the
// baseline the engine reads.
func (e *AnomalyEngine) Train(p *packet.Packet, now time.Duration) { e.profile.Train(p, now, e.scans) }

// Train folds one known-benign packet into the baseline, reading the
// payload's entropy through memo (nil computes it). All training must
// precede the first Inspect of every engine that reads the profile: an
// engine copies a source's trained rate tracker when it first inspects
// that source, and does not see later training of it. Every testbed
// trains before it inspects.
func (pr *Profile) Train(p *packet.Packet, now time.Duration, memo *ScanMemo) {
	sk := serviceKey(p)
	sp, ok := pr.services[sk]
	if !ok {
		sp = &serviceProfile{}
		pr.services[sk] = sp
	}
	sp.packets++
	if len(p.Payload) > 0 {
		sp.payloadLen.add(float64(len(p.Payload)))
		if len(p.Payload) >= 64 {
			// Mirror the inspection-side gate: entropy baselines are
			// built only from payloads large enough to estimate it.
			sp.entropy.add(memo.entropy(p.Payload))
		}
	}
	pr.pairs[pairKey(p)] = true
	rt, ok := pr.srcRate[p.Src]
	if !ok {
		rt = &rateTracker{windowStart: now}
		pr.srcRate[p.Src] = rt
	}
	rt.observe(now)
	if float64(rt.count) > pr.trainedPeak {
		pr.trainedPeak = float64(rt.count)
	}
}

// zThreshold is the sensitivity-scaled z-score alarm level: 6σ at
// sensitivity 0 down to 2σ at sensitivity 1.
func (e *AnomalyEngine) zThreshold() float64 { return 6 - 4*e.sensitivity }

// rateFactorThreshold is the multiple of the trained per-source peak rate
// that triggers a rate alert: 8x at sensitivity 0 down to 1.5x at 1.
func (e *AnomalyEngine) rateFactorThreshold() float64 { return 8 - 6.5*e.sensitivity }

// noveltyEnabled gates pure never-seen-before alerts, which are only
// tolerable in constrained environments; they switch on at sensitivity
// 0.35 and above.
func (e *AnomalyEngine) noveltyEnabled() bool { return e.sensitivity >= 0.35 }

// suppressed checks and arms the (cause, src, dst) alert holdoff.
func (e *AnomalyEngine) suppressed(cause anomalyCause, p *packet.Packet, now time.Duration) bool {
	key := anomalySuppressKey{cause: cause, src: p.Src, dst: p.Dst}
	if last, ok := e.suppress[key]; ok && now-last < e.SuppressWindow {
		return true
	}
	e.suppress[key] = now
	return false
}

// maybePrune drops suppress entries the holdoff check would already
// treat as expired, at most once per suppress window.
func (e *AnomalyEngine) maybePrune(now time.Duration) {
	if now-e.lastPrune < e.SuppressWindow {
		return
	}
	e.lastPrune = now
	for key, last := range e.suppress {
		if now-last >= e.SuppressWindow {
			delete(e.suppress, key)
		}
	}
}

// Inspect implements Engine. Each cause checks (and arms) its holdoff
// before anything is built, so the reason — the only formatted string
// — is rendered only for an alert that survives suppression.
func (e *AnomalyEngine) Inspect(p *packet.Packet, now time.Duration) []Alert {
	e.Inspected++
	e.maybePrune(now)
	var alerts []Alert

	// Content deviation: payload length and entropy against the service
	// baseline.
	if len(p.Payload) > 0 {
		if sp, ok := e.profile.services[serviceKey(p)]; ok && sp.packets >= e.MinServiceSamples {
			zl := sp.payloadLen.z(float64(len(p.Payload)), 8)
			// Shannon entropy over a handful of bytes is statistically
			// meaningless; tiny payloads (protocol tails, ACK piggybacks)
			// are judged on length only.
			ze := 0.0
			if len(p.Payload) >= 64 {
				ze = sp.entropy.z(e.scans.entropy(p.Payload), 0.25)
			}
			zt := e.zThreshold()
			if (zl > zt || ze > zt) && !e.suppressed(causeContent, p, now) {
				z := math.Max(zl, ze)
				alerts = e.appendAlert(alerts, p, now, "content-anomaly",
					math.Min(1, z/(2*zt)+0.4),
					fmt.Sprintf("payload deviates from service baseline (len z=%.1f, entropy z=%.1f)", zl, ze))
			}
		} else if e.noveltyEnabled() && !ok && !e.suppressed(causeNewService, p, now) {
			alerts = e.appendAlert(alerts, p, now, "novel-service", 0.5,
				fmt.Sprintf("no baseline for service port %d/%v", servicePort(p), p.Proto))
		}
	}

	// Pair novelty: a host pair+service never seen in training.
	if e.noveltyEnabled() && !e.profile.pairs[pairKey(p)] && !e.suppressed(causePair, p, now) {
		alerts = e.appendAlert(alerts, p, now, "novel-service", 0.45, firstContactReason(p))
	}

	// Rate anomaly: source exceeding a multiple of the trained peak.
	rt, ok := e.rates[p.Src]
	if !ok {
		rt = &rateTracker{windowStart: now}
		if trained, ok := e.profile.srcRate[p.Src]; ok {
			*rt = *trained
		}
		e.rates[p.Src] = rt
	}
	cur := float64(rt.observe(now))
	base := e.profile.trainedPeak
	if base < 10 {
		base = 10
	}
	if cur > base*e.rateFactorThreshold() {
		if !e.suppressed(causeRate, p, now) {
			alerts = e.appendAlert(alerts, p, now, "rate-anomaly",
				math.Min(1, cur/(base*e.rateFactorThreshold())/2+0.4),
				fmt.Sprintf("source rate %.0f pps exceeds %.1fx trained peak %.0f", cur, e.rateFactorThreshold(), e.profile.trainedPeak))
		}
		// Reset the tumbling window so a sustained flood re-alerts once
		// per suppression window, not per packet.
		rt.windowStart = now
		rt.count = 0
	}
	return alerts
}

// firstContactReason renders "first contact SRC -> DST service PORT"
// in a stack buffer, without fmt: it runs once per pair-novelty alert.
func firstContactReason(p *packet.Packet) string {
	var buf [64]byte
	b := append(buf[:0], "first contact "...)
	b = p.Src.AppendTo(b)
	b = append(b, " -> "...)
	b = p.Dst.AppendTo(b)
	b = append(b, " service "...)
	b = strconv.AppendUint(b, uint64(servicePort(p)), 10)
	return string(b)
}

// appendAlert appends one unsuppressed alert about p.
func (e *AnomalyEngine) appendAlert(alerts []Alert, p *packet.Packet, now time.Duration, technique string, severity float64, reason string) []Alert {
	return append(alerts, Alert{
		At: now, Technique: technique, Severity: severity,
		Attacker: p.Src, Victim: p.Dst, Flow: p.Key(),
		Reason: reason, Engine: e.Name(),
	})
}
