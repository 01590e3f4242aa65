package detect

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/packet"
)

// ContentRule matches a byte pattern in packet payloads.
type ContentRule struct {
	// Name is the rule identifier.
	Name string
	// Technique is the attack class the rule indicates.
	Technique string
	// Pattern is the payload substring.
	Pattern []byte
	// Severity in [0,1] assigned to resulting alerts.
	Severity float64
	// Fidelity in [0,1]: how specific the pattern is to real attacks.
	// A rule is active when Fidelity >= 1 - sensitivity, so raising
	// sensitivity switches on progressively noisier rules — the mechanism
	// that produces the Type-I side of the Figure-4 curves.
	Fidelity float64
}

// ThresholdKey selects what a threshold rule counts per.
type ThresholdKey int

// Threshold keying modes.
const (
	// KeyBySrc counts per source address.
	KeyBySrc ThresholdKey = iota
	// KeyByPair counts per (src,dst) pair.
	KeyByPair
	// KeyByDst counts per destination address.
	KeyByDst
)

// ThresholdRule raises an alert when a predicate fires more than a
// threshold number of times (or across a threshold number of distinct
// destination ports) within a tumbling window.
type ThresholdRule struct {
	Name      string
	Technique string
	Key       ThresholdKey
	// Window is the counting window.
	Window time.Duration
	// BaseCount is the firing threshold at sensitivity 0.5; the effective
	// threshold scales as BaseCount·(1.5−s).
	BaseCount int
	// DistinctPorts counts distinct destination ports instead of raw hits.
	DistinctPorts bool
	Severity      float64
	// Match selects which packets the rule counts.
	Match func(p *packet.Packet) bool
}

// thresholdState is a sliding-window counter: hits are timestamped and
// pruned as the window advances, so a burst is never split by an
// arbitrary window boundary (which a tumbling counter would do).
type thresholdState struct {
	hits  []thresholdHit
	ports map[uint16]int // port -> live hit count, for DistinctPorts rules
}

type thresholdHit struct {
	at   time.Duration
	port uint16
}

// prune discards hits older than window.
func (st *thresholdState) prune(now, window time.Duration) {
	i := 0
	for i < len(st.hits) && now-st.hits[i].at > window {
		if st.ports != nil {
			h := st.hits[i]
			if st.ports[h.port]--; st.ports[h.port] <= 0 {
				delete(st.ports, h.port)
			}
		}
		i++
	}
	if i > 0 {
		st.hits = append(st.hits[:0], st.hits[i:]...)
	}
}

// add records a hit and returns the current rule count.
func (st *thresholdState) add(now time.Duration, port uint16, distinct bool) int {
	st.hits = append(st.hits, thresholdHit{at: now, port: port})
	if distinct {
		st.ports[port]++
		return len(st.ports)
	}
	return len(st.hits)
}

// reset clears the window after a fire so a sustained attack re-alerts
// once per window rather than per packet.
func (st *thresholdState) reset() {
	st.hits = st.hits[:0]
	if st.ports != nil {
		clear(st.ports)
	}
}

// suppressKey identifies one (rule, scope) alert stream. It replaces
// the formatted string keys the suppress map used to be indexed by,
// removing the fmt.Sprintf allocation from every candidate match.
type suppressKey struct {
	threshold bool
	rule      int32 // index into rules or thresholds
	scope     uint64
}

func contentSuppressKey(rule int, p *packet.Packet) suppressKey {
	return suppressKey{rule: int32(rule), scope: uint64(p.Src)<<32 | uint64(p.Dst)}
}

func thresholdSuppressKey(rule int, counter uint64) suppressKey {
	return suppressKey{threshold: true, rule: int32(rule), scope: counter}
}

// hashSuppressKey spreads (rule, scope) streams across the suppress
// table's shards.
func hashSuppressKey(k suppressKey) uint64 {
	h := k.scope ^ uint64(uint32(k.rule))*0x9e3779b97f4a7c15
	if k.threshold {
		h ^= 0xd6e8feb86659fd93
	}
	return hashU64(h)
}

// SignatureEngine is a misuse detector: payload patterns via Aho–Corasick
// plus stateful threshold rules for scans, floods, and repeated failures.
// It detects only what its corpus describes — the paper's core criticism
// of pure signature systems ("will only detect previously known attacks").
type SignatureEngine struct {
	rules []ContentRule
	// matcher is compiled over ALL rules (activation filtered at alert
	// time) and comes from the process-wide compiled-artifact cache: it
	// is immutable and typically shared with every other engine built
	// from the same corpus. Per-engine scan state lives in scanBuf.
	matcher *Matcher
	scanBuf ScanBuf
	// reasons[i] is rules[i]'s alert Reason, formatted once at
	// construction instead of on every match.
	reasons     []string
	thresholds  []ThresholdRule
	sensitivity float64

	// suppress deduplicates repeated fires of the same (rule, scope),
	// held in fixed-shard open-addressing tables to keep the
	// per-candidate-match lookup off the runtime-map slow path.
	suppress *shardedMap[suppressKey, time.Duration]
	// SuppressWindow is the per-(rule,scope) alert holdoff.
	SuppressWindow time.Duration
	// lastPrune bounds how often expired suppress/threshold state is
	// swept; without the sweep both tables grow without bound on long
	// replays (one entry per distinct flow ever seen).
	lastPrune time.Duration

	// thState[i] holds rule i's per-key sliding-window counters; drained
	// states are recycled through thFree so steady-state threshold
	// tracking allocates nothing.
	thState []*shardedMap[uint64, *thresholdState]
	thFree  []*thresholdState

	// batch memoizes the most recent PrescanBatch's per-payload match
	// sets for InspectPrescanned (see Prescanning).
	batch BatchBuf
	// scans, when set, is the memo PrescanBatch resolves payloads
	// through (ShareScans).
	scans *ScanMemo
	// PrescanBatches/PrescanPackets count batched-scan usage.
	PrescanBatches uint64
	PrescanPackets uint64

	// reassembler, when non-nil, joins each packet's payload with its
	// flow's retained tail so signatures split across TCP segments still
	// match (see Reassembler).
	reassembler *Reassembler

	// Inspected counts packets analyzed.
	Inspected uint64
}

// NewSignatureEngine builds an engine over the given rule sets at
// sensitivity 0.5.
func NewSignatureEngine(rules []ContentRule, thresholds []ThresholdRule) *SignatureEngine {
	pats := make([][]byte, len(rules))
	for i, r := range rules {
		pats[i] = r.Pattern
	}
	e := &SignatureEngine{
		rules:          rules,
		matcher:        CachedMatcher(pats),
		reasons:        make([]string, len(rules)),
		thresholds:     thresholds,
		sensitivity:    0.5,
		suppress:       newShardedMap[suppressKey, time.Duration](hashSuppressKey),
		SuppressWindow: 2 * time.Second,
		thState:        make([]*shardedMap[uint64, *thresholdState], len(thresholds)),
	}
	for i, r := range rules {
		e.reasons[i] = fmt.Sprintf("signature %q matched", r.Name)
	}
	for i := range e.thState {
		e.thState[i] = newShardedMap[uint64, *thresholdState](hashU64)
	}
	return e
}

// EnableReassembly turns on cross-segment content matching. The retained
// tail is sized to the longest pattern in the corpus.
func (e *SignatureEngine) EnableReassembly() {
	e.reassembler = NewReassembler(longestPattern(e.rules) - 1)
}

// Reassembling reports whether cross-segment matching is enabled. Only
// the products tests read it, to check which releases reassemble.
func (e *SignatureEngine) Reassembling() bool { return e.reassembler != nil }

// Name implements Engine.
func (e *SignatureEngine) Name() string { return "signature" }

// Mechanism implements Engine.
func (e *SignatureEngine) Mechanism() Mechanism { return MechanismSignature }

// Train implements Engine; signature engines do not learn.
func (e *SignatureEngine) Train(p *packet.Packet, now time.Duration) {}

// SetSensitivity implements Engine.
func (e *SignatureEngine) SetSensitivity(s float64) error {
	v, err := clampSensitivity(s)
	if err != nil {
		return err
	}
	e.sensitivity = v
	return nil
}

// CostPerPacket implements Engine: a fixed header-rule cost plus a
// per-byte payload scanning cost; stream reassembly adds flow-table
// bookkeeping per packet.
func (e *SignatureEngine) CostPerPacket(p *packet.Packet) time.Duration {
	cost := 12*time.Microsecond + time.Duration(len(p.Payload))*16*time.Nanosecond
	if e.reassembler != nil {
		cost += 2 * time.Microsecond
	}
	return cost
}

// thresholdEffective returns the sensitivity-scaled firing threshold.
func (e *SignatureEngine) thresholdEffective(base int) int {
	t := int(float64(base) * (1.5 - e.sensitivity))
	if t < 1 {
		t = 1
	}
	return t
}

// keyFor computes a rule's counter key for a packet.
func keyFor(k ThresholdKey, p *packet.Packet) uint64 {
	switch k {
	case KeyBySrc:
		return uint64(p.Src)
	case KeyByDst:
		return uint64(p.Dst)
	default:
		return uint64(p.Src)<<32 | uint64(p.Dst)
	}
}

// suppressed checks and arms the alert holdoff for key.
func (e *SignatureEngine) suppressed(key suppressKey, now time.Duration) bool {
	last, found := e.suppress.Put(key)
	if found && now-*last < e.SuppressWindow {
		return true
	}
	*last = now
	return false
}

// maybePrune sweeps expired suppress entries and drained threshold
// counters, amortized to at most one sweep per suppress window. Entries
// are deleted exactly when the inspection path would already treat them
// as expired, so pruning never changes detection behaviour — it only
// caps the tables at the live working set instead of every flow ever
// seen (the long-replay memory leak). Drained threshold states are
// recycled instead of freed.
func (e *SignatureEngine) maybePrune(now time.Duration) {
	if now-e.lastPrune < e.SuppressWindow {
		return
	}
	e.lastPrune = now
	e.suppress.Sweep(func(_ suppressKey, last *time.Duration) bool {
		return now-*last < e.SuppressWindow
	})
	for i, r := range e.thresholds {
		e.thState[i].Sweep(func(_ uint64, stp **thresholdState) bool {
			st := *stp
			st.prune(now, r.Window)
			if len(st.hits) == 0 {
				e.thFree = append(e.thFree, st)
				return false
			}
			return true
		})
	}
}

// thresholdStateFor returns rule i's counter for key k, creating (or
// recycling) one on first sight.
func (e *SignatureEngine) thresholdStateFor(i int, k uint64, distinct bool) *thresholdState {
	stp, found := e.thState[i].Put(k)
	if !found {
		if n := len(e.thFree); n > 0 {
			*stp = e.thFree[n-1]
			e.thFree[n-1] = nil
			e.thFree = e.thFree[:n-1]
		} else {
			*stp = &thresholdState{}
		}
		if distinct && (*stp).ports == nil {
			(*stp).ports = make(map[uint16]int)
		}
	}
	return *stp
}

// Inspect implements Engine.
func (e *SignatureEngine) Inspect(p *packet.Packet, now time.Duration) []Alert {
	return e.inspect(p, now, nil, false)
}

// inspect is the shared inspection body: when prescanned is set, hits is
// the memoized sorted distinct match set for p's payload (from
// PrescanBatch) and the content scan is skipped; otherwise the payload
// (with reassembly, if enabled) is scanned inline. Everything stateful —
// fidelity filtering, suppression, thresholds — runs here, at the
// packet's own inspection time, so batching is invisible to alert
// content and ordering.
func (e *SignatureEngine) inspect(p *packet.Packet, now time.Duration, hits []int32, prescanned bool) []Alert {
	e.Inspected++
	e.maybePrune(now)
	var alerts []Alert
	minFidelity := 1 - e.sensitivity

	if len(p.Payload) > 0 {
		if !prescanned {
			data := p.Payload
			if e.reassembler != nil {
				data = e.reassembler.Extend(p)
			}
			hits = e.matcher.ScanSetInto(data, &e.scanBuf)
		}
		for _, idx := range hits {
			r := e.rules[idx]
			if r.Fidelity < minFidelity {
				continue
			}
			if e.suppressed(contentSuppressKey(int(idx), p), now) {
				continue
			}
			alerts = append(alerts, Alert{
				At: now, Technique: r.Technique, Severity: r.Severity,
				Attacker: p.Src, Victim: p.Dst, Flow: p.Key(),
				Reason: e.reasons[idx],
				Engine: e.Name(),
			})
		}
	}

	for i, r := range e.thresholds {
		if r.Match != nil && !r.Match(p) {
			continue
		}
		k := keyFor(r.Key, p)
		st := e.thresholdStateFor(i, k, r.DistinctPorts)
		st.prune(now, r.Window)
		count := st.add(now, p.DstPort, r.DistinctPorts)
		if count >= e.thresholdEffective(r.BaseCount) {
			if !e.suppressed(thresholdSuppressKey(i, k), now) {
				// Threshold reasons carry run-specific counts, so they
				// stay lazily formatted — but only on an unsuppressed
				// fire, never on the per-packet path.
				alerts = append(alerts, Alert{
					At: now, Technique: r.Technique, Severity: r.Severity,
					Attacker: p.Src, Victim: p.Dst, Flow: p.Key(),
					Reason: fmt.Sprintf("threshold %q: %d hits in %v", r.Name, count, r.Window),
					Engine: e.Name(),
				})
			}
			st.reset()
		}
	}
	return alerts
}

// PrescanBatch implements Prescanning: it scans the payload batch in one
// interleaved Aho–Corasick pass and memoizes the per-payload match sets
// for InspectPrescanned. With a shared ScanMemo, payloads it holds are
// copied from it and only the rest are scanned; each match set is the
// same either way. Pure — no engine state is touched, so a batch
// may be scanned speculatively and partially discarded (e.g. when a
// sensor dies mid-queue). Returns false, scanning nothing, while stream
// reassembly is enabled: reassembly makes scan input depend on mutable
// flow tails, which only the in-order scalar path may advance.
func (e *SignatureEngine) PrescanBatch(payloads [][]byte) bool {
	if e.reassembler != nil {
		return false
	}
	if e.scans != nil {
		e.scans.scanBatch(e.matcher, payloads, &e.batch)
	} else {
		e.matcher.ScanBatch(payloads, &e.batch)
	}
	e.PrescanBatches++
	e.PrescanPackets += uint64(len(payloads))
	return true
}

// ShareScans implements Prescanning. A reassembling engine never
// prescans, so it never reads the memo.
func (e *SignatureEngine) ShareScans(memo *ScanMemo) { e.scans = memo }

// InspectPrescanned implements Prescanning: Inspect with the content
// scan replaced by entry idx of the last PrescanBatch. The caller must
// present packets in the same order and positions as the prescanned
// payload batch.
func (e *SignatureEngine) InspectPrescanned(p *packet.Packet, now time.Duration, idx int) []Alert {
	if e.reassembler != nil || idx < 0 || idx >= e.batch.Len() {
		return e.inspect(p, now, nil, false)
	}
	return e.inspect(p, now, e.batch.Hits(idx), true)
}

// StandardContentRules is the 2001-era signature corpus the simulated
// commercial products ship. High-fidelity entries match the attack
// library's exploit payloads; low-fidelity entries are the generic
// keyword rules that create false positives on benign traffic when
// sensitivity is raised.
func StandardContentRules() []ContentRule {
	return []ContentRule{
		// High fidelity: specific exploit indicators.
		{Name: "phf-cgi", Technique: "exploit", Pattern: []byte("cgi-bin/phf"), Severity: 0.9, Fidelity: 0.95},
		{Name: "unicode-traversal", Technique: "exploit", Pattern: []byte("..%c0%af"), Severity: 0.9, Fidelity: 0.95},
		{Name: "code-red-ida", Technique: "exploit", Pattern: []byte("default.ida?"), Severity: 0.9, Fidelity: 0.9},
		{Name: "nop-sled", Technique: "exploit", Pattern: bytes.Repeat([]byte{0x90}, 16), Severity: 1.0, Fidelity: 0.9},
		{Name: "ftp-site-exec", Technique: "exploit", Pattern: []byte("site exec %p"), Severity: 0.9, Fidelity: 0.9},
		{Name: "etc-passwd", Technique: "exploit", Pattern: []byte("/etc/passwd"), Severity: 0.8, Fidelity: 0.85},
		{Name: "etc-shadow", Technique: "insider-misuse", Pattern: []byte("/etc/shadow"), Severity: 0.8, Fidelity: 0.85},
		{Name: "rhosts-plus", Technique: "masquerade", Pattern: []byte("> /.rhosts"), Severity: 0.9, Fidelity: 0.9},
		{Name: "audit-kill", Technique: "masquerade", Pattern: []byte("pidof auditd"), Severity: 0.9, Fidelity: 0.9},
		// Medium fidelity.
		{Name: "su-root", Technique: "masquerade", Pattern: []byte("su root"), Severity: 0.6, Fidelity: 0.6},
		{Name: "login-incorrect", Technique: "bruteforce", Pattern: []byte("Login incorrect"), Severity: 0.5, Fidelity: 0.55},
		{Name: "setuid-shell", Technique: "masquerade", Pattern: []byte("chmod 4755"), Severity: 0.7, Fidelity: 0.7},
		// Low fidelity: generic keywords that also occur in benign traffic.
		{Name: "kw-login", Technique: "bruteforce", Pattern: []byte("login"), Severity: 0.2, Fidelity: 0.2},
		{Name: "kw-admin", Technique: "exploit", Pattern: []byte("admin"), Severity: 0.2, Fidelity: 0.15},
		{Name: "kw-cat", Technique: "insider-misuse", Pattern: []byte("cat "), Severity: 0.2, Fidelity: 0.12},
		{Name: "kw-root", Technique: "masquerade", Pattern: []byte("root"), Severity: 0.2, Fidelity: 0.18},
	}
}

// StandardThresholdRules returns the stateful rules for scan, flood, and
// brute-force detection.
func StandardThresholdRules() []ThresholdRule {
	return []ThresholdRule{
		{
			Name: "portscan-spread", Technique: "portscan", Key: KeyBySrc,
			Window: 2 * time.Second, BaseCount: 40, DistinctPorts: true, Severity: 0.7,
			Match: func(p *packet.Packet) bool {
				return p.Proto == packet.ProtoTCP && p.Flags == packet.SYN
			},
		},
		{
			Name: "syn-rate", Technique: "synflood", Key: KeyByPair,
			Window: time.Second, BaseCount: 400, Severity: 0.8,
			Match: func(p *packet.Packet) bool {
				return p.Proto == packet.ProtoTCP && p.Flags == packet.SYN
			},
		},
		{
			Name: "auth-failures", Technique: "bruteforce", Key: KeyByPair,
			Window: 10 * time.Second, BaseCount: 10, Severity: 0.7,
			Match: func(p *packet.Packet) bool {
				return len(p.Payload) > 0 && bytes.Contains(p.Payload, []byte("Login incorrect"))
			},
		},
	}
}

// NewStandardSignatureEngine builds the full stock corpus engine.
func NewStandardSignatureEngine() *SignatureEngine {
	return NewSignatureEngine(StandardContentRules(), StandardThresholdRules())
}

// DNSOversizeRule is the vendor's 2002 signature-update response to DNS
// tunneling: repeated oversized DNS queries from one conversation. It is
// a heuristic, not a content signature — rate-limited so occasional
// legitimate large lookups (TXT, zone metadata) do not fire it.
func DNSOversizeRule() ThresholdRule {
	return ThresholdRule{
		Name: "dns-oversize", Technique: "dns-tunnel", Key: KeyByPair,
		Window: 10 * time.Second, BaseCount: 15, Severity: 0.7,
		Match: func(p *packet.Packet) bool {
			return p.Proto == packet.ProtoUDP &&
				(p.DstPort == 53 || p.SrcPort == 53) &&
				len(p.Payload) > 90
		},
	}
}

// ICMPSweepRule detects ping sweeps: a burst of ICMP probes from one
// source (the sweep touches many hosts, so the per-source echo rate is
// the cheap tell).
func ICMPSweepRule() ThresholdRule {
	return ThresholdRule{
		Name: "icmp-sweep", Technique: "pingsweep", Key: KeyBySrc,
		Window: 5 * time.Second, BaseCount: 10, Severity: 0.5,
		Match: func(p *packet.Packet) bool { return p.Proto == packet.ProtoICMP },
	}
}

// UpdatedThresholdRules is the post-signature-update rule set: the stock
// rules plus the DNS-tunnel and ping-sweep heuristics. The paper's
// Section 4: "Continual re-evaluation is especially important since
// vendors rapidly update their products."
func UpdatedThresholdRules() []ThresholdRule {
	return append(StandardThresholdRules(), DNSOversizeRule(), ICMPSweepRule())
}

// NewUpdatedSignatureEngine builds the post-update engine with stream
// reassembly and the expanded rule set.
func NewUpdatedSignatureEngine() *SignatureEngine {
	e := NewSignatureEngine(StandardContentRules(), UpdatedThresholdRules())
	e.EnableReassembly()
	return e
}

// NewReassemblingSignatureEngine builds the stock engine with
// cross-segment stream reassembly enabled — the configuration that
// defeats signature-splitting evasion.
func NewReassemblingSignatureEngine() *SignatureEngine {
	e := NewStandardSignatureEngine()
	e.EnableReassembly()
	return e
}
