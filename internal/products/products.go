// Package products defines the four simulated IDS products the evaluation
// exercises, standing in for the systems the paper tested: NFR Security's
// NID 5.0, ISS RealSecure 5.0, Recourse Technologies' ManHunt 1.2, and the
// AAFID research prototype. The real products are closed-source and
// discontinued, so each stand-in models its original's *architecture
// class* — engine mechanism, sensing fan-out, load-balancing discipline,
// failure behaviour, management features — with enough differentiation
// that every scorecard metric separates the field (the paper's
// "characteristic" requirement).
//
//	NetRecorder 5.0  (NFR NID-class)     — programmable signature NIDS,
//	    static sensor placement, strong filter authoring, fragile under
//	    flood.
//	TrueSecure 5.0   (RealSecure-class)  — commercial signature NIDS with
//	    host agents and a strong management console (firewall + SNMP
//	    response).
//	StreamHunter 1.2 (ManHunt-class)     — high-speed anomaly NIDS with
//	    intelligent dynamic load balancing and router (honeypot
//	    redirection) response.
//	AgentSwarm 0.9   (AAFID-class)       — research prototype of
//	    autonomous host-based agents; hybrid detection, free license,
//	    thin management.
package products

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/hostmon"
	"repro/internal/ids"
	"repro/internal/simtime"
)

// Spec is a product definition: how to build its IDS instance plus the
// statically-observed metric scores (vendor documentation, lab analysis
// of the management surface) that the measurement harness does not
// produce.
type Spec struct {
	// Name and Version identify the product.
	Name    string
	Version string
	// Summary is a one-line description for reports.
	Summary string
	// IDS is the architecture; Engine inside it selects the mechanism.
	IDS ids.Config
	// HostAgents deploys hostmon agents on every protected host.
	HostAgents bool
	// HostAgentLevel is the agents' logging depth.
	HostAgentLevel hostmon.LogLevel
	// Static are the scorecard observations fixed by product analysis and
	// open-source material rather than testbed measurement.
	Static []core.Observation
	// ResponsePolicy maps attack techniques to console actions (applied
	// when the product has a console).
	ResponsePolicy map[string]ids.ResponseAction
}

// Instantiate builds the product's IDS on the given simulation.
func (s Spec) Instantiate(sim *simtime.Sim) (*ids.IDS, error) {
	cfg := s.IDS
	cfg.Name = s.Name
	inst, err := ids.New(sim, cfg)
	if err != nil {
		return nil, fmt.Errorf("products: building %s: %w", s.Name, err)
	}
	if inst.Console() != nil {
		for tech, action := range s.ResponsePolicy {
			inst.Console().SetPolicy(tech, action)
		}
	}
	return inst, nil
}

// ApplyStatic records the product's static observations onto a scorecard.
func (s Spec) ApplyStatic(card *core.Scorecard) error {
	for _, o := range s.Static {
		if err := card.Set(o); err != nil {
			return fmt.Errorf("products: %s static scores: %w", s.Name, err)
		}
	}
	return nil
}

// obs is shorthand for building observations.
func obs(id string, score core.Score, how core.Method, note string) core.Observation {
	return core.Observation{MetricID: id, Score: score, How: how, Note: note}
}

// blockAllPolicy is the aggressive response posture: firewall-block every
// external technique.
func blockAllPolicy() map[string]ids.ResponseAction {
	return map[string]ids.ResponseAction{
		"exploit":    ids.ActionFirewallBlock,
		"portscan":   ids.ActionFirewallBlock,
		"synflood":   ids.ActionFirewallBlock,
		"bruteforce": ids.ActionFirewallBlock,
		"masquerade": ids.ActionSNMPTrap,
	}
}

// NetRecorder is the NFR NID-class product: a programmable signature
// engine with excellent filter authoring (N-code in the original), sensor
// placement instead of true load balancing, and crash-prone behaviour
// under flood (restarts its daemon).
func NetRecorder() Spec {
	a, o, both := core.ByAnalysis, core.ByOpenSource, core.ByAnalysis|core.ByOpenSource
	return Spec{
		Name: "NetRecorder", Version: "5.0",
		Summary: "programmable signature NIDS, static sensor placement",
		IDS: ids.Config{
			Sensors:  2,
			Balancer: ids.BalancerStatic,
			// Full-capture heritage: NetRecorder scans reassembled
			// streams, so signature-splitting evasion does not work on it.
			Engine:      func() detect.Engine { return detect.NewReassemblingSignatureEngine() },
			SensorQueue: 1024, LethalDropsPerSec: 3000, SensorSpeedFactor: 1,
			FailureMode: ids.FailCrash, RestartAfter: 30 * time.Second,
			HasConsole:        true,
			SeparateAnalysis:  true,
			CorrelationWindow: 5 * time.Second,
			// Full-capture heritage: record alerting sessions for replay.
			RecordSessions:    true,
			RecordBudgetBytes: 256 << 10,
		},
		ResponsePolicy: map[string]ids.ResponseAction{
			"exploit": ids.ActionSNMPTrap, "synflood": ids.ActionSNMPTrap,
		},
		Static: []core.Observation{
			// Logistical (Table 1).
			obs(core.MDistributedManagement, 2, both, "remote console exists; transport unencrypted"),
			obs(core.MEaseOfConfiguration, 2, a, "filter language powerful but setup is expert work"),
			obs(core.MEaseOfPolicyMaint, 3, a, "filters are code; versionable and reusable"),
			obs(core.MLicenseManagement, 2, o, "per-sensor licenses, manual renewal"),
			obs(core.MOutsourcedSolution, 4, o, "fully self-hosted; no external dependency"),
			obs(core.MPlatformRequirements, 2, both, "dedicated sensor boxes, modest analyzer host"),
			// Logistical (untabled).
			obs("quality-of-documentation", 3, o, "filter-language manual is thorough"),
			obs("ease-of-attack-filter-generation", 4, a, "full programmable filter language"),
			obs("evaluation-copy-availability", 3, o, "30-day evaluation images"),
			obs("level-of-administration", 2, a, "filters need expert upkeep"),
			obs("product-lifetime", 3, o, "established vendor, annual majors"),
			obs("quality-of-technical-support", 3, o, "responsive engineering support"),
			obs("three-year-cost", 2, o, "sensor hardware plus per-sensor licenses"),
			obs("training-support", 3, o, "filter-authoring courses offered"),
			// Architectural statics.
			obs(core.MDataPoolSelectability, 4, a, "arbitrary filter predicates on any header field"),
			obs(core.MHostBased, 0, both, "no host data sources"),
			obs(core.MNetworkBased, 4, both, "all input from packet capture"),
			obs(core.MMultiSensorSupport, 2, a, "multiple sensors, loosely integrated"),
			obs("anomaly-based", 0, both, "no behavioural model"),
			obs("signature-based", 4, both, "pure misuse detection"),
			obs("autonomous-learning", 0, a, "none"),
			obs("host-os-security", 2, a, "hardened sensor image"),
			obs("interoperability", 2, a, "SNMP traps out; no inbound integration"),
			obs("package-contents", 3, o, "sensor + console + filter library"),
			obs("process-security", 2, a, "daemon restarts but is killable"),
			obs("visibility", 3, a, "passive taps; hard to see on the wire"),
			// Performance (untabled statics).
			obs("analysis-of-intruder-intent", 1, a, "raw events only"),
			obs("clarity-of-reports", 2, a, "terse textual reports"),
			obs("effectiveness-of-generated-filters", 3, a, "authored filters block precisely"),
			obs("evidence-collection", 4, a, "full packet recording by design"),
			obs("information-sharing", 1, a, "export via flat files"),
			obs("notification-user-alerts", 2, a, "console + email"),
			obs("program-interaction", 3, a, "filters can exec programs"),
			obs("session-recording-playback", 4, a, "records and replays sessions"),
			obs("threat-correlation", 2, a, "per-sensor correlation only"),
			obs("trend-analysis", 2, a, "daily rollups"),
		},
	}
}

// TrueSecure is the RealSecure-class product: mainstream commercial
// signature NIDS plus host agents, with the strongest management story —
// centralized encrypted console, firewall and SNMP response.
func TrueSecure() Spec {
	a, o, both := core.ByAnalysis, core.ByOpenSource, core.ByAnalysis|core.ByOpenSource
	return Spec{
		Name: "TrueSecure", Version: "5.0",
		Summary: "commercial signature NIDS with host agents and strong console",
		IDS: ids.Config{
			Sensors:  2,
			Balancer: ids.BalancerFlowHash,
			Engine: func() detect.Engine {
				return detect.NewHybridEngine(
					detect.NewStandardSignatureEngine(), detect.NewAnomalyEngine(), detect.HybridSerial)
			},
			SensorQueue: 2048, LethalDropsPerSec: 5000, SensorSpeedFactor: 1.3,
			FailureMode: ids.FailCrash, RestartAfter: 10 * time.Second,
			HasConsole:        true,
			CorrelationWindow: 5 * time.Second,
		},
		HostAgents:     true,
		HostAgentLevel: hostmon.LogNominal,
		ResponsePolicy: blockAllPolicy(),
		Static: []core.Observation{
			obs(core.MDistributedManagement, 4, both, "encrypted central console manages all sensors and agents"),
			obs(core.MEaseOfConfiguration, 3, a, "GUI-driven install and policy push"),
			obs(core.MEaseOfPolicyMaint, 3, a, "policy templates, central push"),
			obs(core.MLicenseManagement, 1, o, "per-sensor and per-agent keys, strict enforcement"),
			obs(core.MOutsourcedSolution, 3, o, "optional managed service; self-hosted default"),
			obs(core.MPlatformRequirements, 1, both, "agents on every host plus beefy console server"),
			obs("quality-of-documentation", 4, o, "extensive commercial docs"),
			obs("ease-of-attack-filter-generation", 1, a, "vendor-signature updates only; no authoring"),
			obs("evaluation-copy-availability", 2, o, "sales-gated evaluations"),
			obs("level-of-administration", 3, a, "low-touch once deployed"),
			obs("product-lifetime", 4, o, "flagship product line"),
			obs("quality-of-technical-support", 4, o, "24/7 commercial support"),
			obs("three-year-cost", 1, o, "highest total cost of the field"),
			obs("training-support", 4, o, "certification program"),
			obs(core.MDataPoolSelectability, 2, a, "protocol/port include lists"),
			obs(core.MHostBased, 3, both, "agents read logs and audit trails"),
			obs(core.MNetworkBased, 3, both, "network sensors are primary input"),
			obs(core.MMultiSensorSupport, 4, a, "console integrates sensors and agents"),
			obs("anomaly-based", 1, both, "limited protocol-anomaly checks"),
			obs("signature-based", 4, both, "vendor signature corpus"),
			obs("autonomous-learning", 0, a, "none"),
			obs("host-os-security", 3, a, "agent tamper alarms"),
			obs("interoperability", 4, a, "firewall, SNMP, and API integrations"),
			obs("package-contents", 4, o, "sensors, agents, console, updater"),
			obs("process-security", 3, a, "watchdog restarts daemons"),
			obs("visibility", 2, a, "agents visible on hosts"),
			obs("analysis-of-intruder-intent", 2, a, "attack-category narratives"),
			obs("clarity-of-reports", 4, a, "polished operator reports"),
			obs("effectiveness-of-generated-filters", 3, a, "auto firewall rules mostly precise"),
			obs("evidence-collection", 2, a, "event records, no full capture"),
			obs("information-sharing", 3, a, "enterprise event export"),
			obs("notification-user-alerts", 4, a, "console, email, pager, SNMP"),
			obs("program-interaction", 2, a, "fixed response hooks"),
			obs("session-recording-playback", 1, a, "none beyond event logs"),
			obs("threat-correlation", 3, a, "cross-sensor console correlation"),
			obs("trend-analysis", 3, a, "console trend dashboards"),
		},
	}
}

// StreamHunter is the ManHunt-class product: anomaly detection engineered
// for gigabit rates, with intelligent dynamic load balancing across a
// sensor pool and router-level response (redirect to a decoy).
func StreamHunter() Spec {
	a, o, both := core.ByAnalysis, core.ByOpenSource, core.ByAnalysis|core.ByOpenSource
	return Spec{
		Name: "StreamHunter", Version: "1.2",
		Summary: "high-speed anomaly NIDS with dynamic load balancing",
		IDS: ids.Config{
			Sensors:     4,
			Balancer:    ids.BalancerDynamic,
			Engine:      func() detect.Engine { return detect.NewAnomalyEngine() },
			SensorQueue: 4096, LethalDropsPerSec: 12000, SensorSpeedFactor: 2,
			FailureMode: ids.FailOpen,
			HasConsole:  true, BalancerCost: 2 * time.Microsecond,
			CorrelationWindow: 5 * time.Second,
		},
		ResponsePolicy: map[string]ids.ResponseAction{
			"rate-anomaly":    ids.ActionRouterRedirect,
			"novel-service":   ids.ActionSNMPTrap,
			"content-anomaly": ids.ActionRouterRedirect,
		},
		Static: []core.Observation{
			obs(core.MDistributedManagement, 3, both, "remote console over SSH; per-cell admin domains"),
			obs(core.MEaseOfConfiguration, 2, a, "topology-aware setup needs network expertise"),
			obs(core.MEaseOfPolicyMaint, 2, a, "thresholds, not signatures; policy is tuning"),
			obs(core.MLicenseManagement, 2, o, "bandwidth-tiered licenses"),
			obs(core.MOutsourcedSolution, 4, o, "fully self-hosted"),
			obs(core.MPlatformRequirements, 3, both, "sensor pool scales to commodity boxes"),
			obs("quality-of-documentation", 2, o, "young product, thin manuals"),
			obs("ease-of-attack-filter-generation", 2, a, "threshold/zone definitions only"),
			obs("evaluation-copy-availability", 2, o, "pilot engagements"),
			obs("level-of-administration", 3, a, "self-tuning baselines reduce care"),
			obs("product-lifetime", 2, o, "startup vendor"),
			obs("quality-of-technical-support", 2, o, "small support team"),
			obs("three-year-cost", 3, o, "software-only on commodity hardware"),
			obs("training-support", 1, o, "ad-hoc vendor training"),
			obs(core.MDataPoolSelectability, 3, a, "zones and protocol classes selectable"),
			obs(core.MHostBased, 0, both, "network only"),
			obs(core.MNetworkBased, 4, both, "all input from the wire"),
			obs(core.MMultiSensorSupport, 4, a, "sensor pool is the design center"),
			obs("anomaly-based", 4, both, "statistical behaviour models"),
			obs("signature-based", 0, both, "no signature corpus"),
			obs("autonomous-learning", 3, a, "baselines learned online"),
			obs("host-os-security", 3, a, "minimal hardened OS image"),
			obs("interoperability", 3, a, "router and SNMP control paths"),
			obs("package-contents", 2, o, "software plus reference configs"),
			obs("process-security", 3, a, "sensor pool degrades gracefully"),
			obs("visibility", 4, a, "fully passive pool behind balancer"),
			obs("analysis-of-intruder-intent", 2, a, "anomaly class narratives"),
			obs("clarity-of-reports", 2, a, "statistical views need interpretation"),
			obs("effectiveness-of-generated-filters", 2, a, "coarse rate limits"),
			obs("evidence-collection", 3, a, "flow records retained"),
			obs("information-sharing", 2, a, "flow export"),
			obs("notification-user-alerts", 2, a, "console and SNMP"),
			obs("program-interaction", 2, a, "response script hooks"),
			obs("session-recording-playback", 2, a, "flow replay, not payload"),
			obs("threat-correlation", 4, a, "pool-wide correlation engine"),
			obs("trend-analysis", 4, a, "baseline drift is a first-class view"),
		},
	}
}

// AgentSwarm is the AAFID-class research prototype: autonomous hybrid
// agents on every host, free and inspectable, with a thin monitor and no
// management console.
func AgentSwarm() Spec {
	a, o, both := core.ByAnalysis, core.ByOpenSource, core.ByAnalysis|core.ByOpenSource
	return Spec{
		Name: "AgentSwarm", Version: "0.9",
		Summary: "research prototype: autonomous host-based hybrid agents",
		IDS: ids.Config{
			Sensors:  3,
			Balancer: ids.BalancerFlowHash,
			Engine: func() detect.Engine {
				return detect.NewHybridEngine(
					detect.NewStandardSignatureEngine(), detect.NewAnomalyEngine(), detect.HybridParallel)
			},
			SensorQueue: 512, LethalDropsPerSec: 1500, SensorSpeedFactor: 0.3,
			FailureMode:       ids.FailCrash, // no restart: research fragility
			HasConsole:        false,
			CorrelationWindow: 5 * time.Second,
		},
		HostAgents:     true,
		HostAgentLevel: hostmon.LogC2,
		Static: []core.Observation{
			obs(core.MDistributedManagement, 1, both, "per-agent config files, no secure remote admin"),
			obs(core.MEaseOfConfiguration, 1, a, "hand-edited agent hierarchies"),
			obs(core.MEaseOfPolicyMaint, 1, a, "policy scattered across agents"),
			obs(core.MLicenseManagement, 4, o, "research license, free"),
			obs(core.MOutsourcedSolution, 4, o, "fully self-hosted"),
			obs(core.MPlatformRequirements, 1, both, "C2-level audit agents on every host"),
			obs("quality-of-documentation", 2, o, "papers and a thesis"),
			obs("ease-of-attack-filter-generation", 3, a, "agents are source; new detectors are code"),
			obs("evaluation-copy-availability", 4, o, "source freely downloadable"),
			obs("level-of-administration", 1, a, "constant research-grade care"),
			obs("product-lifetime", 1, o, "research project, no support horizon"),
			obs("quality-of-technical-support", 1, o, "mailing list best-effort"),
			obs("three-year-cost", 4, o, "free software; staff time only"),
			obs("training-support", 0, o, "none"),
			obs(core.MDataPoolSelectability, 2, a, "per-agent source selection"),
			obs(core.MHostBased, 4, both, "audit trails are the primary input"),
			obs(core.MNetworkBased, 2, both, "per-host network taps only"),
			obs(core.MMultiSensorSupport, 3, a, "agent hierarchy aggregates transceivers"),
			obs("anomaly-based", 3, both, "per-host behaviour models"),
			obs("signature-based", 3, both, "pattern detectors included"),
			obs("autonomous-learning", 2, a, "agents adapt thresholds"),
			obs("host-os-security", 1, a, "agents run unprivileged, unhardened"),
			obs("interoperability", 1, a, "research formats only"),
			obs("package-contents", 1, o, "source tarball"),
			obs("process-security", 1, a, "agents die silently"),
			obs("visibility", 2, a, "agents visible in process tables"),
			obs("analysis-of-intruder-intent", 3, a, "host context gives rich narratives"),
			obs("clarity-of-reports", 1, a, "research log output"),
			obs("effectiveness-of-generated-filters", 0, a, "no response path"),
			obs("evidence-collection", 3, a, "C2 audit trails retained"),
			obs("information-sharing", 2, a, "agent-to-agent messaging"),
			obs("notification-user-alerts", 1, a, "monitor UI only"),
			obs("program-interaction", 2, a, "scriptable agents"),
			obs("session-recording-playback", 1, a, "audit replay only"),
			obs("threat-correlation", 3, a, "hierarchical agent correlation"),
			obs("trend-analysis", 1, a, "none built in"),
		},
	}
}

// NetRecorder51 is the vendor's point release of NetRecorder: the same
// architecture with the updated signature set (notably the DNS-tunnel
// oversize heuristic). It exists for the continual-re-evaluation
// workflow the paper's Section 4 calls for — rerunning the same
// scorecard against the updated product.
func NetRecorder51() Spec {
	s := NetRecorder()
	s.Version = "5.1"
	s.IDS.Engine = func() detect.Engine { return detect.NewUpdatedSignatureEngine() }
	return s
}

// All returns the evaluated field in the paper's order: the three
// commercial products, then the research system.
func All() []Spec {
	return []Spec{NetRecorder(), TrueSecure(), StreamHunter(), AgentSwarm()}
}

// TelemetryName names the release's telemetry view: its Name for the
// current release in All(), and for any other release the Name and
// Version joined by an underscore, with the Version's dots made
// underscores too (NetRecorder_5_1), so that two releases of one
// product never write into the same instruments.
func (s Spec) TelemetryName() string {
	for _, cur := range All() {
		if cur.Name == s.Name && cur.Version == s.Version {
			return s.Name
		}
	}
	return s.Name + "_" + strings.ReplaceAll(s.Version, ".", "_")
}

// Find resolves a product by name, case-insensitively. An optional
// ":version" suffix selects a specific release ("netrecorder:5.1");
// without one the current release in All() is returned.
func Find(name string) (Spec, bool) {
	want := strings.ToLower(name)
	versioned := append(All(), NetRecorder51())
	// Exact name:version match first.
	for _, s := range versioned {
		if want == strings.ToLower(s.Name)+":"+s.Version {
			return s, true
		}
	}
	for _, s := range All() {
		if want == strings.ToLower(s.Name) {
			return s, true
		}
	}
	return Spec{}, false
}
