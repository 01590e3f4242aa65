package core

import "fmt"

// Registry is the fixed metric standard the methodology evaluates every
// system against.
type Registry struct {
	byID  map[string]Metric
	order []string
}

// NewRegistry builds a registry from metric definitions, rejecting
// duplicate IDs and definitions that fail the "characteristic" check.
func NewRegistry(metrics []Metric) (*Registry, error) {
	r := &Registry{byID: make(map[string]Metric, len(metrics))}
	for _, m := range metrics {
		if m.ID == "" || m.Name == "" {
			return nil, fmt.Errorf("core: metric %+v needs ID and Name", m)
		}
		if _, dup := r.byID[m.ID]; dup {
			return nil, fmt.Errorf("core: duplicate metric ID %q", m.ID)
		}
		switch m.Class {
		case Logistical, Architectural, Performance:
		default:
			return nil, fmt.Errorf("core: metric %q has invalid class %d", m.ID, m.Class)
		}
		if m.Methods == 0 {
			return nil, fmt.Errorf("core: metric %q declares no observation method", m.ID)
		}
		if !m.Characteristic() {
			return nil, fmt.Errorf("core: metric %q fails the characteristic check", m.ID)
		}
		r.byID[m.ID] = m
		r.order = append(r.order, m.ID)
	}
	return r, nil
}

// Get looks up a metric by ID.
func (r *Registry) Get(id string) (Metric, bool) {
	m, ok := r.byID[id]
	return m, ok
}

// All returns every metric in definition order.
func (r *Registry) All() []Metric {
	out := make([]Metric, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// ByClass returns the metrics of one class, in definition order.
func (r *Registry) ByClass(c Class) []Metric {
	var out []Metric
	for _, id := range r.order {
		if m := r.byID[id]; m.Class == c {
			out = append(out, m)
		}
	}
	return out
}

// Len returns the metric count.
func (r *Registry) Len() int { return len(r.order) }

// Metric IDs for the Table 1–3 metrics, exported as constants so harness
// code referencing them fails to compile rather than silently mis-keying.
const (
	// Logistical (Table 1).
	MDistributedManagement = "distributed-management"
	MEaseOfConfiguration   = "ease-of-configuration"
	MEaseOfPolicyMaint     = "ease-of-policy-maintenance"
	MLicenseManagement     = "license-management"
	MOutsourcedSolution    = "outsourced-solution"
	MPlatformRequirements  = "platform-requirements"
	// Architectural (Table 2).
	MAdjustableSensitivity = "adjustable-sensitivity"
	MDataPoolSelectability = "data-pool-selectability"
	MDataStorage           = "data-storage"
	MHostBased             = "host-based"
	MMultiSensorSupport    = "multi-sensor-support"
	MNetworkBased          = "network-based"
	MScalableLoadBalancing = "scalable-load-balancing"
	MSystemThroughput      = "system-throughput"
	// Performance (Table 3).
	MAnalysisOfCompromise = "analysis-of-compromise"
	MErrorReporting       = "error-reporting-and-recovery"
	MFirewallInteraction  = "firewall-interaction"
	MInducedLatency       = "induced-traffic-latency"
	MZeroLossThroughput   = "maximal-throughput-zero-loss"
	MNetworkLethalDose    = "network-lethal-dose"
	MObservedFNRatio      = "observed-false-negative-ratio"
	MObservedFPRatio      = "observed-false-positive-ratio"
	MOperationalImpact    = "operational-performance-impact"
	MRouterInteraction    = "router-interaction"
	MSNMPInteraction      = "snmp-interaction"
	MTimeliness           = "timeliness"
)

// StandardMetrics returns the complete metric set the paper defines: the
// Table 1–3 real-time subset with full definitions and anchors, plus every
// metric the paper names as "defined but not included in this paper".
func StandardMetrics() []Metric {
	both := ByAnalysis | ByOpenSource
	var ms []Metric

	// ---- Logistical, Table 1 ----
	ms = append(ms,
		Metric{
			ID: MDistributedManagement, Name: "Distributed Management", Class: Logistical,
			Description: "Capability of managing and monitoring the IDS securely from multiple possibly remote systems.",
			Methods:     both, InPaperTable: true,
			Anchors: Anchors{
				Low:     "Management of each node must be done at the node.",
				Average: "Nodes may be remotely managed, but either security, or degree of administrative control is limited.",
				High:    "Complete management of all nodes may be done from any node or remotely. Appropriate encryption and authentication are employed.",
			},
		},
		Metric{
			ID: MEaseOfConfiguration, Name: "Ease of Configuration", Class: Logistical,
			Description: "Difficulty in initially installing and subsequently configuring the IDS.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Products scoring low would be difficult to use in a distributed environment with multiple sensors.",
		},
		Metric{
			ID: MEaseOfPolicyMaint, Name: "Ease of Policy Maintenance", Class: Logistical,
			Description: "The ease of creating, updating, and managing IDS detection and reaction policies.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Multi-sensor distributed deployments multiply policy maintenance effort.",
		},
		Metric{
			ID: MLicenseManagement, Name: "License Management", Class: Logistical,
			Description: "The difficulty of obtaining, updating, and extending licenses for the IDS.",
			Methods:     both, InPaperTable: true,
			RealTimeNote: "Per-sensor licensing complicates scaling a distributed deployment.",
		},
		Metric{
			ID: MOutsourcedSolution, Name: "Outsourced Solution", Class: Logistical,
			Description: "The degree to which the IDS services are provided by an external entity.",
			Methods:     ByOpenSource, InPaperTable: true,
			RealTimeNote: "Random vendor vulnerability scanning could disrupt system performance in a way that is not locally controllable.",
		},
		Metric{
			ID: MPlatformRequirements, Name: "Platform Requirements", Class: Logistical,
			Description: "System resources actually required to implement the IDS in the expected environment.",
			Methods:     both, InPaperTable: true,
			RealTimeNote: "Indicates the system resources consumed in the resource-critical real-time environment.",
		},
	)

	// ---- Logistical, defined but not tabled ----
	for _, nt := range []struct{ id, name, desc string }{
		{"quality-of-documentation", "Quality of Documentation", "Completeness, accuracy, and usability of the product documentation."},
		{"ease-of-attack-filter-generation", "Ease of Attack Filter Generation", "Difficulty of authoring new attack filters or signatures for the IDS."},
		{"evaluation-copy-availability", "Evaluation Copy Availability", "Availability of a trial or evaluation copy for pre-purchase testing."},
		{"level-of-administration", "Level of Administration", "Ongoing administrator attention the IDS demands during operation."},
		{"product-lifetime", "Product Lifetime", "Expected support lifetime and upgrade path of the product."},
		{"quality-of-technical-support", "Quality of Technical Support", "Responsiveness and competence of vendor technical support."},
		{"three-year-cost", "Three Year Cost of Ownership", "Total acquisition, licensing, and operations cost over three years."},
		{"training-support", "Training Support", "Availability and quality of operator and administrator training."},
	} {
		ms = append(ms, Metric{
			ID: nt.id, Name: nt.name, Class: Logistical,
			Description: nt.desc, Methods: ByAnalysis | ByOpenSource,
		})
	}

	// ---- Architectural, Table 2 ----
	ms = append(ms,
		Metric{
			ID: MAdjustableSensitivity, Name: "Adjustable Sensitivity", Class: Architectural,
			Description: "Ability to change the sensitivity of the IDS to compensate for high false positive or false negative ratios.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Allows tuning the IDS to optimal performance for the real-time environment.",
		},
		Metric{
			ID: MDataPoolSelectability, Name: "Data Pool Selectability", Class: Architectural,
			Description: "Ability to define the source data to be analyzed for intrusions (by protocol, source and destination addresses, etc).",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Would allow the IDS to consider only protocols outside those typically used within the distributed cluster.",
		},
		Metric{
			ID: MDataStorage, Name: "Data Storage", Class: Architectural,
			Description: "Average required amount of storage per megabyte of source data.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "A predictor of network bandwidth used in a distributed IDS.",
		},
		Metric{
			ID: MHostBased, Name: "Host-based", Class: Architectural,
			Description: "Proportion of IDS input from log files, audit trails and other host data.",
			Methods:     both, InPaperTable: true,
			RealTimeNote: "Indicates the proportion of a monitored host's resources that the IDS will use.",
		},
		Metric{
			ID: MMultiSensorSupport, Name: "Multi-sensor Support", Class: Architectural,
			Description: "Ability of an IDS to integrate management and input of multiple sensors or analyzers.",
			Methods:     both, InPaperTable: true,
			RealTimeNote: "Measures the ability of an IDS to monitor a truly distributed system.",
		},
		Metric{
			ID: MNetworkBased, Name: "Network-based", Class: Architectural,
			Description: "Proportion of IDS input from packet analysis and other network data.",
			Methods:     both, InPaperTable: true,
			RealTimeNote: "Network-based IDSs consume network resources by being in-line or via port mirroring.",
		},
		Metric{
			ID: MScalableLoadBalancing, Name: "Scalable Load-balancing", Class: Architectural,
			Description: "Ability to partition traffic into independent, balanced sensor loads, and ability of the load-balancing subprocess to scale upwards and downwards.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Indicates whether an IDS will be able to grow as the system grows.",
			Anchors: Anchors{
				Low:     "No load balancing",
				Average: "Load balancing via static methods such as placement",
				High:    "Intelligent, dynamic load balancing",
			},
		},
		Metric{
			ID: MSystemThroughput, Name: "System Throughput", Class: Architectural,
			Description: "Maximal data input rate that can be processed successfully by the IDS. Measured in packets per second for network-based IDSs and Mbps for host-based IDSs.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Helps determine whether the IDS will become a constraint on the processing ability of a real-time system.",
		},
	)

	// ---- Architectural, defined but not tabled ----
	for _, nt := range []struct{ id, name, desc string }{
		{"anomaly-based", "Anomaly Based", "Degree to which detection relies on deviation from learned normal behavior."},
		{"autonomous-learning", "Autonomous Learning", "Ability of the IDS to refine its models without operator retraining."},
		{"host-os-security", "Host/OS Security", "Hardening of the platform the IDS itself runs on."},
		{"interoperability", "Interoperability", "Ability to exchange data and controls with third-party security components."},
		{"package-contents", "Package Contents", "Completeness of the delivered software/hardware package."},
		{"process-security", "Process Security", "Resistance of the IDS processes to tampering or termination."},
		{"signature-based", "Signature Based", "Degree to which detection relies on patterns of known attacks."},
		{"visibility", "Visibility", "Degree to which the IDS itself is observable to an adversary on the network."},
	} {
		ms = append(ms, Metric{
			ID: nt.id, Name: nt.name, Class: Architectural,
			Description: nt.desc, Methods: ByAnalysis | ByOpenSource,
		})
	}

	// ---- Performance, Table 3 ----
	ms = append(ms,
		Metric{
			ID: MAnalysisOfCompromise, Name: "Analysis of Compromise", Class: Performance,
			Description: "Ability to report the extent of damage and compromise due to intrusions.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Allows an administrator to determine which of the distributed systems is compromised for safer resource allocation.",
		},
		Metric{
			ID: MErrorReporting, Name: "Error Reporting and Recovery", Class: Performance,
			Description: "Appropriateness of the behavior of the IDS under error/failure conditions.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Indicates what an IDS will do when it fails or is overloaded.",
			Anchors: Anchors{
				Low:     "No notification, no log, no indication that an error has occurred. Fatal errors cause system to hang indefinitely.",
				Average: "Failure is logged and user is notified at some point in the future when the IDS is able. Fatal errors cause cold reboot of entire machine.",
				High:    "Failure is reported near real time via attack notification channels. Fatal errors cause restart of application(s) or service(s).",
			},
		},
		Metric{
			ID: MFirewallInteraction, Name: "Firewall Interaction", Class: Performance,
			Description: "Ability to interact with a firewall. Perhaps to update a firewall's block list.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Helps determine what means are available for a near real-time automated response to an intrusion.",
		},
		Metric{
			ID: MInducedLatency, Name: "Induced Traffic Latency", Class: Performance,
			Description: "Degree to which traffic is delayed by the IDS's presence or operation.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Measures the impact an IDS will have on network throughput.",
		},
		Metric{
			ID: MZeroLossThroughput, Name: "Maximal Throughput with Zero Loss", Class: Performance,
			Description: "Observed level of traffic that results in a sustained average of zero lost packets or streams. Measured in packets/sec or # of simultaneous TCP streams.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Indicates how effective the IDS will be given the expected traffic flow in the network to be protected.",
		},
		Metric{
			ID: MNetworkLethalDose, Name: "Network Lethal Dose", Class: Performance,
			Description: "Observed level of network or host traffic that results in a shutdown/malfunction of IDS. Measured in packets/sec or # of simultaneous TCP streams.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Tells the bandwidth where the IDS will fail to operate correctly leaving the system unprotected.",
		},
		Metric{
			ID: MObservedFNRatio, Name: "Observed False Negative Ratio", Class: Performance,
			Description: "Ratio of actual attacks that are not detected to the total transactions.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Measures accuracy; distributed systems should drive this to the lowest possible level, accepting increased false positives.",
		},
		Metric{
			ID: MObservedFPRatio, Name: "Observed False Positive Ratio", Class: Performance,
			Description: "Ratio of alarms raised that do not correspond to actual attacks to the total transactions.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Measures accuracy and the degree that coverage must be extended with other security measures.",
		},
		Metric{
			ID: MOperationalImpact, Name: "Operational Performance Impact", Class: Performance,
			Description: "Negative impact on the host processing capacity due to the operation of the IDS. Expressed as a percentage of processing power.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Host resources consumed directly reduce real-time task headroom.",
		},
		Metric{
			ID: MRouterInteraction, Name: "Router Interaction", Class: Performance,
			Description: "Degree to which the IDS can interact with a router. Perhaps it might redirect attacker traffic to a honeypot.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Another channel for near real-time automated response.",
		},
		Metric{
			ID: MSNMPInteraction, Name: "SNMP Interaction", Class: Performance,
			Description: "Ability of the IDS to send an SNMP trap to one or more network devices in response to a detected attack.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Another channel for near real-time automated response.",
		},
		Metric{
			ID: MTimeliness, Name: "Timeliness", Class: Performance,
			Description: "Average/maximal time between an intrusion's occurrence and its being reported.",
			Methods:     ByAnalysis, InPaperTable: true,
			RealTimeNote: "Alerts must be issued in a timely manner to prevent further damage from intrusions.",
		},
	)

	// ---- Performance, defined but not tabled ----
	for _, nt := range []struct{ id, name, desc string }{
		{"analysis-of-intruder-intent", "Analysis of Intruder Intent", "Ability to characterize what the intruder was attempting to accomplish."},
		{"clarity-of-reports", "Clarity of Reports", "Understandability and actionability of generated reports."},
		{"effectiveness-of-generated-filters", "Effectiveness of Generated Filters", "How well automatically generated attack filters stop the offending traffic without collateral blocking."},
		{"evidence-collection", "Evidence Collection", "Ability to preserve forensic evidence of an intrusion."},
		{"information-sharing", "Information Sharing", "Ability to exchange threat information with other IDS installations."},
		{"notification-user-alerts", "Notification: User Alerts", "Variety and reliability of operator alerting channels."},
		{"program-interaction", "Program Interaction", "Ability to invoke external programs in response to events."},
		{"session-recording-playback", "Session Recording and Playback", "Ability to record attack sessions and replay them for analysis."},
		{"threat-correlation", "Threat Correlation", "Ability to correlate one attack with another across sensors and time."},
		{"trend-analysis", "Trend Analysis", "Ability to report attack trends over long horizons."},
	} {
		ms = append(ms, Metric{
			ID: nt.id, Name: nt.name, Class: Performance,
			Description: nt.desc, Methods: ByAnalysis,
		})
	}

	return ms
}

// StandardRegistry builds the registry of StandardMetrics. It panics on
// error because the metric set is a compile-time constant of this
// repository; tests assert its validity.
func StandardRegistry() *Registry {
	r, err := NewRegistry(StandardMetrics())
	if err != nil {
		panic(err)
	}
	return r
}
