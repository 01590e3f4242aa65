package eval

import (
	"sort"
	"time"

	"repro/internal/hostmon"
	"repro/internal/products"
	"repro/internal/rts"
	"repro/internal/simtime"
)

// ImpactResult holds the Operational Performance Impact observation: the
// host CPU fraction the product's host-resident components consume and
// its effect on real-time deadlines.
type ImpactResult struct {
	Product string
	// HasHostComponents is false for pure network products (standalone
	// sensor boxes), whose host impact is zero by construction.
	HasHostComponents bool
	// OverheadFraction is the measured CPU fraction consumed.
	OverheadFraction float64
	// JobsCompleted / DeadlineMisses summarize the RT task outcome.
	JobsCompleted  uint64
	DeadlineMisses uint64
	MissRatio      float64
	// LogLevel is the agent's audit depth, when deployed.
	LogLevel hostmon.LogLevel
}

// impactActivityEps is the standard audit activity rate the paper's
// 3-5%/20% figures are calibrated against.
const impactActivityEps = 800

// MeasureOperationalImpact runs the product's host-resident components on
// a standard real-time host for 10 virtual seconds at the standard audit
// activity rate.
func MeasureOperationalImpact(spec products.Spec, seed int64) (*ImpactResult, error) {
	res := &ImpactResult{Product: spec.Name, LogLevel: spec.HostAgentLevel}
	if !spec.HostAgents {
		return res, nil
	}
	res.HasHostComponents = true
	sim := simtime.New(seed)
	host := rts.NewHost(sim, "impact-host")
	for _, task := range rts.StandardTaskSet() {
		if err := host.AddTask(task); err != nil {
			return nil, err
		}
	}
	agent := hostmon.NewAgent(sim, host, spec.HostAgentLevel)
	gen, err := hostmon.NewActivityGenerator(sim, agent, impactActivityEps)
	if err != nil {
		return nil, err
	}
	if err := host.Start(); err != nil {
		return nil, err
	}
	sim.RunUntil(10 * time.Second)
	gen.Stop()
	host.Stop()
	sim.Run()
	res.OverheadFraction = host.Overhead()
	res.JobsCompleted = host.JobsCompleted
	res.DeadlineMisses = host.DeadlineMisses
	res.MissRatio = host.MissRatio()
	return res, nil
}

// CompromiseResult holds the Analysis-of-Compromise observation: given
// the insider/masquerade incidents of a run, how much of the true
// compromise scope the product surfaced, and what the trust graph says
// the exposure is.
type CompromiseResult struct {
	Product string
	// TrulyCompromised are hosts ground truth says were compromised.
	TrulyCompromised []string
	// Identified are compromised hosts the product named in a report.
	Identified []string
	// Coverage is |Identified ∩ TrulyCompromised| / |TrulyCompromised|
	// (1.0 when nothing was compromised).
	Coverage float64
	// ExposedByTrust is the transitive trust-graph exposure of the truly
	// compromised hosts — the paper's full-trust-cluster warning made
	// concrete.
	ExposedByTrust []string
}

// AnalyzeCompromise derives the compromise analysis from an accuracy run
// on tb: the testbed's cluster forms a full-trust cluster (the paper's
// worst case), truth comes from the campaign's insider/masquerade
// incidents, and identification comes from the reported incidents of
// res's product.
func AnalyzeCompromise(tb *Testbed, res *AccuracyResult) *CompromiseResult {
	out := &CompromiseResult{Product: res.Product}
	names := make([]string, len(tb.Top.Cluster))
	addrToName := make(map[uint32]string)
	for i, h := range tb.Top.Cluster {
		names[i] = h.Name()
		addrToName[uint32(h.Addr())] = h.Name()
	}
	trust := rts.FullTrustCluster(names)

	truly := make(map[string]bool)
	for host := range res.compromisedTruth {
		if n, ok := addrToName[host]; ok {
			truly[n] = true
		}
	}
	identified := make(map[string]bool)
	for host := range res.compromisedFound {
		if n, ok := addrToName[host]; ok {
			identified[n] = true
		}
	}
	for n := range truly {
		out.TrulyCompromised = append(out.TrulyCompromised, n)
	}
	sort.Strings(out.TrulyCompromised)
	hit := 0
	for n := range identified {
		out.Identified = append(out.Identified, n)
		if truly[n] {
			hit++
		}
	}
	sort.Strings(out.Identified)
	if len(out.TrulyCompromised) == 0 {
		out.Coverage = 1
	} else {
		out.Coverage = float64(hit) / float64(len(out.TrulyCompromised))
	}
	exposed := make(map[string]bool)
	for _, n := range out.TrulyCompromised {
		for _, e := range trust.CompromiseScope(n) {
			exposed[e] = true
		}
	}
	for n := range exposed {
		out.ExposedByTrust = append(out.ExposedByTrust, n)
	}
	sort.Strings(out.ExposedByTrust)
	return out
}
