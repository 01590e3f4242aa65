// Cluster-monitoring: deploy an IDS over a distributed real-time cluster,
// run the high-trust east-west workload the paper's sponsors care about,
// inject an insider compromise, and show (a) detection through host
// agents, (b) the trust-graph compromise scope, and (c) the cost of
// C2-level auditing on real-time deadlines.
//
// Run with: go run ./examples/cluster-monitoring
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/eval"
	"repro/internal/hostmon"
	"repro/internal/products"
	"repro/internal/rts"
	"repro/internal/traffic"
)

func main() {
	// The AAFID-class research system: host-based autonomous agents with
	// C2-level auditing — maximum host visibility, maximum host cost.
	spec := products.AgentSwarm()

	tb, err := eval.NewTestbed(spec, eval.TestbedConfig{
		Seed:          3,
		ClusterHosts:  6,
		Profile:       traffic.RealTimeCluster(), // east-west dominated
		TrainFor:      30 * time.Second,
		BackgroundPps: 400,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training baselines on clean cluster traffic (30s virtual)...")
	if err := tb.Train(); err != nil {
		log.Fatal(err)
	}
	if err := tb.IDS.SetSensitivity(0.6); err != nil {
		log.Fatal(err)
	}

	// Inject an insider compromise and a masquerade — the threats the
	// paper singles out for high-trust clusters.
	camp := attack.NewCampaign(tb.AttackContext())
	now := tb.Sim.Now()
	if err := camp.LaunchAt(now+2*time.Second, attack.Insider{}); err != nil {
		log.Fatal(err)
	}
	if err := camp.LaunchAt(now+8*time.Second, attack.Masquerade{}); err != nil {
		log.Fatal(err)
	}
	tb.Sim.RunUntil(now + 20*time.Second)
	tb.Drain()
	tb.IDS.Flush()

	fmt.Printf("\nmonitor recorded %d incidents; severe (>= 0.7):\n", len(tb.IDS.Monitor().Incidents))
	for _, inc := range tb.IDS.Monitor().Incidents {
		if inc.Severity >= 0.7 {
			fmt.Printf("  %s\n", inc)
		}
	}

	// Compromise scope on the full-trust cluster: one compromised node
	// endangers everything that trusts it.
	names := make([]string, len(tb.Top.Cluster))
	for i, h := range tb.Top.Cluster {
		names[i] = h.Name()
	}
	trust := rts.FullTrustCluster(names)
	for _, inc := range camp.Incidents() {
		if inc.Technique != attack.TechInsider {
			continue
		}
		for _, h := range tb.Top.Cluster {
			if h.Addr() == inc.Attacker {
				scope := trust.CompromiseScope(h.Name())
				fmt.Printf("\ncompromise of %s exposes %d hosts via trust: %v\n", h.Name(), len(scope), scope)
			}
		}
	}

	// The price of that visibility: C2 auditing on a real-time host
	// running its normal workload, whose audit events flow at the
	// standard ~800 events/sec — the Operational Performance Impact
	// experiment the scorecard scores.
	imp, err := eval.MeasureOperationalImpact(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreal-time cost of C2-level audit logging:")
	fmt.Printf("  %.1f%% CPU to auditing, %d deadline misses in %d jobs\n",
		imp.OverheadFraction*100, imp.DeadlineMisses, imp.JobsCompleted)
	nominal := hostmon.OverheadFraction(hostmon.LogNominal, 800)
	c2 := hostmon.OverheadFraction(hostmon.LogC2, 800)
	fmt.Printf("\n(model calibration at 800 events/s: nominal logging %.1f%%, C2 %.1f%% — the paper's 3-5%% and ~20%%)\n",
		nominal*100, c2*100)
}
