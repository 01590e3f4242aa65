package ids

import (
	"fmt"

	"repro/internal/packet"
)

// DataPool defines which traffic the IDS analyzes — the Data Pool
// Selectability architectural metric made operational. The paper's
// real-time note: selectability "would allow the IDS to consider only
// protocols outside those typically used within the distributed
// cluster", sparing sensor capacity for the traffic that can actually
// carry external attacks.
//
// Semantics: a packet is analyzed if it matches no Exclude rule and, when
// any Include rules exist, matches at least one of them.
type DataPool struct {
	Include []PoolRule
	Exclude []PoolRule
}

// PoolRule selects traffic by protocol, service port, and/or source and
// destination prefixes. Zero-valued fields match everything.
type PoolRule struct {
	// Name documents the rule in diagnostics.
	Name string
	// Proto restricts to one IP protocol (0 = any).
	Proto packet.Proto
	// Port restricts to a service port, matched against either endpoint
	// (0 = any).
	Port uint16
	// SrcPrefix/SrcBits restrict the source address (SrcBits 0 = any).
	SrcPrefix packet.Addr
	SrcBits   int
	// DstPrefix/DstBits restrict the destination address.
	DstPrefix packet.Addr
	DstBits   int
}

// matches reports whether the rule selects p.
func (r PoolRule) matches(p *packet.Packet) bool {
	if r.Proto != 0 && p.Proto != r.Proto {
		return false
	}
	if r.Port != 0 && p.SrcPort != r.Port && p.DstPort != r.Port {
		return false
	}
	if r.SrcBits > 0 {
		mask := ^packet.Addr(0) << (32 - r.SrcBits)
		if p.Src&mask != r.SrcPrefix&mask {
			return false
		}
	}
	if r.DstBits > 0 {
		mask := ^packet.Addr(0) << (32 - r.DstBits)
		if p.Dst&mask != r.DstPrefix&mask {
			return false
		}
	}
	return true
}

// Validate rejects malformed prefix widths.
func (pool *DataPool) Validate() error {
	check := func(rules []PoolRule, kind string) error {
		for _, r := range rules {
			if r.SrcBits < 0 || r.SrcBits > 32 || r.DstBits < 0 || r.DstBits > 32 {
				return fmt.Errorf("ids: %s rule %q has invalid prefix bits", kind, r.Name)
			}
		}
		return nil
	}
	if err := check(pool.Include, "include"); err != nil {
		return err
	}
	return check(pool.Exclude, "exclude")
}

// Selects reports whether the pool admits p for analysis. A nil pool
// admits everything.
func (pool *DataPool) Selects(p *packet.Packet) bool {
	if pool == nil {
		return true
	}
	for _, r := range pool.Exclude {
		if r.matches(p) {
			return false
		}
	}
	if len(pool.Include) == 0 {
		return true
	}
	for _, r := range pool.Include {
		if r.matches(p) {
			return true
		}
	}
	return false
}

// ClusterExclusionPool implements the paper's suggestion for real-time
// clusters: skip the cluster's own tightly-cadenced protocols (the
// inter-node RPC service and bulk replication), which dominate east-west
// volume and cannot carry the external threat. No command installs it:
// it is the pool of the data-pool ablation (BenchmarkAblationDataPool)
// that EXPERIMENTS.md quotes, pinned by TestDataPoolExcludeRules.
func ClusterExclusionPool() *DataPool {
	return &DataPool{
		Exclude: []PoolRule{
			{Name: "cluster-rpc", Proto: packet.ProtoUDP, Port: 7400},
			{Name: "cluster-replication", Proto: packet.ProtoTCP, Port: 20,
				SrcPrefix: packet.IPv4(10, 1, 0, 0), SrcBits: 16,
				DstPrefix: packet.IPv4(10, 1, 0, 0), DstBits: 16},
		},
	}
}

// SetDataPool installs (or clears, with nil) the analysis pool at
// runtime — one of the central-management operations a console performs.
func (s *IDS) SetDataPool(pool *DataPool) error {
	if pool != nil {
		if err := pool.Validate(); err != nil {
			return err
		}
	}
	s.pool = pool
	return nil
}
