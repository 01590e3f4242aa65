package ids

import (
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// ResponseAction is an automated reaction the management console can take
// when notified of a threat — the near-real-time response channel the
// Firewall/Router/SNMP Interaction metrics score.
type ResponseAction int

// Response actions.
const (
	// ActionNone records the threat only.
	ActionNone ResponseAction = iota
	// ActionFirewallBlock adds the attacker to the firewall block list.
	ActionFirewallBlock
	// ActionRouterRedirect redirects the attacker's traffic (honeypot).
	ActionRouterRedirect
	// ActionSNMPTrap sends an SNMP trap to network devices.
	ActionSNMPTrap
)

// Firewall is the external blocking device the console drives.
type Firewall struct {
	blocked map[packet.Addr]bool
	// BlockEvents records each block with its time.
	BlockEvents []BlockEvent
	// FilteredPackets counts packets the block list stopped.
	FilteredPackets uint64
}

// BlockEvent is one firewall update.
type BlockEvent struct {
	At   time.Duration
	Addr packet.Addr
}

// Blocked reports whether addr is on the block list.
func (f *Firewall) Blocked(addr packet.Addr) bool { return f.blocked[addr] }

// Console is the managing subprocess: central configuration of every
// other component (1c:M) and automated threat response via external
// devices. Policy maps technique to action; "policy must be accurate, for
// faulty policy risks shutting out legitimate users".
type Console struct {
	sim *simtime.Sim

	// Policy maps attack technique -> automated response.
	Policy map[string]ResponseAction
	// ResponseLatency models the console->device control path.
	ResponseLatency time.Duration

	Firewall  *Firewall
	SNMPTraps []SNMPTrap
	Redirects []Redirect

	// peers receive shared block intelligence (Information Sharing
	// capability). Propagation is one hop: shared blocks are not
	// re-shared, so rings cannot loop.
	peers []*Console
	// SharedBlocksIn counts blocks learned from peers.
	SharedBlocksIn int
	// ShareLatency models the console-to-console exchange path.
	ShareLatency time.Duration
}

// SNMPTrap is one emitted trap.
type SNMPTrap struct {
	At        time.Duration
	Technique string
	Attacker  packet.Addr
}

// Redirect is one router redirection.
type Redirect struct {
	At       time.Duration
	Attacker packet.Addr
}

// NewConsole returns a console with an empty policy, no peers, and the
// default response and sharing latencies.
func NewConsole(sim *simtime.Sim) *Console {
	return &Console{
		sim:             sim,
		Policy:          make(map[string]ResponseAction),
		ResponseLatency: 5 * time.Millisecond,
		ShareLatency:    50 * time.Millisecond,
		Firewall:        &Firewall{blocked: make(map[packet.Addr]bool)},
	}
}

// ShareWith registers a peer console to receive this console's block
// intelligence — the Information Sharing performance capability: "ability
// to exchange threat information with other IDS installations." No
// command pairs consoles: it is the "Information sharing" extension
// EXPERIMENTS.md describes, pinned by TestInformationSharingPropagatesBlocks.
func (c *Console) ShareWith(peer *Console) {
	if peer == nil || peer == c {
		return
	}
	for _, p := range c.peers {
		if p == peer {
			return
		}
	}
	c.peers = append(c.peers, peer)
}

// applyBlock installs a firewall block and, when origin is local,
// propagates it to peers after the sharing latency.
func (c *Console) applyBlock(attacker packet.Addr, local bool) {
	if c.Firewall.blocked[attacker] {
		return
	}
	c.Firewall.blocked[attacker] = true
	c.Firewall.BlockEvents = append(c.Firewall.BlockEvents, BlockEvent{At: c.sim.Now(), Addr: attacker})
	if !local {
		c.SharedBlocksIn++
		return
	}
	for _, peer := range c.peers {
		peer := peer
		c.sim.MustSchedule(c.ShareLatency, func() { peer.applyBlock(attacker, false) })
	}
}

// SetPolicy maps a technique to an automated action.
func (c *Console) SetPolicy(technique string, a ResponseAction) {
	c.Policy[technique] = a
}

// handleThreat reacts to a monitor notification per policy.
func (c *Console) handleThreat(inc *ReportedIncident) {
	action, ok := c.Policy[inc.Technique]
	if !ok || action == ActionNone {
		return
	}
	attacker := inc.Attacker
	technique := inc.Technique
	c.sim.MustSchedule(c.ResponseLatency, func() {
		now := c.sim.Now()
		switch action {
		case ActionFirewallBlock:
			c.applyBlock(attacker, true)
		case ActionRouterRedirect:
			c.Redirects = append(c.Redirects, Redirect{At: now, Attacker: attacker})
		case ActionSNMPTrap:
			c.SNMPTraps = append(c.SNMPTraps, SNMPTrap{At: now, Technique: technique, Attacker: attacker})
		}
	})
}
