package netsim

import (
	"fmt"
	"time"

	"repro/internal/simtime"
)

// Fabric wires a topology across the fixed event domains of a
// simtime.ShardedSim. Every endpoint is placed in exactly one domain;
// links between same-domain endpoints are ordinary Links on that
// domain's Sim, while links between domains become cross-domain links:
// each direction is driven by the sending endpoint's Sim (all queue and
// stats state stays single-threaded in the sender's domain) and far-side
// delivery is handed to the coordinator at Send time.
//
// The fabric also derives the conservative lookahead: the minimum
// propagation delay over all cross-domain links. A packet sent at time t
// arrives no earlier than t + propagation >= t + lookahead, so every
// cross-domain delivery lands at or after the end of the window that
// produced it — the invariant ShardedSim's barrier synchronization
// depends on. That is why a zero-delay cross-domain link is rejected
// outright: it would leave no safe window at all.
type Fabric struct {
	ss         *simtime.ShardedSim
	dom        map[Endpoint]int
	minProp    time.Duration
	crossLinks int
}

// NewFabric creates a fabric over the coordinator's domains.
func NewFabric(ss *simtime.ShardedSim) *Fabric {
	return &Fabric{ss: ss, dom: make(map[Endpoint]int)}
}

// Sim returns the Sim for one domain — the clock every component placed
// there must be built against.
func (f *Fabric) Sim(dom int) *simtime.Sim { return f.ss.Domain(dom) }

// Place assigns an endpoint to an event domain. Placement is permanent:
// the domain determines which Sim drives the endpoint's events, and
// moving it would tear state across goroutines.
func (f *Fabric) Place(dom int, e Endpoint) error {
	if dom < 0 || dom >= f.ss.Domains() {
		return fmt.Errorf("netsim: domain %d out of range [0,%d)", dom, f.ss.Domains())
	}
	if e == nil {
		return fmt.Errorf("netsim: cannot place nil endpoint")
	}
	if prev, ok := f.dom[e]; ok && prev != dom {
		return fmt.Errorf("netsim: endpoint %q already placed in domain %d", e.Name(), prev)
	}
	f.dom[e] = dom
	return nil
}

// Link connects two placed endpoints. Same-domain pairs get an ordinary
// link on the shared Sim. Cross-domain pairs get a domain-aware link and
// must carry an explicit positive Propagation — the delay becomes part
// of the fabric's lookahead, and a zero (or defaulted) delay cannot
// bound a conservative window.
func (f *Fabric) Link(a, b Endpoint, cfg LinkConfig) (*Link, error) {
	da, ok := f.dom[a]
	if !ok {
		return nil, fmt.Errorf("netsim: endpoint %q not placed in any domain", a.Name())
	}
	db, ok := f.dom[b]
	if !ok {
		return nil, fmt.Errorf("netsim: endpoint %q not placed in any domain", b.Name())
	}
	if da == db {
		return NewLink(f.ss.Domain(da), a, b, cfg), nil
	}
	if cfg.Propagation <= 0 {
		return nil, fmt.Errorf("netsim: cross-domain link %q (d%d<->d%d) needs an explicit positive propagation delay: conservative parallel simulation derives its lookahead window from the minimum cross-domain delay, and a zero-delay edge admits no window", cfg.Name, da, db)
	}
	l := NewLink(f.ss.Domain(da), a, b, cfg)
	l.cross = true
	// Each direction is driven by its sender: l.b delivers to b, so its
	// Send path runs in a's domain; symmetrically for l.a.
	l.b.sim = f.ss.Domain(da)
	l.a.sim = f.ss.Domain(db)
	l.b.post = func(at simtime.Time, fn func()) { f.ss.Post(da, db, at, fn) }
	l.a.post = func(at simtime.Time, fn func()) { f.ss.Post(db, da, at, fn) }
	if f.crossLinks == 0 || l.Propagation < f.minProp {
		f.minProp = l.Propagation
	}
	f.crossLinks++
	return l, nil
}

// Finalize computes and installs the lookahead (the minimum cross-domain
// propagation delay). Call it after all links are wired and before the
// coordinator runs. A fabric with no cross-domain links places no bound
// on the window; domains never interact, so windows are effectively the
// whole run.
func (f *Fabric) Finalize() error {
	if f.crossLinks == 0 {
		// Independent domains: any window works; pick one huge enough
		// that the run completes in a single window per idle gap.
		return f.ss.SetLookahead(1 << 61)
	}
	return f.ss.SetLookahead(simtime.Time(f.minProp))
}
