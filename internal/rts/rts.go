// Package rts models the distributed real-time system the IDS protects:
// hosts with finite CPU running periodic deadline-constrained tasks, and
// the inter-host trust relationships the paper warns about ("when one
// host is compromised, other systems that trust it may be very easily
// compromised"). The model exists to make two of the paper's concerns
// measurable: the Operational Performance Impact metric (what fraction of
// a monitored host's capacity an IDS consumes, and what that does to
// deadlines) and compromise-scope analysis.
package rts

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/simtime"
)

// Task is a periodic real-time task.
type Task struct {
	// Name identifies the task.
	Name string
	// Period between releases.
	Period time.Duration
	// WCET is the execution demand per job at full processor speed.
	WCET time.Duration
	// Deadline is relative to release (0 means deadline = period).
	Deadline time.Duration
}

// effectiveDeadline resolves the implicit deadline.
func (t Task) effectiveDeadline() time.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// Utilization is the task's processor demand fraction.
func (t Task) Utilization() float64 {
	if t.Period <= 0 {
		return 0
	}
	return float64(t.WCET) / float64(t.Period)
}

// Host is one cluster node: a processor-sharing CPU running periodic
// tasks, with external overhead consumers (IDS agents, logging) stealing
// a fraction of capacity.
type Host struct {
	sim  *simtime.Sim
	name string

	tasks   []Task
	tickers []*simtime.Ticker

	// overheads maps consumer name -> stolen CPU fraction.
	overheads map[string]float64

	// JobsReleased / DeadlineMisses / JobsCompleted count outcomes.
	JobsReleased   uint64
	JobsCompleted  uint64
	DeadlineMisses uint64
	// WorstLateness is the largest completion-past-deadline observed.
	WorstLateness time.Duration

	running bool
}

// NewHost creates a host on the given simulation.
func NewHost(sim *simtime.Sim, name string) *Host {
	return &Host{sim: sim, name: name, overheads: make(map[string]float64)}
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// AddTask registers a periodic task. Tasks may not be added after Start.
func (h *Host) AddTask(t Task) error {
	if h.running {
		return fmt.Errorf("rts: host %s already started", h.name)
	}
	if t.Period <= 0 || t.WCET <= 0 {
		return fmt.Errorf("rts: task %q needs positive period and WCET", t.Name)
	}
	h.tasks = append(h.tasks, t)
	return nil
}

// SetOverhead records that the named consumer steals fraction f of the
// CPU (replacing any prior value for that consumer).
func (h *Host) SetOverhead(consumer string, f float64) error {
	if f < 0 || f >= 1 || math.IsNaN(f) {
		return fmt.Errorf("rts: overhead %v for %q outside [0,1)", f, consumer)
	}
	h.overheads[consumer] = f
	return nil
}

// Overhead returns the total stolen CPU fraction.
func (h *Host) Overhead() float64 {
	var sum float64
	for _, f := range h.overheads {
		sum += f
	}
	if sum > 0.999 {
		sum = 0.999
	}
	return sum
}

// TaskUtilization returns the task set's nominal processor demand.
func (h *Host) TaskUtilization() float64 {
	var u float64
	for _, t := range h.tasks {
		u += t.Utilization()
	}
	return u
}

// Start begins releasing jobs. Under processor sharing with overhead f,
// a job of demand W released into a task set with total utilization U
// completes after roughly W / max(ε, 1 − f − (U − its own share)); the
// model keeps it simpler and uniform: the whole task set shares capacity
// (1 − f), so each job's stretch factor is U / (1 − f) when U exceeds
// available capacity, and 1/(1 − f) per unit of demand otherwise.
func (h *Host) Start() error {
	if h.running {
		return fmt.Errorf("rts: host %s already started", h.name)
	}
	h.running = true
	for i := range h.tasks {
		t := h.tasks[i]
		tk, err := h.sim.NewTicker(t.Period, func() { h.release(t) })
		if err != nil {
			return err
		}
		h.tickers = append(h.tickers, tk)
	}
	return nil
}

// Stop halts job releases.
func (h *Host) Stop() {
	for _, tk := range h.tickers {
		tk.Stop()
	}
	h.tickers = nil
	h.running = false
}

// release models one job: completion time under the shared-capacity
// stretch model, deadline check at completion.
func (h *Host) release(t Task) {
	h.JobsReleased++
	avail := 1 - h.Overhead()
	if avail < 0.001 {
		avail = 0.001
	}
	stretch := 1 / avail
	if u := h.TaskUtilization(); u > avail {
		// Oversubscribed: every job additionally stretches by the load
		// factor u/avail (queueing-delay approximation).
		stretch = u / (avail * avail)
	}
	completion := time.Duration(float64(t.WCET) * stretch)
	deadline := t.effectiveDeadline()
	h.sim.MustSchedule(completion, func() {
		h.JobsCompleted++
		if completion > deadline {
			h.DeadlineMisses++
			if late := completion - deadline; late > h.WorstLateness {
				h.WorstLateness = late
			}
		}
	})
}

// MissRatio returns deadline misses per completed job.
func (h *Host) MissRatio() float64 {
	if h.JobsCompleted == 0 {
		return 0
	}
	return float64(h.DeadlineMisses) / float64(h.JobsCompleted)
}

// StandardTaskSet is a representative weapons-control workload: a fast
// sensor-fusion loop, a control loop, telemetry, and a display refresher.
// Total utilization ≈ 0.70, leaving the ~25% headroom a fielded system
// keeps for transients — so ~5% logging overhead is absorbed but ~20%
// C2-level logging pushes tight tasks over their deadlines.
func StandardTaskSet() []Task {
	return []Task{
		{Name: "sensor-fusion", Period: 10 * time.Millisecond, WCET: 3 * time.Millisecond, Deadline: 3500 * time.Microsecond},
		{Name: "control-loop", Period: 20 * time.Millisecond, WCET: 5 * time.Millisecond, Deadline: 6 * time.Millisecond},
		{Name: "telemetry", Period: 50 * time.Millisecond, WCET: 6 * time.Millisecond},
		{Name: "display", Period: 100 * time.Millisecond, WCET: 3 * time.Millisecond},
	}
}

// TrustGraph records which hosts trust which (directed: an edge a->b
// means b trusts a, so compromising a exposes b).
type TrustGraph struct {
	edges map[string][]string
	nodes map[string]bool
}

// NewTrustGraph creates an empty graph.
func NewTrustGraph() *TrustGraph {
	return &TrustGraph{edges: make(map[string][]string), nodes: make(map[string]bool)}
}

// AddNode registers a host.
func (g *TrustGraph) AddNode(name string) { g.nodes[name] = true }

// AddTrust records that `trusting` trusts `trusted` (compromise of
// trusted endangers trusting).
func (g *TrustGraph) AddTrust(trusting, trusted string) {
	g.AddNode(trusting)
	g.AddNode(trusted)
	g.edges[trusted] = append(g.edges[trusted], trusting)
}

// CompromiseScope returns every host transitively endangered if start is
// compromised (including start), sorted — the computation behind the
// Analysis of Compromise metric ("determine which of the distributed
// systems is compromised for safer resource allocation").
func (g *TrustGraph) CompromiseScope(start string) []string {
	if !g.nodes[start] {
		return nil
	}
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range g.edges[cur] {
			if !seen[nxt] {
				seen[nxt] = true
				queue = append(queue, nxt)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FullTrustCluster builds the pathological everyone-trusts-everyone
// cluster the paper warns about: compromise of any node endangers all.
func FullTrustCluster(names []string) *TrustGraph {
	g := NewTrustGraph()
	for _, a := range names {
		for _, b := range names {
			if a != b {
				g.AddTrust(a, b)
			}
		}
	}
	return g
}
