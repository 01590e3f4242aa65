package attack

import (
	"fmt"
	"time"
)

// Campaign schedules a set of scenarios across a run window and collects
// their ground-truth incidents. The harness replays a campaign over
// background traffic to measure the paper's accuracy metrics.
type Campaign struct {
	ctx       *Context
	incidents []Incident
	nextID    int
}

// NewCampaign creates a campaign bound to the given context.
func NewCampaign(ctx *Context) *Campaign {
	return &Campaign{ctx: ctx}
}

// LaunchAt schedules scenario s to fire at virtual time at.
func (c *Campaign) LaunchAt(at time.Duration, s Scenario) error {
	if at < c.ctx.Sim.Now() {
		return fmt.Errorf("attack: launch time %v already past (now %v)", at, c.ctx.Sim.Now())
	}
	c.nextID++
	id := fmt.Sprintf("atk-%03d-%s", c.nextID, s.Technique())
	_, err := c.ctx.Sim.ScheduleAt(at, func() {
		inc := s.Launch(c.ctx, id)
		c.incidents = append(c.incidents, inc)
	})
	return err
}

// SpreadAcross schedules every scenario evenly across the window
// [start, start+window), with per-slot jitter drawn from the context RNG.
func (c *Campaign) SpreadAcross(start, window time.Duration, scenarios []Scenario) error {
	if len(scenarios) == 0 {
		return fmt.Errorf("attack: no scenarios")
	}
	slot := window / time.Duration(len(scenarios))
	for i, s := range scenarios {
		jitter := time.Duration(0)
		if slot > 1 {
			jitter = time.Duration(c.ctx.Rng.Int63n(int64(slot / 2)))
		}
		if err := c.LaunchAt(start+time.Duration(i)*slot+jitter, s); err != nil {
			return err
		}
	}
	return nil
}

// Incidents returns ground truth for every attack launched so far. The
// slice is live; callers should read it only after the simulation drains.
func (c *Campaign) Incidents() []Incident { return c.incidents }
