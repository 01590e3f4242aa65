package campaign

import "context"

// Test-only accessor for the runner's execution hook, shared with the
// external campaign_test package.

// SetExecOverride substitutes experiment execution.
func (r *Runner) SetExecOverride(f func(ctx context.Context, ex Experiment) (*Result, error)) {
	r.Exec = f
}
