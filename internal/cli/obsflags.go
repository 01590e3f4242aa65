// Observability flags shared by every sim-running command. One helper
// registers the full surface — -telemetry, -telemetry-jsonl, -listen,
// -trace-out — so the flags mean the same thing everywhere and a new
// command picks up the whole plane in two calls:
//
//	o := cli.AddObsFlags(flag.CommandLine)
//	flag.Parse()
//	defer o.Close()
//	o.Serve(ctx)                   // no-op unless -listen was given
//	... run, instrumenting with o.Registry() ...
//	o.Finish(snapshot)             // exports; no-op when all-off
//
// Everything here observes without perturbing: stdout and result files
// are byte-identical whether the flags are set or not (the determinism
// guard tests pin this), so operators can turn the plane on freely.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/httpexport"
)

// ObsFlags holds the parsed observability flag values and the lazily
// constructed registry/server behind them.
type ObsFlags struct {
	// Telemetry mirrors -telemetry: dump the final snapshot as
	// Prometheus text to stderr.
	Telemetry bool
	// JSONLPath mirrors -telemetry-jsonl: write the final snapshot as
	// JSONL to this file.
	JSONLPath string
	// Listen mirrors -listen: serve /metrics, /progress, /healthz,
	// /trace, and /debug/pprof on this address while the run is live.
	Listen string
	// TraceOut mirrors -trace-out: write the flight recorder as Chrome
	// trace_event JSON to this file at exit.
	TraceOut string

	reg      *obs.Registry
	server   *httpexport.Server
	progress func() any
	snapshot func() *obs.Snapshot
}

// AddObsFlags registers the shared observability flags on fs and
// returns the holder the command reads after flag parsing.
func AddObsFlags(fs *flag.FlagSet) *ObsFlags {
	o := &ObsFlags{}
	fs.BoolVar(&o.Telemetry, "telemetry", false,
		"collect telemetry and dump it (Prometheus text) to stderr; stdout is unaffected")
	fs.StringVar(&o.JSONLPath, "telemetry-jsonl", "",
		"write the telemetry snapshot as JSONL to this file (implies collection)")
	fs.StringVar(&o.Listen, "listen", "",
		"serve live /metrics, /progress, /healthz, /trace, /debug/pprof on this address (e.g. 127.0.0.1:9090; implies collection)")
	fs.StringVar(&o.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON of the flight recorder to this file (view in Perfetto; implies collection)")
	return o
}

// Collecting reports whether any flag asked for telemetry, i.e.
// whether the command should wire a registry at all.
func (o *ObsFlags) Collecting() bool {
	return o.Telemetry || o.JSONLPath != "" || o.Listen != "" || o.TraceOut != ""
}

// Registry returns the shared registry, creating it on first call.
// When tracing or a live endpoint was requested the flight recorder is
// enabled on it. Returns nil — the disabled configuration — when no
// flag asked for collection, so callers can thread the result without
// checks.
func (o *ObsFlags) Registry() *obs.Registry {
	if !o.Collecting() {
		return nil
	}
	if o.reg == nil {
		o.reg = obs.NewRegistry()
		if o.TraceOut != "" || o.Listen != "" {
			o.reg.EnableFlight(0)
		}
	}
	return o.reg
}

// SetSnapshot overrides where /metrics and Finish get their snapshot.
// Commands that aggregate several per-experiment registries (idseval's
// per-product runs) install a merger here; the default snapshots the
// shared Registry().
func (o *ObsFlags) SetSnapshot(fn func() *obs.Snapshot) { o.snapshot = fn }

// SetProgress installs the /progress provider. Must be called before
// Serve for the endpoint to exist.
func (o *ObsFlags) SetProgress(fn func() any) { o.progress = fn }

// Snapshot returns the current snapshot via the installed provider (or
// the shared registry), with the storage layer's fsio.* health
// counters merged in. Nil when collection is off.
func (o *ObsFlags) Snapshot() *obs.Snapshot {
	var snap *obs.Snapshot
	if o.snapshot != nil {
		snap = o.snapshot()
	} else {
		snap = o.Registry().Snapshot()
	}
	if snap != nil {
		snap.Merge(obs.FSIOSnapshot())
	}
	return snap
}

// Serve starts the live HTTP endpoint when -listen was given and ties
// its lifetime to ctx: when the signal-aware context cancels, the
// server drains and closes. The "listening on" line goes to stderr so
// stdout stays byte-identical.
func (o *ObsFlags) Serve(ctx context.Context) error {
	return o.serve(ctx, os.Stderr)
}

func (o *ObsFlags) serve(ctx context.Context, log io.Writer) error {
	if o.Listen == "" {
		return nil
	}
	reg := o.Registry()
	srv, err := httpexport.Start(httpexport.Config{
		Addr:     o.Listen,
		Snapshot: o.Snapshot,
		Progress: o.progress,
		Flight:   reg.Flight,
		Log:      log,
	})
	if err != nil {
		return err
	}
	o.server = srv
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	return nil
}

// Finish exports the final state: Prometheus text to stderr under
// -telemetry, JSONL under -telemetry-jsonl, and the Chrome trace under
// -trace-out. snap overrides the snapshot source for this export only
// (pass nil to use the installed provider). No-op when collection is
// off; stdout is never touched.
func (o *ObsFlags) Finish(snap *obs.Snapshot) error {
	if !o.Collecting() {
		return nil
	}
	if snap == nil {
		snap = o.Snapshot()
	}
	if o.Telemetry {
		fmt.Fprintln(os.Stderr, "# telemetry snapshot")
		if err := snap.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	if o.JSONLPath != "" {
		if err := snap.WriteJSONLFile(o.JSONLPath); err != nil {
			return err
		}
	}
	if o.TraceOut != "" {
		if err := o.Registry().Flight().WriteChromeTraceFile(o.TraceOut); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the live endpoint down if it is still up (normal exits
// reach it before the context cancels). Safe to defer uncondition-
// ally.
func (o *ObsFlags) Close() {
	if o.server == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = o.server.Shutdown(ctx)
	o.server = nil
}
