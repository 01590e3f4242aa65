// Command idsevald is the online evaluation daemon: it accepts IDT2
// traces as chunked uploads over TCP (ISF2 frames) and HTTP, evaluates
// each against the product matrix through the crash-safe campaign
// runner, and streams incremental results plus the final scorecard back
// to the submitter.
//
// The daemon is built to be killed. Every ack is durable before it is
// sent, every accepted stream is journaled before evaluation, and a
// restart resumes exactly where the previous process died: clients are
// told the next expected chunk ordinal at Hello, interrupted
// evaluations re-run only their missing experiments, and the resumed
// scorecard is byte-identical to an uninterrupted run
// (TestKillRestartResume proves this with a real SIGKILL).
//
// Usage:
//
//	idsevald -dir /var/lib/idsevald [-tcp 127.0.0.1:7643] [-http 127.0.0.1:7644]
//
// Both listen addresses accept ":0"; the bound addresses are printed to
// stderr as "idsevald: tcp listening on ..." / "idsevald: http
// listening on ...". SIGINT or SIGTERM starts a graceful drain bounded
// by -drain-timeout: listeners close, /healthz flips to draining (503),
// in-flight evaluations finish, and queued-but-unstarted work stays
// durable for the next start. A second signal hard-exits immediately —
// which the durability contracts are built to survive.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/httpexport"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir          = flag.String("dir", "", "durable service root (required; created if missing)")
		tcpAddr      = flag.String("tcp", "127.0.0.1:7643", "ISF2 frame listener address (\":0\" picks a port; empty disables)")
		httpAddr     = flag.String("http", "", "HTTP ingest + observability listener address (empty disables)")
		maxStreams   = flag.Int("max-streams", 0, "admission ceiling on concurrently uploading streams (0 = default 32)")
		queueDepth   = flag.Int("queue-depth", 0, "bounded evaluation queue depth (0 = default 8)")
		evalWorkers  = flag.Int("eval-workers", 0, "concurrent stream evaluations (0 = default 2)")
		spoolMB      = flag.Int64("max-spool-mb", 0, "spool byte budget across open streams, MiB (0 = default 256)")
		idleExpiry   = flag.Duration("idle-expiry", 0, "shed an open stream after this much inactivity (0 = default 10m)")
		stallTimeout = flag.Duration("stall-timeout", 0, "evaluation heartbeat watchdog (0 = default 2m, negative disables)")
		retryAfter   = flag.Duration("retry-after", 0, "retry hint attached to backpressure rejections (0 = default 2s)")
		connTimeout  = flag.Duration("conn-timeout", 0, "per-frame TCP read/write deadline (0 = default 30s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "idsevald: -dir is required")
		flag.Usage()
		return 2
	}
	if *tcpAddr == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "idsevald: at least one of -tcp and -http must be set")
		return 2
	}

	ctx, stop := cli.Context(0)
	defer stop()

	reg := obs.NewRegistry()
	if *httpAddr != "" {
		reg.EnableFlight(0)
	}
	svc, err := serve.Open(serve.Config{
		Dir:           *dir,
		MaxStreams:    *maxStreams,
		QueueDepth:    *queueDepth,
		EvalWorkers:   *evalWorkers,
		MaxSpoolBytes: *spoolMB << 20,
		IdleExpiry:    *idleExpiry,
		StallTimeout:  *stallTimeout,
		RetryAfter:    *retryAfter,
		ConnTimeout:   *connTimeout,
		Obs:           reg,
		Log:           os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "idsevald:", err)
		return 1
	}

	var tcpLn net.Listener
	if *tcpAddr != "" {
		tcpLn, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idsevald:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "idsevald: tcp listening on %s\n", tcpLn.Addr())
		go svc.ServeTCP(tcpLn)
	}

	var httpSrv *http.Server
	if *httpAddr != "" {
		obsHandler, err := httpexport.NewHandler(httpexport.Config{
			Snapshot: svc.Snapshot,
			Progress: svc.Progress,
			Health:   svc.Health,
			Flight:   reg.Flight,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "idsevald:", err)
			return 1
		}
		httpLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idsevald:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "idsevald: http listening on %s\n", httpLn.Addr())
		httpSrv = &http.Server{Handler: svc.HTTPHandler(obsHandler)}
		go httpSrv.Serve(httpLn)
	}

	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "idsevald: shutdown signal — draining (bound %v)\n", *drainTimeout)

	// Stop admitting first: close the frame listener and shut the HTTP
	// server down concurrently with the drain so held-open waits
	// (scorecard long-polls) end when the run context cancels.
	if tcpLn != nil {
		tcpLn.Close()
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if httpSrv != nil {
		go httpSrv.Shutdown(dctx)
	}
	drainErr := svc.Drain(dctx)

	// The final ledger line is the operator's audit trail: every
	// submitted chunk in exactly one class, even across this shutdown.
	counts, _ := json.Marshal(svc.Counts())
	fmt.Fprintf(os.Stderr, "idsevald: ledger %s\n", counts)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "idsevald:", drainErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "idsevald: drained cleanly")
	return 0
}
