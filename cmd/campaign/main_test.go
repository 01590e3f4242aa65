package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the test binary as the campaign command when
// CAMPAIGN_TEST_MAIN is set, so a test can start the real command,
// with its flags, signal handling and exit codes, by re-executing
// itself.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLiveRunInterruptResume drives the command the way an operator
// would: plan a campaign, run it with the live HTTP plane on an
// ephemeral port, scrape /healthz, /metrics and /progress mid-run,
// interrupt the run with SIGINT, and require a graceful exit and a
// resume to completion.
func TestLiveRunInterruptResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	// Enough experiments that the single-worker run stays alive for a
	// couple of seconds, the window the scrapes and the SIGINT need.
	runCampaign(t, "plan", "-dir", dir, "-quick", "-seed", "11", "-evals", "-sweep-points", "4")

	live := campaignCommand(t, "run", "-dir", dir, "-workers", "1", "-listen", "127.0.0.1:0")
	var stdout bytes.Buffer
	stderr := &output{}
	live.Stdout, live.Stderr = &stdout, stderr
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + stderr.line(t, "observability: listening on http://")
	if body := get(t, base+"/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: unexpected body %q", body)
	}
	if body := get(t, base+"/metrics"); !strings.Contains(body, "campaign_") {
		t.Fatalf("/metrics: no campaign_ family in:\n%s", body)
	}
	// The plane listens before Runner.Run publishes the plan, and
	// /progress reads zero until then.
	var prog struct {
		Planned int  `json:"planned"`
		Done    bool `json:"done"`
	}
	for deadline := time.Now().Add(time.Minute); prog.Planned == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/progress never showed the plan")
		}
		if body := get(t, base+"/progress"); json.Unmarshal([]byte(body), &prog) != nil {
			t.Fatalf("/progress: not JSON: %q", body)
		}
	}
	if prog.Planned != 20 || prog.Done {
		t.Fatalf("/progress mid-run: %+v, want 20 planned and not done", prog)
	}

	if err := live.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// Interrupted and incomplete exits 1 with the resume banner; 0 means
	// the run finished before the signal landed. Anything else is a
	// shutdown bug.
	var exit *exec.ExitError
	if err := live.Wait(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		t.Fatalf("run after SIGINT: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, stderr)
	}

	// The journal survived the interrupt: resume runs the rest.
	runCampaign(t, "resume", "-dir", dir)
	if out := runCampaign(t, "status", "-dir", dir); !strings.Contains(out, "20/20 experiments committed") {
		t.Fatalf("campaign incomplete after resume:\n%s", out)
	}
}

// campaignCommand returns the campaign command with args, killed if it
// outlives the test or a two-minute bound.
func campaignCommand(t *testing.T, args ...string) *exec.Cmd {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CAMPAIGN_TEST_MAIN=1")
	return cmd
}

// runCampaign runs the campaign command to completion and returns its
// output.
func runCampaign(t *testing.T, args ...string) string {
	t.Helper()
	out, err := campaignCommand(t, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("campaign %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// get fetches url and requires HTTP 200.
func get(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// output collects what a running command writes, for reading while it
// runs.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// line waits up to a minute for a whole line that starts with prefix
// and returns the rest of it.
func (o *output) line(t *testing.T, prefix string) string {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, l := range strings.SplitAfter(o.String(), "\n") {
			if rest, ok := strings.CutPrefix(l, prefix); ok && strings.HasSuffix(rest, "\n") {
				return strings.TrimSuffix(rest, "\n")
			}
		}
	}
	t.Fatalf("no %q line within a minute; output so far:\n%s", prefix, o)
	return ""
}
