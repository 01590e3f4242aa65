package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestMain runs the test binary as idsevald when IDSEVALD_TEST_MAIN is
// set, so a test can start, kill and restart the real daemon by
// re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("IDSEVALD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// meta names the stream identically in the reference and chaos runs:
// the scorecard must depend only on the trace and the evaluation
// parameters, never on which directory or daemon produced it.
var meta = serve.StreamMeta{
	Name: "chaos", Seed: 7, Quick: true,
	Products:    []string{"TrueSecure", "StreamHunter"},
	Sensitivity: 0.6,
}

// TestKillRestartResume keeps the daemon's central promise the way an
// operator meets it: SIGKILL mid-stream loses nothing. A daemon killed
// after half the chunks and restarted on the same directory must hand
// back the durable resume point at Hello, and the resumed upload must
// give a scorecard byte-identical to an uninterrupted daemon's. A
// SIGTERM then drains the daemon, which must exit 0 with a balanced
// ledger.
func TestKillRestartResume(t *testing.T) {
	chunks := chunked(traceBytes(t), 32<<10)
	if len(chunks) < 4 {
		t.Fatalf("trace too small for a mid-stream kill: %d chunks", len(chunks))
	}
	root := t.TempDir()

	ref := startDaemon(t, filepath.Join(root, "ref"))
	c := dial(t, ref.addr)
	want := finishUpload(t, c, chunks)
	ref.drain(t)

	// Half the chunks, then SIGKILL: no flush, no drain, no goodbye.
	chaosDir := filepath.Join(root, "chaos")
	d := startDaemon(t, chaosDir)
	c = dial(t, d.addr)
	half := len(chunks) / 2
	for i := 0; i < half; i++ {
		if err := c.SendChunkRetry(chunks[i], 5, 100*time.Millisecond); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	c.Close()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait() // reaps the process; its error is the kill

	d = startDaemon(t, chaosDir)
	c = dial(t, d.addr)
	if c.State != serve.StateOpen || int(c.Next) != half {
		t.Fatalf("restarted daemon resumes %s at chunk %d, want open at %d: an acked chunk was lost or re-requested",
			c.State, c.Next, half)
	}
	if got := finishUpload(t, c, chunks); !bytes.Equal(got, want) {
		t.Fatalf("scorecard after SIGKILL and resume differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	d.drain(t)
}

// dial connects to addr and says Hello for the chaos stream.
func dial(t *testing.T, addr string) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Hello(meta); err != nil {
		t.Fatal(err)
	}
	return c
}

// finishUpload sends chunks from the stream's resume point, finishes
// and waits for the scorecard.
func finishUpload(t *testing.T, c *serve.Client, chunks [][]byte) []byte {
	t.Helper()
	var total int64
	for i, chunk := range chunks {
		total += int64(len(chunk))
		if i < int(c.Next) {
			continue
		}
		if err := c.SendChunkRetry(chunk, 5, 100*time.Millisecond); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if err := c.FinishRetry(uint64(len(chunks)), total, 5, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	card, err := c.Await(3*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	return card
}

// traceBytes renders a labeled IDT2 trace in-process: 15 virtual
// seconds of e-commerce background at 40 pps under the standard attack
// campaign, the trace `trafficgen -seconds 15 -pps 40 -seed 11`
// describes.
func traceBytes(t *testing.T) []byte {
	t.Helper()
	sim := simtime.New(11)
	profile := traffic.EcommerceEdge()
	rec := trace.NewRecorder(sim, profile.Name)
	seq := &packet.SeqCounter{}
	var eps traffic.Endpoints
	for i := 0; i < 3; i++ {
		eps.External = append(eps.External, netsim.ExternalAddr(i))
	}
	for i := 0; i < 6; i++ {
		eps.Cluster = append(eps.Cluster, netsim.ClusterAddr(i))
	}
	gen, err := traffic.NewGenerator(sim, profile, eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(gen.SessionRateForPps(40)); err != nil {
		t.Fatal(err)
	}
	const dur = 15 * time.Second
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: rec.Emit, Eps: eps, Gen: gen})
	if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(attack.Intensity(1))); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	rec.SetIncidents(camp.Incidents())
	var buf bytes.Buffer
	if err := rec.Trace().WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chunked(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > size {
		out, data = append(out, data[:size]), data[size:]
	}
	return append(out, data)
}

// daemon is one idsevald process under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *output
}

// startDaemon starts idsevald on dir and waits for its frame listener.
// Its stderr goes to a Writer rather than a pipe: Wait returns only
// after the last write, so the drain's ledger line is never lost.
func startDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], "-dir", dir, "-tcp", "127.0.0.1:0", "-stall-timeout", "-1s")
	cmd.Env = append(os.Environ(), "IDSEVALD_TEST_MAIN=1")
	d := &daemon{cmd: cmd, stderr: &output{}}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d.addr = d.stderr.line(t, "idsevald: tcp listening on ")
	return d
}

// drain SIGTERMs the daemon and requires a clean exit whose last words
// are a balanced ledger.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("idsevald after SIGTERM: %v; stderr:\n%s", err, d.stderr)
	}
	var counts serve.Counts
	if err := json.Unmarshal([]byte(d.stderr.line(t, "idsevald: ledger ")), &counts); err != nil {
		t.Fatalf("ledger line: %v", err)
	}
	if err := counts.Check(); err != nil {
		t.Fatalf("ledger at drain: %v", err)
	}
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
