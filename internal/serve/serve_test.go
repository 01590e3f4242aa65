package serve_test

// The service's three contracts under test: exact shed accounting
// (every chunk in exactly one ledger class, at all times, under
// concurrent overload), ack-is-durable resume (a killed daemon
// restarts exactly after the last acked chunk, tolerating torn
// journals), and byte-identical recovery (an interrupted-and-resumed
// stream renders the same scorecard as an uninterrupted one).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/obs/httpexport"
	"repro/internal/packet"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// buildTraceBytes renders a small labeled IDT2 trace, cached per seed —
// generation costs a simulation run and several tests share it.
var traceCache sync.Map

func buildTraceBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	if b, ok := traceCache.Load(seed); ok {
		return b.([]byte)
	}
	sim := simtime.New(seed)
	rec := trace.NewRecorder(sim, "ecommerce-edge")
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster: []packet.Addr{
			packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3),
		},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(2*time.Second, 10*time.Second, []attack.Scenario{
		attack.Exploit{Count: 3}, attack.BruteForce{Attempts: 20},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(15 * time.Second)
	gen.Stop()
	sim.Run()
	rec.SetIncidents(camp.Incidents())
	var buf bytes.Buffer
	if err := rec.Trace().WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	traceCache.Store(seed, buf.Bytes())
	return buf.Bytes()
}

// quickMeta is the evaluation shape the chaos tests use: one product,
// trace replay only, quick scale.
func quickMeta(name string) serve.StreamMeta {
	return serve.StreamMeta{
		Name: name, Seed: 7, Quick: true,
		Products: []string{"TrueSecure"}, Sensitivity: 0.6,
	}
}

func openService(t testing.TB, dir string, mut func(*serve.Config)) *serve.Service {
	t.Helper()
	cfg := serve.Config{Dir: dir, Backoff: time.Millisecond, StallTimeout: -1}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// chunked splits data into fixed-size pieces.
func chunked(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// uploadAll pushes every chunk from the stream's resume point and
// finishes.
func uploadAll(t *testing.T, svc *serve.Service, meta serve.StreamMeta, chunks [][]byte) {
	t.Helper()
	if err := upload(svc, meta, chunks); err != nil {
		t.Fatal(err)
	}
}

// upload is uploadAll stopping at the first error, for runs that a
// fault may cut short.
func upload(svc *serve.Service, meta serve.StreamMeta, chunks [][]byte) error {
	info, err := svc.Hello(meta)
	if err != nil {
		return err
	}
	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	for i := int(info.Next); i < len(chunks); i++ {
		if _, err := svc.Accept(meta.Name, uint32(i), chunks[i]); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return svc.Finish(meta.Name, uint64(len(chunks)), total)
}

// awaitDone polls until the stream reaches a terminal state and
// returns its scorecard.
func awaitDone(t *testing.T, svc *serve.Service, name string) []byte {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		status, ok := svc.Status(name)
		if !ok {
			t.Fatalf("stream %s vanished", name)
		}
		switch status.State {
		case serve.StateDone:
			card, err := svc.Scorecard(name)
			if err != nil {
				t.Fatal(err)
			}
			return card
		case serve.StateFailed, serve.StateShed:
			t.Fatalf("stream %s ended %s: %s", name, status.State, status.Reason)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("stream %s not done within deadline", name)
	return nil
}

// referenceScorecard runs the stream uninterrupted in a fresh
// directory — the byte-identity oracle for the chaos tests.
func referenceScorecard(t *testing.T, name string, chunks [][]byte) []byte {
	t.Helper()
	return referenceRun(t, quickMeta(name), chunks)
}

// referenceRun is referenceScorecard for any meta. It also checks the
// stream's feed: a Result event per experiment, in plan order, then the
// scorecard.
func referenceRun(t *testing.T, meta serve.StreamMeta, chunks [][]byte) []byte {
	t.Helper()
	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	uploadAll(t, svc, meta, chunks)
	card := awaitDone(t, svc, meta.Name)
	history, _, cancel, err := svc.Subscribe(meta.Name)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var feed []string
	for _, ev := range history {
		feed = append(feed, feedEntry(t, ev.Kind, ev.Payload))
	}
	if want := planFeed(meta); !reflect.DeepEqual(feed, append(want, "complete")) {
		t.Fatalf("feed %v, want %v then complete", feed, want)
	}
	return card
}

// twoProductMeta is quickMeta for the field the benchmark streams:
// TrueSecure and StreamHunter, replayed on one testbed.
func twoProductMeta(name string) serve.StreamMeta {
	meta := quickMeta(name)
	meta.Products = []string{"TrueSecure", "StreamHunter"}
	return meta
}

// planFeed is the feed a trace-only stream of meta delivers before it
// completes: one Result per product, in plan order, then the scorecard.
func planFeed(meta serve.StreamMeta) []string {
	var feed []string
	for _, p := range meta.Products {
		feed = append(feed, "trace/trace/"+p)
	}
	return append(feed, "scorecard")
}

// feedEntry names one feed event: a Result by its experiment ID, any
// other event by its kind.
func feedEntry(t *testing.T, kind serve.EventKind, payload []byte) string {
	t.Helper()
	switch kind {
	case serve.EventResult:
		var res struct{ ID string }
		if err := json.Unmarshal(payload, &res); err != nil {
			t.Fatal(err)
		}
		return res.ID
	case serve.EventScorecard:
		return "scorecard"
	case serve.EventComplete:
		return "complete"
	}
	return fmt.Sprintf("event %d: %s", kind, payload)
}

func checkLedger(t *testing.T, svc *serve.Service) {
	t.Helper()
	if err := svc.Counts().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestEvaluateScorecardOverTCP streams a trace over TCP for one
// product and for the two the benchmark streams, which share one
// testbed: the feed must deliver a Result per experiment, in plan
// order, before the scorecard.
func TestIngestEvaluateScorecardOverTCP(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)
	for _, meta := range []serve.StreamMeta{quickMeta("tcp1"), twoProductMeta("tcp2")} {
		t.Run(strings.Join(meta.Products, "+"), func(t *testing.T) {
			svc := openService(t, t.TempDir(), nil)
			defer svc.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go svc.ServeTCP(ln)

			c, err := serve.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Hello(meta); err != nil {
				t.Fatal(err)
			}
			if c.Next != 0 || c.State != serve.StateOpen {
				t.Fatalf("hello = next %d state %s, want 0/open", c.Next, c.State)
			}
			for _, chunk := range chunks {
				if err := c.SendChunkRetry(chunk, 3, 10*time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FinishRetry(uint64(len(chunks)), int64(len(data)), 3, 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			var feed []string
			card, err := c.Await(3*time.Minute, func(kind serve.EventKind, payload []byte) {
				feed = append(feed, feedEntry(t, kind, payload))
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range meta.Products {
				if !bytes.Contains(card, []byte(p)) {
					t.Fatalf("scorecard missing %s's section:\n%s", p, card)
				}
			}
			if want := planFeed(meta); !reflect.DeepEqual(feed, want) {
				t.Fatalf("feed %v, want %v", feed, want)
			}

			counts := svc.Counts()
			if counts.Delivered != uint64(len(chunks)) || counts.Pending != 0 {
				t.Fatalf("ledger after completion: %+v", counts)
			}
			checkLedger(t, svc)
			if h := svc.Health(); h != httpexport.HealthOK {
				t.Fatalf("health = %q after clean completion", h)
			}
		})
	}
}

// TestEvalTelemetryReachesMetrics pins the daemon's one registry: an
// evaluating stream's campaign writes each product's telemetry into the
// service registry under eval.<Product>., so /metrics (Snapshot)
// carries the scorecard gauges and the accuracy-run counters without a
// merge step.
func TestEvalTelemetryReachesMetrics(t *testing.T) {
	chunks := chunked(buildTraceBytes(t, 31), 48<<10)
	svc := openService(t, t.TempDir(), func(c *serve.Config) { c.Obs = obs.NewRegistry() })
	defer svc.Close()
	meta := quickMeta("evals")
	meta.Evals = true
	uploadAll(t, svc, meta, chunks)
	awaitDone(t, svc, meta.Name)

	snap := svc.Snapshot()
	if _, ok := snap.Gauge("eval.TrueSecure.scorecard.detection_delay_p95_ns"); !ok {
		t.Error("/metrics lacks the product's scorecard gauges")
	}
	if n, _ := snap.Counter("eval.TrueSecure.accuracy.ids.ingested"); n == 0 {
		t.Error("/metrics lacks the product's accuracy-run counters")
	}
	if snap.Hist("eval.TrueSecure.eval.detection_delay_ns") == nil {
		t.Error("/metrics lacks the product's measurement histograms")
	}
}

func TestUploadResumeAfterKillIsByteIdentical(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)
	want := referenceScorecard(t, "chaos", chunks)

	dir := t.TempDir()
	svc := openService(t, dir, nil)
	meta := quickMeta("chaos")
	if _, err := svc.Hello(meta); err != nil {
		t.Fatal(err)
	}
	half := len(chunks) / 2
	for i := 0; i < half; i++ {
		if _, err := svc.Accept("chaos", uint32(i), chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Close == crash by construction: every durable structure is
	// already consistent at all instants.
	svc.Close()

	// Make the crash nastier than Close can: a torn ack-journal line
	// and spool bytes whose ack never committed (kill between the two
	// fsyncs).
	sdir := filepath.Join(dir, "streams", "chaos")
	tear(t, filepath.Join(sdir, "acks.jsonl"), `{"ord":99,"le`)
	tear(t, filepath.Join(sdir, "trace.idt2"), "unjournaled tail bytes")

	svc2 := openService(t, dir, nil)
	defer svc2.Close()
	info, err := svc2.Hello(meta)
	if err != nil {
		t.Fatal(err)
	}
	if info.Next != uint32(half) || info.State != serve.StateOpen {
		t.Fatalf("resume hello = next %d state %s, want %d/open", info.Next, info.State, half)
	}
	counts := svc2.Counts()
	if counts.Pending != uint64(half) || counts.Submitted != uint64(half) {
		t.Fatalf("recovered ledger: %+v, want %d pending", counts, half)
	}
	checkLedger(t, svc2)

	uploadAll(t, svc2, meta, chunks)
	got := awaitDone(t, svc2, "chaos")
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed scorecard differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	checkLedger(t, svc2)
}

// tear appends a raw fragment to a file, simulating a torn write.
func tear(t *testing.T, path, fragment string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fragment); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestKillDuringEvaluationResumesByteIdentical kills the daemon while
// it evaluates a stream of one product, and one of the two the
// benchmark streams, which share one testbed and commit together; the
// restarted daemon must finish with the uninterrupted run's scorecard,
// and any Result it delivers must keep plan order, before the
// scorecard.
func TestKillDuringEvaluationResumesByteIdentical(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)
	for _, meta := range []serve.StreamMeta{quickMeta("chaos2"), twoProductMeta("chaos2")} {
		t.Run(strings.Join(meta.Products, "+"), func(t *testing.T) {
			want := referenceRun(t, meta, chunks)

			dir := t.TempDir()
			svc := openService(t, dir, nil)
			uploadAll(t, svc, meta, chunks)
			// Give the evaluation a moment to start (and likely commit
			// some experiments), then kill the daemon mid-flight.
			time.Sleep(150 * time.Millisecond)
			svc.Close()

			svc2 := openService(t, dir, nil)
			defer svc2.Close()
			status, ok := svc2.Status(meta.Name)
			if !ok {
				t.Fatal("stream lost across restart")
			}
			if status.State != serve.StateQueued && status.State != serve.StateRunning && status.State != serve.StateDone {
				t.Fatalf("restarted stream state = %s, want re-queued or done", status.State)
			}
			counts := svc2.Counts()
			if counts.Delivered != uint64(len(chunks)) {
				t.Fatalf("delivered %d across restart, want %d", counts.Delivered, len(chunks))
			}
			checkLedger(t, svc2)

			got := awaitDone(t, svc2, meta.Name)
			if !bytes.Equal(got, want) {
				t.Fatalf("post-kill scorecard differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			history, _, cancel, err := svc2.Subscribe(meta.Name)
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			// The restarted daemon delivers the Results it committed
			// itself, a suffix of the plan's, then the scorecard.
			var feed []string
			for _, ev := range history {
				feed = append(feed, feedEntry(t, ev.Kind, ev.Payload))
			}
			full := append(planFeed(meta), "complete")
			if len(feed) < 2 || !reflect.DeepEqual(feed, full[len(full)-len(feed):]) {
				t.Fatalf("restarted feed %v, want a suffix of %v ending in the scorecard", feed, full)
			}
		})
	}
}

func TestOverloadSoakKeepsExactAccounting(t *testing.T) {
	// A small spool budget and several concurrent writers force the
	// whole backpressure surface: accepts, duplicates, out-of-order
	// rejects, budget rejects, and overload sheds. The invariant must
	// hold at every instant a concurrent checker observes, and the
	// client-observed outcomes must reconcile with the ledger exactly.
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.MaxSpoolBytes = 192 << 10
		c.MaxStreams = 8
		c.RetryAfter = time.Millisecond
	})
	defer svc.Close()

	stop := make(chan struct{})
	var checkerErr atomic.Value
	var checks atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if err := svc.Counts().Check(); err != nil {
					checkerErr.Store(err)
					return
				}
				checks.Add(1)
			}
		}
	}()

	const writers = 6
	const perWriter = 120
	var submitted atomic.Int64
	var wg sync.WaitGroup
	payload := bytes.Repeat([]byte{0xAB}, 8<<10)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("soak-%d", w)
			if _, err := svc.Hello(serve.StreamMeta{Name: name, Evals: true, Quick: true}); err != nil {
				t.Errorf("hello %s: %v", name, err)
				return
			}
			next := uint32(0)
			for i := 0; i < perWriter; i++ {
				ord := next
				switch i % 7 {
				case 3:
					if ord > 0 {
						ord-- // deliberate duplicate
					}
				case 5:
					ord += 2 // deliberate ordering violation
				}
				submitted.Add(1)
				ai, err := svc.Accept(name, ord, payload)
				if err == nil && !ai.Dup {
					next = ai.Next
				}
				// Rejections and protocol errors are expected under
				// pressure; the ledger must have classified them.
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err, _ := checkerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if checks.Load() == 0 {
		t.Fatal("invariant checker never ran")
	}

	counts := svc.Counts()
	checkLedger(t, svc)
	if counts.Submitted != uint64(submitted.Load()) {
		t.Fatalf("ledger submitted %d, clients submitted %d", counts.Submitted, submitted.Load())
	}
	if counts.Shed[serve.ShedOverload] == 0 {
		t.Fatalf("soak never triggered overload shedding: %+v", counts)
	}
	if counts.Rejected == 0 || counts.Duplicate == 0 {
		t.Fatalf("soak missed a classification: %+v", counts)
	}
	// Spool usage stays within budget + one in-flight chunk per writer:
	// memory and disk are bounded under sustained overload.
	var live int64
	for _, status := range svc.Streams() {
		if status.State == serve.StateOpen {
			live += status.Bytes
		}
	}
	if max := int64(192<<10) + writers*int64(len(payload)); live > max {
		t.Fatalf("live spool %d exceeds budget bound %d", live, max)
	}
}

func TestHealthTransitionsAndDrain(t *testing.T) {
	svc := openService(t, t.TempDir(), nil)
	if h := svc.Health(); h != httpexport.HealthOK {
		t.Fatalf("fresh service health = %q", h)
	}

	// A protocol violation at finish sheds the stream → degraded.
	if _, err := svc.Hello(serve.StreamMeta{Name: "bad", Evals: true, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Accept("bad", 0, []byte("xx")); err != nil {
		t.Fatal(err)
	}
	err := svc.Finish("bad", 5, 999)
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("mismatched finish = %v, want ProtocolError", err)
	}
	if h := svc.Health(); h != httpexport.HealthDegraded {
		t.Fatalf("health after shed = %q, want degraded", h)
	}
	counts := svc.Counts()
	if counts.Shed[serve.ShedProtocol] != 1 {
		t.Fatalf("protocol shed not accounted: %+v", counts)
	}
	checkLedger(t, svc)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if h := svc.Health(); h != httpexport.HealthDraining {
		t.Fatalf("health after drain = %q, want draining", h)
	}
	// Drained service rejects new work with a retry hint.
	_, err = svc.Hello(serve.StreamMeta{Name: "late", Evals: true})
	var re *serve.RejectError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("hello while draining = %v, want RejectError with Retry-After", err)
	}
}

func TestAdmissionControlRejectsBeyondMaxStreams(t *testing.T) {
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.MaxStreams = 1
	})
	defer svc.Close()
	if _, err := svc.Hello(serve.StreamMeta{Name: "one", Evals: true}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Hello(serve.StreamMeta{Name: "two", Evals: true})
	var re *serve.RejectError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("hello past MaxStreams = %v, want RejectError", err)
	}
	// Rejected hello carries no chunks; ledger untouched.
	if got := svc.Counts().Submitted; got != 0 {
		t.Fatalf("hello reject booked %d chunks", got)
	}
}

func TestFinishShedsLyingFooterAsCorrupt(t *testing.T) {
	// A spool whose footer claims 999 packets and 4,294,967,295 cluster
	// hosts over a real body fails validation at Finish and is shed as
	// corrupt, never queued for an evaluation sized from the lie.
	data := append([]byte(nil), buildTraceBytes(t, 7)...)
	footer := binary.BigEndian.Uint64(data[len(data)-12:])
	stats := data[footer+5+8:] // past the block header and incident offset
	binary.BigEndian.PutUint64(stats[0:8], 999)
	binary.BigEndian.PutUint32(stats[48:52], math.MaxUint32)

	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	meta := quickMeta("liar")
	if _, err := svc.Hello(meta); err != nil {
		t.Fatal(err)
	}
	chunks := chunked(data, 4096)
	for i, c := range chunks {
		if _, err := svc.Accept(meta.Name, uint32(i), c); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	err := svc.Finish(meta.Name, uint64(len(chunks)), int64(len(data)))
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "cluster hosts") {
		t.Fatalf("finish = %v, want a validation failure naming the cluster host claim", err)
	}
	if st, _ := svc.Status(meta.Name); st.State != serve.StateShed || st.Reason != string(serve.ShedCorrupt) {
		t.Fatalf("stream %s (%s), want shed as corrupt", st.State, st.Reason)
	}
	checkLedger(t, svc)
	if got := svc.Counts().Shed[serve.ShedCorrupt]; got != uint64(len(chunks)) {
		t.Fatalf("corrupt shed booked %d chunks, want %d", got, len(chunks))
	}
}

// regressingTraceBytes is a two-chunk IDT2 stream whose second chunk
// starts before the first chunk's last record: DefaultChunkRecords
// records 1 ms apart from 10 ms, then one written at 5 s whose chunk
// base is patched to 300 ms (a uvarint of the same length), with the
// footer's last-record time patched to match, so the footer agrees with
// the records and only their order is wrong.
func regressingTraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, "regress", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trace.DefaultChunkRecords; i++ {
		p := &packet.Packet{Seq: uint64(i + 1), Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(203, 0, 1, 1)}
		if err := w.Append(time.Duration(10+i)*time.Millisecond, p); err != nil {
			t.Fatal(err)
		}
	}
	last := &packet.Packet{Seq: trace.DefaultChunkRecords + 1, Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(203, 0, 1, 1)}
	if err := w.Append(5*time.Second, last); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	chunk0 := 4 + 4 + 2 + len("regress") + 8 // the header's length
	chunk1 := chunk0 + 5 + int(binary.BigEndian.Uint32(data[chunk0+1:]))
	base := data[chunk1+5+1:] // past the block header and the 1-byte record count
	if old, n := binary.Uvarint(base); old != uint64(5*time.Second) || binary.PutUvarint(base, uint64(300*time.Millisecond)) != n {
		t.Fatalf("chunk 1 base %v does not take 300ms in place", time.Duration(old))
	}
	footer := binary.BigEndian.Uint64(data[len(data)-12:])
	binary.BigEndian.PutUint64(data[footer+5+8+40:], uint64(300*time.Millisecond)) // the footer's last record
	return data
}

func TestFinishShedsTimeRegressingStreamAsCorrupt(t *testing.T) {
	// A spool whose second chunk starts before the first chunk's last
	// record fails the reader's time-order check at Finish and is shed
	// as corrupt, never queued for a replay that would fail midway.
	data := regressingTraceBytes(t)
	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	meta := quickMeta("regress")
	chunks := chunked(data, 4096)
	err := upload(svc, meta, chunks)
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "chunk 1 starts at 300ms, before the previous chunk's last record at 4.105s") {
		t.Fatalf("finish = %v, want a validation failure naming the time regression", err)
	}
	if st, _ := svc.Status(meta.Name); st.State != serve.StateShed || st.Reason != string(serve.ShedCorrupt) {
		t.Fatalf("stream %s (%s), want shed as corrupt", st.State, st.Reason)
	}
	checkLedger(t, svc)
	if got := svc.Counts().Shed[serve.ShedCorrupt]; got != uint64(len(chunks)) {
		t.Fatalf("corrupt shed booked %d chunks, want %d", got, len(chunks))
	}
}

func TestFinishShedsFooterlessSpoolAsCorrupt(t *testing.T) {
	// A spool of only the header and the chunks (no incident block,
	// footer or trailer) has no ground truth to score against: Finish
	// sheds it as corrupt instead of delivering it to an evaluation
	// that cannot open it.
	data := buildTraceBytes(t, 7)
	footer := binary.BigEndian.Uint64(data[len(data)-12:])
	incidents := binary.BigEndian.Uint64(data[footer+5:]) // the footer's first field
	data = data[:incidents]

	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	meta := quickMeta("footerless")
	chunks := chunked(data, 4096)
	err := upload(svc, meta, chunks)
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "no footer") {
		t.Fatalf("finish = %v, want a validation failure for the missing footer", err)
	}
	if st, _ := svc.Status(meta.Name); st.State != serve.StateShed || st.Reason != string(serve.ShedCorrupt) {
		t.Fatalf("stream %s (%s), want shed as corrupt", st.State, st.Reason)
	}
	checkLedger(t, svc)
	if got := svc.Counts().Shed[serve.ShedCorrupt]; got != uint64(len(chunks)) {
		t.Fatalf("corrupt shed booked %d chunks, want %d", got, len(chunks))
	}
}

func TestHelloRejectsWhatPlanningRefuses(t *testing.T) {
	// Metadata the campaign planner refuses fails at Hello as a protocol
	// error, before a stream directory exists or a chunk is spooled.
	dir := t.TempDir()
	svc := openService(t, dir, nil)
	defer svc.Close()
	for _, c := range []struct {
		name string
		mut  func(*serve.StreamMeta)
	}{
		{"unknown-product", func(m *serve.StreamMeta) { m.Products = []string{"NoSuchIDS"} }},
		{"product-twice", func(m *serve.StreamMeta) { m.Products = []string{"TrueSecure", "TrueSecure"} }},
		{"sensitivity-above", func(m *serve.StreamMeta) { m.Sensitivity = 1.5 }},
		{"sensitivity-below", func(m *serve.StreamMeta) { m.Sensitivity = -0.5 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			meta := quickMeta(c.name)
			c.mut(&meta)
			_, err := svc.Hello(meta)
			var pe *serve.ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("hello = %v, want a ProtocolError", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "streams", c.name)); !os.IsNotExist(err) {
				t.Fatalf("stream directory exists after a refused hello (%v)", err)
			}
			if _, ok := svc.Status(c.name); ok {
				t.Fatal("refused hello opened a stream")
			}
			checkLedger(t, svc)
		})
	}
}

func BenchmarkServeIngest(b *testing.B) {
	// The durable-ack hot path: one spool append + fsync, one ack-line
	// append + fsync per chunk. MB/s here is what a single lock-step
	// uploader sees; BENCH_serve.json pins it against regression.
	//
	// The service dir goes on tmpfs when the host has one: on a disk,
	// fsync latency swamps the code path under measurement and varies
	// 2-3x run to run with unrelated IO, which no regression gate can
	// hold. tmpfs keeps the full durable call sequence (two fsyncs per
	// chunk) while making the number about this package's code.
	dir := b.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		shm, err := os.MkdirTemp("/dev/shm", "serve-bench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(shm) })
			dir = shm
		}
	}
	svc := openService(b, dir, func(c *serve.Config) {
		c.MaxSpoolBytes = 1 << 40
	})
	defer svc.Close()
	if _, err := svc.Hello(serve.StreamMeta{Name: "bench", Evals: true, Quick: true}); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Accept("bench", uint32(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := svc.Counts().Check(); err != nil {
		b.Fatal(err)
	}
}
