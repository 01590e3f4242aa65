package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// chunkSize is the upload chunk: one ISF2 data frame, one durable ack.
const chunkSize = 64 << 10

// streamMeta parameterizes every stream's evaluation.
func streamMeta(name string) serve.StreamMeta {
	return serve.StreamMeta{
		Name: name, Seed: 7, Quick: true,
		Products: []string{"TrueSecure", "StreamHunter"}, Sensitivity: 0.6,
	}
}

// serveRun drives the serve workload: a pool of generated traces
// streamed to a real idsevald over Conns client connections.
type serveRun struct {
	p      plan
	traces [][]byte   // the pool, whole
	chunks [][][]byte // the pool, split into upload chunks

	mu   sync.Mutex
	refs [][]byte // first scorecard seen per pool trace
}

// streamOut is one stream's timings and outcome.
type streamOut struct {
	lat       float64 // Hello sent → scorecard received
	ref       float64 // host reference time around the stream (see hostRef)
	acks      []float64
	upload    float64 // Hello sent → Finish acked
	evalS     float64 // Finish acked → scorecard received
	queueWait float64 // Finish acked → first Result frame
	bytes     int64
	chunks    int
}

func serveChild(p plan, stdin io.Reader, stdout io.Writer) error {
	s := &serveRun{p: p, refs: make([][]byte, p.Serve.PoolTraces)}
	// Inputs first, untimed: the trace pool and the daemon binary.
	for i := 0; i < p.Serve.PoolTraces; i++ {
		data, err := p.poolTrace(i)
		if err != nil {
			return err
		}
		s.traces = append(s.traces, data)
		var ch [][]byte
		for len(data) > 0 {
			n := min(chunkSize, len(data))
			ch = append(ch, data[:n])
			data = data[n:]
		}
		s.chunks = append(s.chunks, ch)
	}
	bin := filepath.Join(p.WorkDir, "idsevald")
	build := exec.Command("go", "build", "-o", bin, "./cmd/idsevald")
	build.Dir, build.Stdout, build.Stderr = p.Root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building idsevald: %w", err)
	}

	// setup_s: daemon spawn → listening → one warm-up stream, on a fresh
	// directory each time; only the last daemon stays up.
	var rep childReport
	var d *daemon
	for i := 1; i <= p.SetupReps; i++ {
		start := time.Now()
		var err error
		if d, err = startDaemon(bin, filepath.Join(p.WorkDir, fmt.Sprintf("daemon%d", i))); err != nil {
			return err
		}
		rep.Attempted++
		out, err := s.stream(d, 0, fmt.Sprintf("warmup%d", i), nil, 0, 0)
		if out != nil {
			d.sent += out.chunks
		}
		if err != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("warm-up stream: %v", err))
		}
		rep.Setup = append(rep.Setup, time.Since(start).Seconds())
		if i < p.SetupReps {
			rep.Problems = append(rep.Problems, d.drain()...)
		}
	}
	if err := sendLine(stdout, "ready", childReport{}); err != nil {
		d.kill()
		return err
	}
	if !awaitRun(stdin) {
		d.kill()
		return nil
	}
	err := s.measure(d, &rep)
	rep.Problems = append(rep.Problems, d.drain()...)
	if err != nil {
		return err
	}
	return sendLine(stdout, "result", rep)
}

// measure runs the timed loop, filling rep with the end-to-end metrics
// or — traced — repeating the loop with spans and a daemon CPU profile
// and filling in the per-layer ones.
func (s *serveRun) measure(d *daemon, rep *childReport) error {
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	mem0, err := d.memStats()
	if err != nil {
		return err
	}
	rss, err := startRSSSampler(d.pid)
	if err != nil {
		return err
	}
	plain := s.loop(d, nil, 0)
	peak, err := rss.finish()
	if err != nil {
		return err
	}
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	mem1, err := d.memStats()
	if err != nil {
		return err
	}
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	rep.Problems = append(rep.Problems, plain.problems...)
	n := float64(max(1, plain.attempted))
	// Streams overlap, so daemon CPU is per stream on average, and is
	// divided by the run's median reference time.
	cpuPerOp := (cpu1 - cpu0).Seconds() / n
	ref := median(plain.col(func(o *streamOut) float64 { return o.ref }))
	if !s.p.Traced {
		rep.Metrics = map[string]float64{
			"op_p50_ref":      median(plain.perRef()),
			"cpu_ref_per_op":  cpuPerOp / ref,
			"alloc_mb_per_op": float64(mem1["TotalAlloc"]-mem0["TotalAlloc"]) / 1e6 / n,
			"peak_rss_mb":     peak,
		}
		return nil
	}

	t := newTracer()
	met0, err := d.metrics()
	if err != nil {
		return err
	}
	prof := filepath.Join(s.p.WorkDir, "serve.cpu.pprof")
	profDone := make(chan error, 1)
	go func() { profDone <- d.cpuProfile(prof, s.p.Seconds) }()
	traced := s.loop(d, t, plain.attempted)
	if err := <-profDone; err != nil {
		return err
	}
	met1, err := d.metrics()
	if err != nil {
		return err
	}
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	rep.Problems = append(rep.Problems, traced.problems...)

	m := zeroLayers()
	shares, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for k, v := range shares {
		m[k] = v
	}
	tn := float64(max(1, traced.attempted))
	m["op_p50_s"] = median(plain.col(func(o *streamOut) float64 { return o.lat }))
	m["cpu_s_per_op"] = cpuPerOp
	m["host.ref_ms"] = ref * 1e3
	m["trace_overhead_frac"] = median(traced.perRef())/median(plain.perRef()) - 1
	m["runtime.mallocs_per_op"] = float64(mem1["Mallocs"]-mem0["Mallocs"]) / n
	m["serve.ack_ns_p50"] = met1[`serve_ack_ns_q{quantile="0.5"}`]
	m["serve.ack_ns_p99"] = met1[`serve_ack_ns_q{quantile="0.99"}`]
	// Client-side distributions take both loops' streams: the traced
	// loop alone has too few for a p90 with ten samples beyond it, and
	// client spans barely move a stream's timing (trace_overhead_frac).
	var acks, uploads, evals, waits, lats []float64
	var bytesUp int64
	var uploadS float64
	for _, o := range append(plain.outs, traced.outs...) {
		for _, a := range o.acks {
			acks = append(acks, a*1e3)
		}
		uploads = append(uploads, o.upload)
		evals = append(evals, o.evalS)
		waits = append(waits, o.queueWait)
		lats = append(lats, o.lat)
		bytesUp += o.bytes
		uploadS += o.upload
	}
	m["serve.client_ack_ms_p50"], _ = percentile(acks, 50)
	m["serve.client_ack_ms_p99"], _ = tail(acks, 99)
	if m["serve.client_ack_ms_p50"] > 0 {
		m["serve.wire_us_p50"] = m["serve.client_ack_ms_p50"]*1e3 - m["serve.ack_ns_p50"]/1e3
	}
	m["serve.upload_s_p50"] = median(uploads)
	m["serve.eval_s_p50"] = median(evals)
	m["serve.queue_wait_s_p90"], _ = tail(waits, 90)
	m["serve.stream_p90_s"], _ = tail(lats, 90)
	if uploadS > 0 {
		m["serve.ingest_mb_per_s"] = float64(bytesUp) / 1e6 / uploadS
	}
	m["campaign.checkpoint_write_ms_p50"] = met1[`campaign_checkpoint_write_ns_q{quantile="0.5"}`] / 1e6
	m["campaign.experiments_per_op"] = (met1["campaign_completed"] - met0["campaign_completed"]) / tn

	probes, err := probeLayers(s.traces, s.p.WorkDir)
	if err != nil {
		return err
	}
	for k, v := range probes {
		m[k] = v
	}
	if err := t.write(s.p); err != nil {
		return err
	}
	rep.Metrics = m
	return nil
}

// serveLoop is one timed phase's streams.
type serveLoop struct {
	attempted, failed int
	problems          []string
	outs              []*streamOut
}

// col gathers one number from every completed stream.
func (l *serveLoop) col(f func(*streamOut) float64) []float64 {
	out := make([]float64, len(l.outs))
	for i, o := range l.outs {
		out[i] = f(o)
	}
	return out
}

// perRef is each stream's latency in reference times.
func (l *serveLoop) perRef() []float64 {
	return l.col(func(o *streamOut) float64 { return o.lat / o.ref })
}

// loop runs Conns closed-loop clients for the phase's seconds. Stream
// k streams pool trace k mod PoolTraces under a unique name. Each client
// times the host reference between its streams; the other client's
// stream keeps the daemon busy meanwhile, the same way in every run.
func (s *serveRun) loop(d *daemon, t *tracer, first int) *serveLoop {
	l := &serveLoop{}
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(first))
	deadline := time.Now().Add(time.Duration(s.p.Seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for lane := 0; lane < s.p.Serve.Conns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			href := newHostRef()
			pre := href.sample()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if s.p.MaxOps > 0 && k-first >= s.p.MaxOps {
					return
				}
				out, err := s.stream(d, k%len(s.chunks), fmt.Sprintf("s%06d", k), t, k+1, lane)
				post := href.sample()
				if out != nil {
					out.ref = (pre + post) / 2
				}
				pre = post
				mu.Lock()
				l.attempted++
				if err != nil {
					l.failed++
					l.problems = append(l.problems, fmt.Sprintf("stream %d: %v", k, err))
				} else {
					l.outs = append(l.outs, out)
				}
				if out != nil {
					d.sent += out.chunks
				}
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return l
}

// stream uploads pool trace idx as a new stream and awaits its
// scorecard, which must match the first scorecard seen for that trace.
// A stream that fails after chunks were acked still returns its output,
// so the ledger check can count them.
func (s *serveRun) stream(d *daemon, idx int, name string, t *tracer, opID, lane int) (*streamOut, error) {
	c, err := serve.Dial(d.tcp)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := &streamOut{}
	var card []byte
	start := time.Now()
	err = t.do("stream", 0, opID, lane, func(id int) error {
		if err := t.do("hello", id, opID, lane, func(int) error { return c.Hello(streamMeta(name)) }); err != nil {
			return err
		}
		if c.Next != 0 || c.State != serve.StateOpen {
			return fmt.Errorf("new stream %s opened at chunk %d in state %q", name, c.Next, c.State)
		}
		for _, ch := range s.chunks[idx] {
			t0 := time.Now()
			if err := t.do("chunk", id, opID, lane, func(int) error { return c.SendChunk(ch) }); err != nil {
				return err
			}
			out.acks = append(out.acks, time.Since(t0).Seconds())
			out.bytes += int64(len(ch))
			out.chunks++
		}
		if err := t.do("finish", id, opID, lane, func(int) error {
			return c.Finish(uint64(out.chunks), out.bytes)
		}); err != nil {
			return err
		}
		finished := time.Now()
		out.upload = finished.Sub(start).Seconds()
		var firstResult time.Time
		err := t.do("await", id, opID, lane, func(int) error {
			var err error
			card, err = c.Await(2*time.Minute, func(kind serve.EventKind, _ []byte) {
				if kind == serve.EventResult && firstResult.IsZero() {
					firstResult = time.Now()
				}
			})
			return err
		})
		if err != nil {
			return err
		}
		out.evalS = time.Since(finished).Seconds()
		if !firstResult.IsZero() {
			out.queueWait = firstResult.Sub(finished).Seconds()
		}
		return nil
	})
	out.lat = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	// The first line names the stream; the rest depends only on the
	// trace and the evaluation parameters.
	header, body, _ := bytes.Cut(card, []byte("\n"))
	if !bytes.HasPrefix(header, []byte(fmt.Sprintf("campaign %q ", name))) {
		return out, fmt.Errorf("scorecard header %q does not name stream %s", header, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs[idx] == nil {
		s.refs[idx] = body
	} else if !bytes.Equal(body, s.refs[idx]) {
		return out, fmt.Errorf("scorecard for pool trace %d differs from its first scorecard", idx)
	}
	return out, nil
}

// daemon is one idsevald process under test.
type daemon struct {
	cmd       *exec.Cmd
	pid       int
	tcp, http string
	log       *daemonLog
	sent      int // chunks acked by this daemon, for the ledger check
}

// startDaemon launches idsevald on a fresh directory and waits until
// both its listeners are bound.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-dir", dir, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	log := &daemonLog{addrs: make(chan [2]string, 1)}
	cmd.Stderr = log // exec copies it continuously; the daemon never blocks on stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, log: log}
	select {
	case a := <-log.addrs:
		d.tcp, d.http = a[0], "http://"+a[1]
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("idsevald did not report its listeners within 30s:\n%s", log.String())
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// drain SIGTERMs the daemon and checks what it must do on the way out:
// exit 0, and print a ledger in which every chunk it acked was
// delivered, none is pending, and none was shed.
func (d *daemon) drain() []string {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return []string{fmt.Sprintf("SIGTERM idsevald: %v", err)}
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return []string{fmt.Sprintf("idsevald drain: %v\n%s", err, d.log.String())}
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return []string{"idsevald did not drain within 60s"}
	}
	var counts serve.Counts
	found := false
	for _, line := range strings.Split(d.log.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "idsevald: ledger "); ok {
			if err := json.Unmarshal([]byte(rest), &counts); err != nil {
				return []string{fmt.Sprintf("idsevald ledger %q: %v", rest, err)}
			}
			found = true
		}
	}
	switch {
	case !found:
		return []string{"idsevald printed no ledger line"}
	case counts.Check() != nil:
		return []string{counts.Check().Error()}
	case counts.Delivered != uint64(d.sent) || counts.Pending != 0 || counts.ShedTotal() != 0:
		return []string{fmt.Sprintf("idsevald ledger %+v, want %d delivered, 0 pending, 0 shed", counts, d.sent)}
	}
	return nil
}

// get fetches one daemon HTTP endpoint.
func (d *daemon) get(path string, timeout time.Duration) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(d.http + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// memStats reads the daemon's runtime.MemStats totals from the heap
// profile's text form ("# TotalAlloc = N" lines).
func (d *daemon) memStats() (map[string]uint64, error) {
	body, err := d.get("/debug/pprof/heap?debug=1", 10*time.Second)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || (name != "TotalAlloc" && name != "Mallocs") {
			continue
		}
		if out[name], err = strconv.ParseUint(val, 10, 64); err != nil {
			return nil, fmt.Errorf("heap profile %s: %w", name, err)
		}
	}
	if len(out) != 2 {
		return nil, fmt.Errorf("heap profile lacks TotalAlloc/Mallocs")
	}
	return out, sc.Err()
}

// metrics scrapes /metrics into sample name (with labels) → value.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := d.get("/metrics", 10*time.Second)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// cpuProfile fetches a CPU profile of the daemon covering the next
// seconds (rounded up to whole seconds, pprof's unit) into path.
func (d *daemon) cpuProfile(path string, seconds float64) error {
	secs := int(math.Ceil(seconds))
	body, err := d.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs), time.Duration(secs+30)*time.Second)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// daemonLog collects a daemon's stderr and reports its two listen
// addresses once both lines have arrived.
type daemonLog struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	scanned   int
	tcp, http string
	addrs     chan [2]string
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	data := l.buf.Bytes()
	for {
		nl := bytes.IndexByte(data[l.scanned:], '\n')
		if nl < 0 {
			break
		}
		line := string(data[l.scanned : l.scanned+nl])
		l.scanned += nl + 1
		if a, ok := strings.CutPrefix(line, "idsevald: tcp listening on "); ok {
			l.tcp = a
		} else if a, ok := strings.CutPrefix(line, "idsevald: http listening on "); ok {
			l.http = a
		} else {
			continue
		}
		if l.tcp != "" && l.http != "" {
			l.addrs <- [2]string{l.tcp, l.http}
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
