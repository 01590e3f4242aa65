// Command idsbench is the repository's end-to-end benchmark. It runs
// the four units of account an evaluation is judged by, checks that
// their outputs are correct, and prints every metric by name with its
// unit:
//
//	quick  idseval -quick: EvaluateAll over the product field, then
//	       requirement weights, ranking and report rendering
//	full   the same op at full experiment sizes (the paper's evaluation)
//	scale  the sharded at-scale run (8 segments x 40 hosts, 5 s, 2 shards)
//	serve  idsevald streams: Hello → 64 KiB chunks → Finish → scorecard,
//	       over two client connections to the real daemon
//
// Usage:
//
//	idsbench [-workload quick|full|scale|serve|all] [-seed 11] [-seconds 15]
//	         [-trace 0|1] [-trace-dir DIR] [-json FILE]
//	idsbench -compare A.json B.json
//
// Every workload is a closed loop: the next op starts when the last one
// returns. Op i uses seed+i, so no cache keyed on the seed can fake a
// gain. Each workload runs in fresh child processes (re-executions of
// this binary), so RSS, GC state and process-wide caches start cold.
//
// -trace 0 measures the end-to-end metrics. -trace 1 repeats the
// workload with spans, a CPU profile and layer probes, prints the
// per-layer metrics, and writes DIR/<workload>.trace.json (Chrome trace
// format; Perfetto loads it). The last line of standard output is one
// JSON object per workload: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 1 if any correctness check failed.
//
// -json appends each workload's result to FILE as a JSON line;
// -compare reads two such files and rates every (workload, metric)
// against the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloads in the order -workload all runs them.
var workloads = []string{"quick", "full", "scale", "serve"}

// goldenSeed is the seed of every warm-up op, whose rendered report is
// checked against golden.json whatever -seed says.
const goldenSeed = 11

// plan is everything one workload run needs. The parent process builds
// it from the flags and hands it to each child as JSON; tests build
// smaller ones directly.
type plan struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Root is the repository root; WorkDir is this run's scratch
	// directory under it, removed when the run ends.
	Root     string `json:"root"`
	WorkDir  string `json:"work_dir"`
	TraceDir string `json:"trace_dir"`
	Golden   string `json:"golden"`
	// SetupReps is how many cold starts setup_s is the median of.
	SetupReps int `json:"setup_reps"`
	// MaxOps stops the timed loop early (0: the clock alone stops it).
	MaxOps int `json:"max_ops"`
	// Products keeps the first N products of the field (0: all).
	Products int       `json:"products"`
	Scale    scaleSize `json:"scale"`
	Serve    serveSize `json:"serve"`
}

// scaleShards is the at-scale run's executor count; its report is
// byte-identical for any count.
const scaleShards = 2

type scaleSize struct {
	Segments int           `json:"segments"`
	Hosts    int           `json:"hosts"`
	Duration time.Duration `json:"duration"`
}

// poolPps is the serve pool traces' background packet rate.
const poolPps = 400

type serveSize struct {
	// PoolTraces IDT2 traces of TraceSeconds virtual seconds.
	PoolTraces   int     `json:"pool_traces"`
	TraceSeconds float64 `json:"trace_seconds"`
	// Conns client connections, each a closed loop of streams.
	Conns int `json:"conns"`
}

// poolTrace generates serve pool trace i. The other workloads' trace
// probes run on pool trace 0.
func (p plan) poolTrace(i int) ([]byte, error) {
	return genTrace(p.Seed+int64(i), time.Duration(p.Serve.TraceSeconds*float64(time.Second)), poolPps)
}

// defaultPlan sizes a workload as BENCHMARK.json describes it. Load
// comes from one process with at most nproc workers or connections.
func defaultPlan(workload string) plan {
	return plan{
		Workload:  workload,
		Seed:      goldenSeed,
		Seconds:   15,
		SetupReps: 5,
		Scale:     scaleSize{Segments: 8, Hosts: 40, Duration: 5 * time.Second},
		Serve:     serveSize{PoolTraces: 4, TraceSeconds: 30, Conns: min(2, runtime.NumCPU())},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "quick, full, scale, serve, or all")
	seed := fs.Int64("seed", goldenSeed, "base seed: op i uses seed+i")
	seconds := fs.Float64("seconds", 15, "how long each workload's timed loop runs")
	traceRun := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where -trace 1 writes <workload>.trace.json (default .bench_build/traces)")
	jsonOut := fs.String("json", "", "append each workload's result as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -json files: idsbench -compare A.json B.json")
	child := fs.String("child", "", "internal: run one workload process from this JSON plan")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, os.Stdin, stdout, stderr)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "idsbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "idsbench: -compare takes two result files")
			return 2
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceRun != 0 && *traceRun != 1 {
		fmt.Fprintln(stderr, "idsbench: -trace must be 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(stderr, "idsbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "idsbench: -seconds must be positive")
		return 2
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(root, ".bench_build", "traces")
	}

	code := 0
	for _, name := range names {
		p := defaultPlan(name)
		p.Seed, p.Seconds, p.Traced = *seed, *seconds, *traceRun == 1
		p.Root, p.TraceDir = root, *traceDir
		p.Golden = filepath.Join(root, "cmd", "idsbench", "golden.json")
		res, err := runWorkload(p, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "idsbench: %s: %v\n", name, err)
			return 2
		}
		logResult(stderr, name, res)
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, record{Workload: name, Seed: *seed, Traced: p.Traced, Result: res}); err != nil {
				fmt.Fprintln(stderr, "idsbench:", err)
				return 2
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "idsbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository root: the nearest directory at or
// above the working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod declaring module repro")
		}
		dir = parent
	}
}

// runWorkload runs one workload to its Result. Each setup repetition is
// a fresh child process; the last one goes on to the timed loop. For
// quick, full and scale the process under test is the child, and
// setup_s is timed here from spawn to its ready line; for serve it is
// idsevald, which the child starts and times itself.
func runWorkload(p plan, stderr io.Writer) (Result, error) {
	build := filepath.Join(p.Root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return Result{}, err
	}
	work, err := os.MkdirTemp(build, "run-"+p.Workload+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(work)
	p.WorkDir = work
	if p.Traced {
		p.SetupReps = 1 // setup_s is an end-to-end metric
	}
	reps := p.SetupReps
	if p.Workload == "serve" {
		reps = 1
	}

	var setup []float64
	attempted, failed := 0, 0
	var problems []string
	var rep childReport
	for i := 1; i <= reps; i++ {
		start := time.Now()
		c, err := startChild(p, stderr)
		if err != nil {
			return Result{}, err
		}
		ready, err := c.ready()
		if err != nil {
			c.kill()
			return Result{}, err
		}
		setup = append(setup, time.Since(start).Seconds())
		attempted += ready.Attempted
		failed += ready.Failed
		problems = append(problems, ready.Problems...)
		if i < reps {
			if err := c.stop(); err != nil {
				return Result{}, err
			}
			continue
		}
		if rep, err = c.result(); err != nil {
			c.kill()
			return Result{}, err
		}
	}
	if len(rep.Setup) > 0 {
		setup = rep.Setup
	}
	attempted += rep.Attempted
	failed += rep.Failed
	problems = append(problems, rep.Problems...)
	raw := rep.Metrics
	if raw == nil {
		raw = map[string]float64{}
	}
	if !p.Traced {
		raw["setup_s"] = median(setup)
	}
	defs := endToEnd
	if p.Traced {
		defs = perLayer
	}
	metrics, err := fillMetrics(defs, raw)
	if err != nil {
		return Result{}, err
	}
	for _, pr := range problems {
		fmt.Fprintf(stderr, "idsbench: %s: FAIL %s\n", p.Workload, pr)
	}
	return Result{
		Correct:   len(problems) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// childReport is what a child process sends back: its ready line after
// setup (warm-up ops only) and its result line after the timed loop.
type childReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Setup holds the child's own setup_s samples (serve).
	Setup   []float64          `json:"setup,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// childProc is one running workload process. It speaks a line protocol
// on stdout — "ready <json>", then "result <json>" — and waits on stdin
// for "run" before its timed loop; stdin closing instead tells it to
// exit after setup.
type childProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines *bufio.Scanner
}

func startChild(p plan, stderr io.Writer) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pj, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", string(pj))
	cmd.Dir = p.Root
	cmd.Stderr = stderr
	// A child must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return &childProc{cmd: cmd, in: in, lines: sc}, nil
}

// expect reads the next protocol line, which must carry tag.
func (c *childProc) expect(tag string) (childReport, error) {
	var r childReport
	for c.lines.Scan() {
		rest, ok := strings.CutPrefix(c.lines.Text(), tag+" ")
		if !ok {
			continue // anything else on stdout is the child's log
		}
		if err := json.Unmarshal([]byte(rest), &r); err != nil {
			return r, fmt.Errorf("child %s line: %w", tag, err)
		}
		return r, nil
	}
	if err := c.lines.Err(); err != nil {
		return r, err
	}
	return r, fmt.Errorf("child exited before its %s line", tag)
}

func (c *childProc) ready() (childReport, error) { return c.expect("ready") }

// result starts the timed loop and waits for the child's report.
func (c *childProc) result() (childReport, error) {
	if _, err := io.WriteString(c.in, "run\n"); err != nil {
		return childReport{}, err
	}
	r, err := c.expect("result")
	if err != nil {
		return r, err
	}
	return r, c.wait()
}

// stop ends a child after setup.
func (c *childProc) stop() error {
	c.in.Close()
	return c.wait()
}

func (c *childProc) wait() error {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

func (c *childProc) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// runChild is a workload process: set up, report ready, and run the
// timed loop when told to.
func runChild(planJSON string, stdin io.Reader, stdout, stderr io.Writer) int {
	var p plan
	if err := json.Unmarshal([]byte(planJSON), &p); err != nil {
		fmt.Fprintln(stderr, "idsbench child:", err)
		return 2
	}
	var err error
	if p.Workload == "serve" {
		err = serveChild(p, stdin, stdout)
	} else {
		err = evalChild(p, stdin, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "idsbench child %s: %v\n", p.Workload, err)
		return 1
	}
	return 0
}

// sendLine writes one protocol line.
func sendLine(w io.Writer, tag string, r childReport) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s %s\n", tag, b)
	return err
}

// awaitRun blocks until the parent says "run" (true) or closes stdin
// (false).
func awaitRun(stdin io.Reader) bool {
	line, err := bufio.NewReader(stdin).ReadString('\n')
	return err == nil && strings.TrimSpace(line) == "run"
}

// logResult prints a workload's metrics to stderr for people.
func logResult(w io.Writer, workload string, r Result) {
	fmt.Fprintf(w, "idsbench: %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// record is one line of a -json file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   Result `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
