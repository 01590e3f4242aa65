// Command benchgate compares a fresh hot-path benchmark run against the
// committed baseline (BENCH_hotpath.json) and fails if any throughput
// benchmark regressed beyond the allowed drop. It reads the `go test
// -json` stream format both files are captured in, so the gate needs no
// extra tooling beyond the repository's own benchmark targets.
//
// Benchmarks reporting a throughput unit gate: MB/s (the scan hot path)
// and events/sec (the sharded simulation kernel, captured in
// BENCH_sim.json). ns/op-only benchmarks such as matcher construction
// are reported for the record but do not fail the build — construction
// cost is amortized by the process-wide matcher cache and is inherently
// noisier.
//
// With -gate-ns REGEX, matching ns/op-only benchmarks DO gate: current
// ns/op must stay within baseline*(1+max-ns-grow-pct/100)+ns-slack-ns.
// The absolute slack term exists because the telemetry disabled path
// (BENCH_obs.json) sits at fractions of a nanosecond, where a pure
// percentage bound is all noise. -require-zero-allocs REGEX separately
// asserts that every matching benchmark in the CURRENT run reports
// exactly 0 allocs/op — the contract that lets nil-receiver
// instrumentation live permanently in simulation hot paths, and that
// keeps a warm scan memo's prescan off the allocator. With an empty
// -baseline, only such checks of the current run gate.
//
// With -gate-allocs REGEX, matching benchmarks gate on allocs/op growth
// instead of throughput: current allocs/op must stay within
// baseline*(1+max-allocs-grow-pct/100). This is the right dimension for
// syscall-bound paths (idsevald's fsync-per-chunk ingest,
// BENCH_serve.json) whose MB/s swings several-fold with host IO and CPU
// contention while their allocation profile is deterministic — the
// regression the gate is after (an accidental copy or buffer per chunk)
// shows up in allocs/op exactly; throughput is still printed for the
// record.
//
// With -speedup-num/-speedup-den/-min-speedup the gate additionally
// checks parallel scaling: the events/sec ratio between two benchmarks
// in the CURRENT run (e.g. BenchmarkShardedScaleShards4 over
// BenchmarkShardedScaleShards1) must reach the floor. The check arms
// only on hosts with at least 4 CPUs — on smaller machines parallel
// executors cannot beat the serial path, so the ratio is reported and
// skipped rather than failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type benchResult struct {
	name      string
	mbps      float64 // 0 if the benchmark reports no MB/s
	eps       float64 // events/sec custom metric; 0 if absent
	nsOp      float64
	allocs    float64 // allocs/op; meaningful only when hasAllocs
	hasAllocs bool    // run captured with -benchmem
}

// cpuSuffix strips the -N GOMAXPROCS suffix so baselines survive a CPU
// count change on the measuring host.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchFile extracts benchmark results from a `go test -json` file.
// test2json emits output in arbitrary chunks (a benchmark's name and its
// measurements usually arrive as separate events), so the output stream
// is reassembled per package before line parsing.
func parseBenchFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	streams := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action  string
			Package string
			Output  string
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" {
			continue
		}
		b := streams[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			streams[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]benchResult)
	for _, b := range streams {
		for _, line := range strings.Split(b.String(), "\n") {
			if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 4 {
				continue
			}
			r := benchResult{name: cpuSuffix.ReplaceAllString(fields[0], "")}
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				switch fields[i+1] {
				case "ns/op":
					r.nsOp = v
				case "MB/s":
					r.mbps = v
				case "events/sec":
					r.eps = v
				case "allocs/op":
					r.allocs = v
					r.hasAllocs = true
				}
			}
			out[r.name] = r
		}
	}
	return out, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_hotpath.json", "committed baseline benchmark JSON; empty gates the current run alone")
	currentPath := flag.String("current", "", "fresh benchmark JSON to gate")
	maxDrop := flag.Float64("max-drop-pct", 15, "maximum allowed throughput (MB/s or events/sec) drop, percent")
	speedupNum := flag.String("speedup-num", "", "benchmark whose events/sec forms the speedup numerator (current run)")
	speedupDen := flag.String("speedup-den", "", "benchmark whose events/sec forms the speedup denominator (current run)")
	minSpeedup := flag.Float64("min-speedup", 2.5, "minimum numerator/denominator events/sec ratio; armed only with >= 4 CPUs")
	gateNs := flag.String("gate-ns", "", "regexp of ns/op-only benchmarks to gate on latency growth")
	maxNsGrow := flag.Float64("max-ns-grow-pct", 100, "maximum allowed ns/op growth for -gate-ns benchmarks, percent")
	nsSlack := flag.Float64("ns-slack-ns", 2, "absolute ns/op slack added to the -gate-ns bound (sub-ns baselines are noise-dominated)")
	zeroAllocs := flag.String("require-zero-allocs", "", "regexp of benchmarks that must report 0 allocs/op in the current run")
	gateAllocs := flag.String("gate-allocs", "", "regexp of benchmarks to gate on allocs/op growth instead of throughput")
	maxAllocsGrow := flag.Float64("max-allocs-grow-pct", 10, "maximum allowed allocs/op growth for -gate-allocs benchmarks, percent")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}

	if *baselinePath == "" && *zeroAllocs == "" && *speedupNum == "" {
		fmt.Fprintln(os.Stderr, "benchgate: with no -baseline, give -require-zero-allocs or -speedup-num/-speedup-den")
		os.Exit(2)
	}
	cur, err := parseBenchFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: current: %v\n", err)
		os.Exit(2)
	}
	var base map[string]benchResult
	if *baselinePath != "" {
		if base, err = parseBenchFile(*baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
			os.Exit(2)
		}
		if len(base) == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: no benchmarks in baseline %s\n", *baselinePath)
			os.Exit(2)
		}
	}
	var gateNsRe *regexp.Regexp
	if *gateNs != "" {
		gateNsRe, err = regexp.Compile(*gateNs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: -gate-ns: %v\n", err)
			os.Exit(2)
		}
	}
	var gateAllocsRe *regexp.Regexp
	if *gateAllocs != "" {
		gateAllocsRe, err = regexp.Compile(*gateAllocs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: -gate-allocs: %v\n", err)
			os.Exit(2)
		}
	}

	failed := false
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	// Stable report order.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("MISSING  %-34s baseline %8.2f MB/s, absent from current run\n", name, b.mbps)
			failed = true
			continue
		}
		if gateAllocsRe != nil && gateAllocsRe.MatchString(name) {
			switch {
			case !b.hasAllocs || !c.hasAllocs:
				fmt.Printf("ALLOCS   %-34s allocs/op missing (capture both runs with -benchmem)\n", name)
				failed = true
			default:
				limit := b.allocs * (1 + *maxAllocsGrow/100)
				status := "ok"
				if c.allocs > limit {
					status = "REGRESSED"
					failed = true
				}
				fmt.Printf("%-8s %-34s %12g -> %12g allocs/op (limit %g; %.2f MB/s not gated)\n",
					status, name, b.allocs, c.allocs, limit, c.mbps)
			}
			continue
		}
		baseThru, curThru, unit := b.mbps, c.mbps, "MB/s"
		if b.mbps <= 0 && b.eps > 0 {
			baseThru, curThru, unit = b.eps, c.eps, "events/sec"
		}
		if baseThru <= 0 {
			if gateNsRe != nil && gateNsRe.MatchString(name) && b.nsOp > 0 {
				limit := b.nsOp*(1+*maxNsGrow/100) + *nsSlack
				status := "ok"
				if c.nsOp > limit {
					status = "REGRESSED"
					failed = true
				}
				fmt.Printf("%-8s %-34s %12.2f -> %12.2f ns/op (limit %.2f)\n", status, name, b.nsOp, c.nsOp, limit)
				continue
			}
			fmt.Printf("info     %-34s %10.0f ns/op (baseline %.0f) — not gated\n", name, c.nsOp, b.nsOp)
			continue
		}
		dropPct := (baseThru - curThru) / baseThru * 100
		status := "ok"
		if dropPct > *maxDrop {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-8s %-34s %12.2f -> %12.2f %s (%+.1f%%)\n", status, name, baseThru, curThru, unit, -dropPct)
	}
	if *speedupNum != "" || *speedupDen != "" {
		if !checkSpeedup(cur, *speedupNum, *speedupDen, *minSpeedup) {
			failed = true
		}
	}
	if *zeroAllocs != "" {
		if !checkZeroAllocs(cur, *zeroAllocs) {
			failed = true
		}
	}
	switch {
	case failed && base == nil:
		fmt.Fprintln(os.Stderr, "benchgate: the current run failed its checks")
		os.Exit(1)
	case failed:
		fmt.Fprintf(os.Stderr, "benchgate: throughput regressed more than %.0f%% (or benchmarks went missing) vs %s\n", *maxDrop, *baselinePath)
		os.Exit(1)
	case base == nil:
		fmt.Println("benchgate: the current run passes its checks")
	default:
		fmt.Printf("benchgate: all gated benchmarks within %.0f%% of baseline\n", *maxDrop)
	}
}

// checkZeroAllocs enforces the allocation-free contract: every current
// benchmark matching pattern must have been captured with -benchmem and
// report exactly 0 allocs/op. Matching nothing is itself a failure —
// an empty match would silently disarm the gate when benchmarks are
// renamed.
func checkZeroAllocs(cur map[string]benchResult, pattern string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: -require-zero-allocs: %v\n", err)
		return false
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: -require-zero-allocs %q matched no current benchmarks\n", pattern)
		return false
	}
	ok := true
	for _, name := range names {
		c := cur[name]
		switch {
		case !c.hasAllocs:
			fmt.Printf("ALLOCS   %-34s no allocs/op reported (run with -benchmem)\n", name)
			ok = false
		case c.allocs != 0:
			fmt.Printf("ALLOCS   %-34s %g allocs/op, must be 0\n", name, c.allocs)
			ok = false
		default:
			fmt.Printf("ok       %-34s 0 allocs/op\n", name)
		}
	}
	return ok
}

// checkSpeedup enforces the parallel-scaling floor: num's events/sec in
// the current run must be at least minRatio times den's. On hosts with
// fewer than 4 CPUs the executors cannot physically run in parallel, so
// the ratio is informational and never fails the gate.
func checkSpeedup(cur map[string]benchResult, numName, denName string, minRatio float64) bool {
	if numName == "" || denName == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -speedup-num and -speedup-den must be given together")
		return false
	}
	num, okN := cur[numName]
	den, okD := cur[denName]
	if !okN || !okD || num.eps <= 0 || den.eps <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: speedup check needs events/sec for both %s and %s in the current run\n", numName, denName)
		return false
	}
	ratio := num.eps / den.eps
	if runtime.NumCPU() < 4 {
		fmt.Printf("speedup  %s / %s = %.2fx — skipped (host has %d CPU(s); check needs >= 4)\n",
			numName, denName, ratio, runtime.NumCPU())
		return true
	}
	if ratio < minRatio {
		fmt.Printf("SLOW     %s / %s = %.2fx, below the %.2fx floor\n", numName, denName, ratio, minRatio)
		return false
	}
	fmt.Printf("speedup  %s / %s = %.2fx (floor %.2fx)\n", numName, denName, ratio, minRatio)
	return true
}
