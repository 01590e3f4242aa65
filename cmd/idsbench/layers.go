package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/fsio"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// This file holds the per-layer measurements every traced run takes
// from outside the program: CPU shares cut from a profile of the
// process under test, and probes that time one layer's public call on
// inputs the benchmark generates.

// gcFuncs are the runtime functions whose cumulative share is GC CPU:
// the mark workers, mark assists, and write-barrier buffer flushes.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.wbBufFlush"}

// cpuShares aggregates a CPU profile by repo module with the
// toolchain's pprof: flat samples in repro/internal/<module> become
// <module>.cpu_share, runtime.* becomes runtime.cpu_share, the rest
// other.cpu_share, and gcFuncs' cumulative shares runtime.gc_cpu_frac.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return parsePprofTop(out)
}

// parsePprofTop reads `pprof -top` text output (flat, flat%, sum%, cum,
// cum%, name per line).
func parsePprofTop(text []byte) (map[string]float64, error) {
	shares := map[string]float64{"runtime.cpu_share": 0, "other.cpu_share": 0, "runtime.gc_cpu_frac": 0}
	known := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		shares[m+".cpu_share"] = 0
		known[m] = true
	}
	isGC := make(map[string]bool, len(gcFuncs))
	for _, f := range gcFuncs {
		isGC[f] = true
	}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := parsePct(f[1])
		cum, err2 := parsePct(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof line %q: %v %v", sc.Text(), err1, err2)
		}
		name := f[5]
		if isGC[name] {
			shares["runtime.gc_cpu_frac"] += cum
		}
		switch mod := moduleOf(name); {
		case known[mod]:
			shares[mod+".cpu_share"] += flat
		case mod == "runtime":
			shares["runtime.cpu_share"] += flat
		default:
			shares["other.cpu_share"] += flat
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no table header")
	}
	return shares, sc.Err()
}

// moduleOf names the repo module a profiled function belongs to:
// "detect" for repro/internal/detect.(*Matcher).Scan, "runtime" for
// runtime.* and the package-less assembly stubs, "" otherwise.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || !strings.Contains(fn, ".") {
		return "runtime"
	}
	return ""
}

func parsePct(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// genTrace writes one labeled IDT2 trace in memory the way cmd/trafficgen
// does: EcommerceEdge background at pps for the given virtual duration
// with the standard attack campaign over it.
func genTrace(seed int64, dur time.Duration, pps float64) ([]byte, error) {
	profile := traffic.EcommerceEdge()
	var buf bytes.Buffer
	sim := simtime.New(seed)
	sw, err := trace.NewWriter(&buf, profile.Name, seed)
	if err != nil {
		return nil, err
	}
	rec := trace.NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{}
	for i := 0; i < 6; i++ {
		eps.Cluster = append(eps.Cluster, packet.IPv4(10, 1, 1, byte(i+1)))
	}
	for i := 0; i < 3; i++ {
		eps.External = append(eps.External, packet.IPv4(203, 0, 1, byte(i+1)))
	}
	gen, err := traffic.NewGenerator(sim, profile, eps, seq, rec.Emit)
	if err != nil {
		return nil, err
	}
	if err := gen.Start(gen.SessionRateForPps(pps)); err != nil {
		return nil, err
	}
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: rec.Emit, Eps: eps, Gen: gen})
	if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(1)); err != nil {
		return nil, err
	}
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		return nil, err
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeTrace reads every chunk of an IDT2 trace and returns copies of
// its packets when keep is set.
func decodeTrace(data []byte, keep bool) ([]*packet.Packet, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var pkts []*packet.Packet
	for {
		c, err := r.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		if keep {
			for _, rec := range c.Records {
				p := *rec.Pk
				p.Payload = append([]byte(nil), rec.Pk.Payload...)
				pkts = append(pkts, &p)
			}
		}
		c.Release()
	}
}

// probeLayers runs the standalone layer probes on traces generated by
// the workload (its serve pool, or one probe trace) and returns their
// metrics. dir is scratch space on the filesystem the daemon uses.
func probeLayers(traces [][]byte, dir string) (map[string]float64, error) {
	m := make(map[string]float64)

	// traffic: one SessionRateForPps call per fresh generator.
	var cal []float64
	for i := 0; i < 5; i++ {
		gen, err := traffic.NewGenerator(simtime.New(int64(i+1)), traffic.EcommerceEdge(),
			traffic.Endpoints{Cluster: []packet.Addr{packet.IPv4(10, 1, 1, 1)}, External: []packet.Addr{packet.IPv4(203, 0, 1, 1)}},
			nil, func(*packet.Packet) {})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		gen.SessionRateForPps(600)
		cal = append(cal, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["traffic.calibrate_ms"] = median(cal)

	// trace: decode throughput over the traces, best of three passes.
	var total int
	var rates []float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		total = 0
		for _, t := range traces {
			if _, err := decodeTrace(t, false); err != nil {
				return nil, err
			}
			total += len(t)
		}
		rates = append(rates, float64(total)/1e6/time.Since(start).Seconds())
	}
	m["trace.decode_mb_per_s"] = median(rates)

	// detect: replay the first trace's packets through every product's
	// engine, capped at scanCap payload bytes.
	pkts, err := decodeTrace(traces[0], true)
	if err != nil {
		return nil, err
	}
	var scanned int
	start := time.Now()
	for _, spec := range products.All() {
		e := spec.IDS.Engine()
		n := 0
		for _, p := range pkts {
			if n >= scanCap {
				break
			}
			e.Inspect(p, 0)
			n += len(p.Payload)
		}
		scanned += n
	}
	m["detect.scan_mb_per_s"] = float64(scanned) / 1e6 / time.Since(start).Seconds()

	p50, p99, err := probeAppendSync(dir)
	if err != nil {
		return nil, err
	}
	m["fsio.append_sync_us_p50"], m["fsio.append_sync_us_p99"] = p50, p99
	return m, nil
}

// scanCap bounds the detect probe's corpus per product.
const scanCap = 32 << 20

// appendSyncs is how many durable appends the fsio probe times: enough
// that p99 has more than minBeyond samples beyond it.
const appendSyncs = 1200 // a multiple of 16

// probeAppendSync times fsio.AppendFile.Append of a 64 KiB chunk (write
// then fsync), the durable step behind every idsevald ack, on dir's
// filesystem. Like a stream's spool, each file takes 16 appends.
func probeAppendSync(dir string) (p50, p99 float64, err error) {
	dir = filepath.Join(dir, "fsio-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	chunk := bytes.Repeat([]byte{0x5a}, 64<<10)
	us := make([]float64, 0, appendSyncs)
	for len(us) < appendSyncs {
		path := filepath.Join(dir, "spool")
		f, err := fsio.OpenAppend(path)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < 16; i++ {
			start := time.Now()
			if err := f.Append(chunk); err != nil {
				f.Close()
				return 0, 0, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		if err := f.Close(); err != nil {
			return 0, 0, err
		}
		if err := os.Remove(path); err != nil {
			return 0, 0, err
		}
	}
	p50, _ = percentile(us, 50)
	p99, _ = tail(us, 99)
	return p50, p99, nil
}
