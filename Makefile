# Convenience targets for the IDS evaluation reproduction.

GO ?= go

.PHONY: all build fmtcheck test race bench benchhot benchgate benchkernel benchobs benchsim benchserve ci eval sweep traces faultscenarios faultgolden live-smoke chaossmoke crashmatrix idsbench idsbench-smoke tracereport clean

all: build test race

# cmd/idsbench is its own Go module, so ./... skips it; vetting it
# here catches a change that deletes a repro identifier it still calls.
build: fmtcheck
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C cmd/idsbench vet .

# Fail on any tracked Go file gofmt would rewrite. Listing tracked files
# keeps the check out of the Go build cache under .bench_build/.
fmtcheck:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate a change must pass before merging, one step per
# contract:
#   - gofmt, build and vet, the benchmark module (cmd/idsbench) included;
#   - the whole suite under the race detector (the parallel evaluation
#     pipeline and the shard coordinator make -race part of
#     correctness). It already runs every fuzz target's seed corpus, the
#     telemetry determinism guard, the no-fault contract, the campaign
#     crash-safety tests, and TestFaultGoldens, which pins the shipped
#     fault scenarios to their golden degradation curves byte for byte;
#   - live-smoke: the campaign binary end to end — plan, run with the
#     live HTTP plane scraped mid-run, SIGINT, resume to completion;
#   - chaossmoke: idsevald SIGKILLed mid-stream, restarted, resumed from
#     the durable ack point, scorecard byte-identical;
#   - crashmatrix: every durable commit point crossed with every
#     single-fault schedule a hostile disk can produce;
#   - idsbench-smoke: the end-to-end benchmark's golden report digests,
#     scorecard sanity, and every declared metric emitted;
#   - benchgate: event-kernel allocations, scan throughput,
#     sharded-kernel events/sec, the telemetry disabled path, and
#     serve-ingest allocations held against the committed baselines.
ci:
	$(MAKE) fmtcheck
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C cmd/idsbench vet .
	$(GO) test -race ./...
	$(MAKE) live-smoke
	$(MAKE) chaossmoke
	$(MAKE) crashmatrix
	$(MAKE) idsbench-smoke
	$(MAKE) benchgate

# Regenerate every table and figure of the paper.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path microbenchmarks with allocation counts, captured as JSON so
# successive runs can be diffed (benchcmp-style) across commits. The
# committed BENCH_hotpath.json doubles as the benchgate baseline.
HOTBENCH := SignatureInspect|AhoCorasick|NaiveScan4K|MatcherConstruct|ScanBatch|ScanSetInto|HTTPRequest|HTTPResponse|SyslogMessage|BulkChunk|FrameDialogue

benchhot:
	$(GO) test -run=NONE -bench='$(HOTBENCH)' \
		-benchmem -count=1 -json ./internal/detect/ ./internal/traffic/ > BENCH_hotpath.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_hotpath.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_hotpath.json"

# Throughput regression gate: rerun the benchhot and benchsim suites
# into scratch files and fail if any gated benchmark (MB/s for the scan
# hot path, events/sec for the sharded kernel) dropped more than 15%
# against the committed baselines. The event-kernel allocation gate
# runs first: it depends on the code alone, so it still gives a verdict
# on a host too slow or busy for the throughput steps. On hosts with >= 4 CPUs the sim gate
# additionally enforces the 4-shard/1-shard scaling floor; single-core
# hosts report the ratio and skip. Regenerate baselines with `make
# benchhot` / `make benchsim` (and commit them) after an intentional
# perf change.
benchgate:
	$(GO) test -run=NONE -bench='$(KERNELBENCH)' \
		-benchmem -count=1 -json ./internal/simtime/ > /tmp/BENCH_kernel.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_kernel.json \
		-current /tmp/BENCH_kernel.current.json \
		-gate-allocs '$(KERNELBENCH)' -max-allocs-grow-pct 0
	$(GO) test -run=NONE -bench='$(HOTBENCH)' \
		-benchmem -count=1 -json ./internal/detect/ ./internal/traffic/ > /tmp/BENCH_hotpath.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_hotpath.json \
		-current /tmp/BENCH_hotpath.current.json -max-drop-pct 15
	$(GO) test -run=NONE -bench='$(SIMBENCH)' \
		-benchmem -count=1 -json ./internal/eval/ > /tmp/BENCH_sim.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_sim.json \
		-current /tmp/BENCH_sim.current.json -max-drop-pct 15 \
		-speedup-num BenchmarkShardedScaleShards4 \
		-speedup-den BenchmarkShardedScaleShards1 -min-speedup 2.5
	$(GO) test -run=NONE -bench='$(OBSBENCH)' \
		-benchmem -count=1 -json ./internal/obs/ > /tmp/BENCH_obs.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json \
		-current /tmp/BENCH_obs.current.json \
		-gate-ns Disabled -max-ns-grow-pct 100 -ns-slack-ns 2 \
		-require-zero-allocs Disabled
	$(GO) test -run=NONE -bench='$(SERVEBENCH)' \
		-benchmem -count=1 -json ./internal/serve/ > /tmp/BENCH_serve.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_serve.json \
		-current /tmp/BENCH_serve.current.json \
		-gate-allocs ServeIngest -max-allocs-grow-pct 10

# The end-to-end, per-layer benchmark (cmd/idsbench, its own Go module):
# every workload — quick, full, scale, serve — for the default 15 s
# each, artifacts under the gitignored .bench_build/. See
# cmd/idsbench/README.md for the metrics and for comparing two runs.
idsbench:
	bash cmd/idsbench/run.sh -workload all

# The benchmark's own test suite at smoke size (~7 s): golden digests of
# the warm-up reports, the scorecard/scale/serve correctness gates, and
# every declared metric emitted.
idsbench-smoke:
	$(GO) -C cmd/idsbench test .

# Event-kernel benchmarks: 1000 events through ScheduleAt
# (BenchmarkScheduleRun) and through one lane (BenchmarkLaneRun). The
# committed BENCH_kernel.json doubles as the benchgate baseline, gated
# on allocs/op with no growth allowed: the counts are deterministic
# (no per-event struct; the handler slab and the heap grow by
# doubling), and a pointer-bearing or per-event allocation creeping
# back into the kernel shows there first. ns/op is reported, not gated.
KERNELBENCH := ScheduleRun|LaneRun

benchkernel:
	$(GO) test -run=NONE -bench='$(KERNELBENCH)' \
		-benchmem -count=1 -json ./internal/simtime/ > BENCH_kernel.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_kernel.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_kernel.json"

# Sharded-kernel throughput benchmarks: the >= 10k-host LargeConfig run
# at 1, 2, 4, and 8 executor goroutines, captured as JSON. The committed
# BENCH_sim.json doubles as the benchgate baseline; a trailing note
# records the measuring host's CPU count, because parallel speedup is
# physically bounded by cores (benchgate arms its scaling floor only on
# >= 4-CPU hosts).
SIMBENCH := ShardedScaleShards

benchsim:
	$(GO) test -run=NONE -bench='$(SIMBENCH)' \
		-benchmem -count=1 -json ./internal/eval/ > BENCH_sim.json
	@echo '{"Action":"output","Package":"benchsim-host","Output":"# host-cpus: '"$$(nproc)"'"}' >> BENCH_sim.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_sim.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_sim.json (host cpus: $$(nproc))"

# Telemetry-overhead benchmarks: the disabled (nil-instrument) path must
# stay at a few ns/op with zero allocations — the contract that lets
# instrumentation live permanently in simulation hot paths. The
# committed BENCH_obs.json doubles as the benchgate baseline: the
# *Disabled benchmarks gate on ns/op growth (with absolute slack, since
# the path is sub-nanosecond) and must report exactly 0 allocs/op.
OBSBENCH := CounterInc|GaugeUpdate|HistogramObserve|Span|Snapshot|Flight

benchobs:
	$(GO) test -run=NONE -bench='$(OBSBENCH)' \
		-benchmem -count=1 -json ./internal/obs/ > BENCH_obs.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_obs.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_obs.json"

# Service ingest benchmark: chunk acceptance through the full durable
# path (spool append + fsync, ack journal append + fsync, ledger
# booking). The committed BENCH_serve.json doubles as the benchgate
# baseline. allocs/op is the gated dimension — the path sits at 2
# allocs per chunk, and the regression worth catching (an accidental
# copy or buffer per chunk) shows up there deterministically, while
# MB/s on a syscall-bound path swings severalfold with host IO and is
# reported but not gated.
SERVEBENCH := ServeIngest

benchserve:
	$(GO) test -run=NONE -bench='$(SERVEBENCH)' \
		-benchmem -count=1 -json ./internal/serve/ > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_serve.json"

# The paper's full prototype evaluation (all four products, both postures).
eval:
	$(GO) run ./cmd/idseval -posture realtime
	$(GO) run ./cmd/idseval -posture distributed

# Figure-4 sweeps for the two interesting products.
sweep:
	$(GO) run ./cmd/eersweep -product TrueSecure -points 6
	$(GO) run ./cmd/eersweep -product NetRecorder -points 6

FAULT_SCENARIOS := span-degrade sensor-outage pipeline-outage
FAULTSWEEP_FLAGS := -quick -points 3 -seed 11

# The shipped fault scenarios' golden degradation curves, checked at the
# command level: for a fixed seed, scenario, and severity grid the
# faultsweep output is part of the determinism contract and must stay
# byte-identical. TestFaultGoldens runs the same check in `go test`.
faultscenarios:
	@for s in $(FAULT_SCENARIOS); do \
		echo "fault scenario $$s"; \
		$(GO) run ./cmd/faultsweep -scenario examples/faults/$$s.json $(FAULTSWEEP_FLAGS) \
			| diff -u examples/faults/golden/$$s.txt - || exit 1; \
	done

# Regenerate the golden curves after an intentional behaviour change.
faultgolden:
	$(GO) test ./internal/eval -run TestFaultGoldens -update

LIVESMOKE_DIR := /tmp/repro-live-smoke

# Live observability-plane smoke: cmd/livesmoke plans a campaign, runs
# it with -listen 127.0.0.1:0, scrapes /healthz, /metrics, and
# /progress mid-run, interrupts with SIGINT, and requires a graceful
# exit plus a clean resume to full completion.
live-smoke:
	rm -rf $(LIVESMOKE_DIR)
	mkdir -p $(LIVESMOKE_DIR)
	$(GO) build -o $(LIVESMOKE_DIR)/campaign.bin ./cmd/campaign
	$(GO) run ./cmd/livesmoke -bin $(LIVESMOKE_DIR)/campaign.bin \
		-dir $(LIVESMOKE_DIR)/campaign.d
	rm -rf $(LIVESMOKE_DIR)

CHAOSSMOKE_DIR := /tmp/repro-chaos-smoke

# Crash-tolerance smoke for the evaluation daemon: cmd/chaossmoke
# generates a trace, takes a reference scorecard from an uninterrupted
# idsevald, then SIGKILLs a second daemon mid-stream, restarts it on
# the same directory, resumes the upload from the durable ack point,
# and requires the resumed scorecard byte-identical to the reference
# plus an exactly-balanced shed ledger at drain.
chaossmoke:
	rm -rf $(CHAOSSMOKE_DIR)
	mkdir -p $(CHAOSSMOKE_DIR)
	$(GO) build -o $(CHAOSSMOKE_DIR)/idsevald.bin ./cmd/idsevald
	$(GO) build -o $(CHAOSSMOKE_DIR)/trafficgen.bin ./cmd/trafficgen
	$(GO) run ./cmd/chaossmoke -bin $(CHAOSSMOKE_DIR)/idsevald.bin \
		-gen $(CHAOSSMOKE_DIR)/trafficgen.bin -dir $(CHAOSSMOKE_DIR)/chaos.d
	rm -rf $(CHAOSSMOKE_DIR)

# Storage-fault matrix: cmd/crashtorture probes each workload's exact
# filesystem-operation trace, then replays it once per (operation ×
# fault class) — ENOSPC, EIO, short writes, lying fsyncs, crash-stop,
# torn tails, crash around rename/remove — recovering on the real
# filesystem after every schedule and checking the durability
# invariants: byte-identical campaign resume, balanced idsevald
# ledger, resume point == durable ack prefix, no torn file at a final
# path. Entirely in-process; the whole matrix (~300 schedules) runs in
# a few seconds. DESIGN.md §16 documents the fault model.
crashmatrix:
	$(GO) run ./cmd/crashtorture

# Capture a flight-recorder timeline of the sharded at-scale run as
# Chrome trace_event JSON. Open trace_sharded.json in Perfetto
# (https://ui.perfetto.dev) to see per-domain window spans, barrier
# waits, and harness marks on the sim timeline.
tracereport:
	$(GO) run ./cmd/idseval -shards 4 -scale-segments 4 -scale-hosts 8 \
		-scale-duration 1s -product TrueSecure -trace-out trace_sharded.json
	@echo "wrote trace_sharded.json — open in https://ui.perfetto.dev"

# Canned-trace workflow (Lesson 2).
traces:
	$(GO) run ./cmd/trafficgen -o /tmp/eval.idt2 -seconds 60 -pps 600
	$(GO) run ./cmd/replay -trace /tmp/eval.idt2 -product TrueSecure

# BENCH_hotpath.json, BENCH_sim.json, BENCH_obs.json, BENCH_serve.json
# and BENCH_kernel.json are NOT cleaned: they are the committed
# benchgate baselines, regenerated deliberately via `make benchhot` /
# `make benchsim` / `make benchobs` / `make benchserve` / `make
# benchkernel`.
clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt trace_sharded.json
