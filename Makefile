# Convenience targets for the IDS evaluation reproduction.

GO ?= go

.PHONY: all build fmtcheck test race bench benchhot benchgate benchkernel benchobs benchsim benchserve ci eval sweep traces faultgolden idsbench idsbench-smoke tracereport clean

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
#     correctness). It runs every contract the repo states as a test:
#     every fuzz target's seed corpus, the telemetry determinism guard,
#     the no-fault contract, TestFaultGoldens (the faultsweep command's
#     golden degradation curves for the shipped fault scenarios, byte
#     for byte), replay's stdout goldens (cmd/replay), the
#     campaign crash-safety tests, the storage-fault matrix
#     (TestCrashMatrix in internal/campaign and internal/serve), the
#     campaign command's live plane with SIGINT and resume
#     (cmd/campaign), and idsevald SIGKILLed mid-stream and resumed to a
#     byte-identical scorecard (cmd/idsevald);
#   - idsbench-smoke: the end-to-end benchmark's golden report digests,
#     scorecard sanity, and every declared metric emitted;
#   - benchgate: event-kernel and trace-replay allocations, scan throughput,
#     sharded-kernel events/sec, the telemetry disabled path, and
#     serve-ingest allocations held against the committed baselines.
ci:
	$(MAKE) fmtcheck
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C cmd/idsbench vet .
	$(GO) test -race ./...
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
# against the committed baselines. The event-kernel and trace-replay
# allocation gate and the warm scan-memo gate run first: they depend on
# the code alone, so they still give a verdict on a host too slow or
# busy for the throughput steps. On hosts with >= 4 CPUs the sim gate
# additionally enforces the 4-shard/1-shard scaling floor; single-core
# hosts report the ratio and skip. Regenerate baselines with `make
# benchhot` / `make benchsim` (and commit them) after an intentional
# perf change.
benchgate:
	$(GO) test -run=NONE -bench='$(KERNELBENCH)' \
		-benchmem -count=1 -json $(KERNELPKGS) > /tmp/BENCH_kernel.current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_kernel.json \
		-current /tmp/BENCH_kernel.current.json \
		-gate-allocs '$(KERNELBENCH)' -max-allocs-grow-pct 0
	$(GO) test -run=NONE -bench='$(PRESCANBENCH)' \
		-benchmem -count=1 -json ./internal/detect/ > /tmp/BENCH_prescan.current.json
	$(GO) run ./cmd/benchgate -baseline '' \
		-current /tmp/BENCH_prescan.current.json \
		-require-zero-allocs '$(PRESCANBENCH)'
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

# Twin engines on a warm scan memo (detect.ScanMemo): a twin sensor's
# prescan, whose every match set is copied from the memo
# (PrescanSharedHit), and a reassembling twin's prescan and seam scans
# beside an anomaly twin's inspection, whose entropies are read from
# it (InspectSharedPayload). Each must cost exactly 0 allocs/op. The
# count is checked in the current run alone, so the step needs no
# baseline file.
PRESCANBENCH := PrescanSharedHit|InspectSharedPayload

# Event-kernel benchmarks: 1000 events through ScheduleAt
# (BenchmarkScheduleRun), through one lane (BenchmarkLaneRun) and as
# one series (BenchmarkSeriesRun), plus the kernel's biggest lane user,
# a streamed trace replayed onto a fresh sim (BenchmarkReplayReader in
# internal/trace). The committed BENCH_kernel.json doubles as the
# benchgate baseline, gated on allocs/op with no growth allowed: the
# counts are deterministic (no per-event struct; the handler slab, the
# heap and a lane grow by doubling; a replay's decode buffers are
# recycled per chunk), and a pointer-bearing or per-event allocation
# creeping back into the kernel or the replay shows there first. ns/op
# is reported, not gated.
KERNELBENCH := ScheduleRun|LaneRun|SeriesRun|ReplayReader
KERNELPKGS := ./internal/simtime/ ./internal/trace/

benchkernel:
	$(GO) test -run=NONE -bench='$(KERNELBENCH)' \
		-benchmem -count=1 -json $(KERNELPKGS) > BENCH_kernel.json
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

# Regenerate the shipped fault scenarios' golden degradation curves
# after an intentional behaviour change. TestFaultGoldens (cmd/faultsweep)
# runs `faultsweep -quick -points 3 -seed 11` on each scenario and, in
# `go test ./...`, compares its output with the golden byte for byte.
faultgolden:
	$(GO) test ./cmd/faultsweep -run TestFaultGoldens -update

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
