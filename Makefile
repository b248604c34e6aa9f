# Convenience wrappers around dune. `make profile` demonstrates the
# Fbb_obs instrumentation on a mid-size benchmark.

DUNE ?= dune

.PHONY: all build test bench bench-scale bench-compare baseline fuzz \
  fuzz-faults cascade-demo profile trace flame top-demo serve-demo clean

all: build

build:
	$(DUNE) build @all

test: build
	$(DUNE) runtest

bench: build
	$(DUNE) exec bench/main.exe

# The scaling axis behind the incremental-STA engine: MC yield recovery
# on generated 1k/10k-gate modules. The exp.scale-*-mc spans isolate the
# repeated-evaluation workload from fixture setup.
bench-scale: build
	FBB_SCALE_SAMPLES=8 $(DUNE) exec bench/main.exe -- --jobs 2 \
	  scale-1k scale-10k

# Diff a fresh smoke run against the committed baseline, with the same
# configuration the baseline was recorded under (CI runs this too).
bench-compare: build
	FBB_MC_SAMPLES=10 FBB_SCALE_SAMPLES=4 FBB_SERVE_REQUESTS=48 \
	  $(DUNE) exec bench/main.exe -- --jobs 2 yield scale-1k scale-10k serve
	$(DUNE) exec bin/fbbopt.exe -- bench-compare \
	  bench/baseline.json bench_out/bench.json --max-regress 25

# Re-record the committed baseline (after a deliberate perf change).
baseline: build
	FBB_MC_SAMPLES=10 FBB_SCALE_SAMPLES=4 FBB_SERVE_REQUESTS=48 \
	  $(DUNE) exec bench/main.exe -- --jobs 2 yield scale-1k scale-10k serve
	cp bench_out/bench.json bench/baseline.json
	@echo "bench/baseline.json updated - commit it with the change"

fuzz: build
	$(DUNE) exec bin/fbbfuzz.exe -- --cases 50 --seed 1 --corpus-dir test/corpus

# Fuzz the degradation cascade with deterministic fault injection live
# (pool crashes, transient retries, LP pivot limits, I/O transients,
# budget exhaustion), judged by the fault-paused oracle referee.
fuzz-faults: build
	$(DUNE) exec bin/fbbfuzz.exe -- --cases 30 --seed 1 --faults 0.1,7 \
	  --corpus-dir test/corpus --repro-dir fuzz_out

# Deadline-bounded anytime solve on the largest bundled benchmark: the
# cascade runs heuristic -> ilp -> single-bb floor and prints its
# degradation report.
cascade-demo: build
	$(DUNE) exec bin/fbbopt.exe -- optimize -d Industrial3 --cascade \
	  --deadline-ms 50

profile: build
	$(DUNE) exec bin/fbbopt.exe -- optimize -d c5315 --cascade --profile

trace: build
	$(DUNE) exec bin/fbbopt.exe -- optimize -d c5315 --cascade \
	  --trace fbbopt-trace.jsonl --profile-csv fbbopt-profile.csv
	$(DUNE) exec bin/fbbopt.exe -- trace convert fbbopt-trace.jsonl \
	  -o fbbopt-trace.chrome.json
	@echo "wrote fbbopt-trace.jsonl, fbbopt-profile.csv and"
	@echo "fbbopt-trace.chrome.json (load the latter in ui.perfetto.dev)"

# Live telemetry demo: run fbbd with its /metrics endpoint up, drive a
# short load run through it, then scrape the endpoint and render one
# dashboard frame.
top-demo: build
	$(DUNE) exec bin/fbbd.exe -- serve --port 9620 --metrics-port 9621 \
	  --duration-s 12 --jobs 2 & \
	sleep 3; \
	$(DUNE) exec bin/fbbd.exe -- load --port 9620 -c 4 -n 24 \
	  --gen 11,400,6 --work 50000; \
	$(DUNE) exec bin/fbbopt.exe -- scrape http://127.0.0.1:9621; \
	$(DUNE) exec bin/fbbopt.exe -- top --once --url http://127.0.0.1:9621; \
	wait

# fbbd demo: run the daemon with live metrics, send a ping, a solve and
# a stats request, then drive a short closed-loop load run against it.
serve-demo: build
	$(DUNE) exec bin/fbbd.exe -- serve --port 9620 --metrics-port 9621 \
	  --duration-s 20 --jobs 2 & \
	sleep 3; \
	$(DUNE) exec bin/fbbd.exe -- request --port 9620 --op ping --id demo; \
	$(DUNE) exec bin/fbbd.exe -- request --port 9620 --gen 11,400,6 \
	  --work 100000 --id demo-solve; \
	$(DUNE) exec bin/fbbd.exe -- load --port 9620 -c 4 -n 24 \
	  --gen 11,400,6 --work 50000; \
	$(DUNE) exec bin/fbbd.exe -- request --port 9620 --op stats --id demo; \
	wait

flame: trace
	$(DUNE) exec bin/fbbopt.exe -- trace flame fbbopt-trace.jsonl \
	  -o fbbopt-trace.folded
	@echo "wrote fbbopt-trace.folded (feed to flamegraph.pl / inferno)"

clean:
	$(DUNE) clean
	rm -f fbbopt-trace.jsonl fbbopt-profile.csv fbbopt-trace.chrome.json \
	  fbbopt-trace.folded
