.PHONY: all build test test-release test-jobs experiment-quick perfbench-smoke bench bench-json bench-parallel bench-obs bench-serve bench-mapping serve-smoke trace-smoke quick-bench analyze analyze-adaptive verify examples doc surface clean

all: build

build:
	dune build @all

# Tier-1 gate: the full alcotest/qcheck suite, including the timeline
# differential tests and the scheduler golden-energy oracle. `dune
# runtest` is incremental; use `dune runtest --force` to re-run green
# suites.
test:
	dune runtest

# The suite again under the release profile, in its own build
# directory: release drops the dev profile's -opaque, so modules are
# inlined across, and the goldens must agree in both profiles (~40 s
# plus a full build).
test-release:
	dune runtest --profile release --build-dir _build_release --force

# The suite again on two- and four-domain pools, as CI runs it.
# NOCSCHED_JOBS sets the default pool size of what fans out over
# domains: campaign trials and annealing chains (a single schedule, and
# every serve request, runs in one domain). Every job count must give
# the same results.
test-jobs:
	NOCSCHED_JOBS=2 dune runtest --force
	NOCSCHED_JOBS=4 dune runtest --force

# The benchmark's own smoke test (perfbench/, declared in
# BENCHMARK.json): every workload in quick mode, untraced and traced,
# each result checked against the metric list BENCHMARK.json declares,
# plus a committed schedule with a shifted start that must fail the
# output check. Builds what it runs (~7 s).
perfbench-smoke:
	bash perfbench/run.sh --smoke

# Every table and figure of the paper, full size: all campaigns of
# `nocsched experiment` (the one campaign table; see DESIGN.md §2).
# Exits 1 if any campaign schedule fails the certifier gate.
bench:
	dune exec bin/nocsched.exe -- experiment

# Every campaign with scaled-down random suites (~seconds).
experiment-quick:
	dune exec bin/nocsched.exe -- experiment --quick

# Fast smoke run: experiment-quick, then every timing gate of
# bench/main.exe in quick mode (each rewrites its BENCH_*.json).
quick-bench: experiment-quick
	dune exec bench/main.exe -- --quick

# Persisted bench gate: timeline micro-benchmark medians plus end-to-end
# EAS wall time over 10 category-I seeds (p50/p90), written to
# BENCH_timeline.json (committed so later PRs have a trajectory to
# regress against). Exits non-zero if the indexed timeline is less than
# 5x the reference list implementation, or if the category-I EAS p50 is
# less than 5x faster than the 0.0642 s pre-kernel baseline.
# usage: make bench-json                # writes + gates BENCH_timeline.json
bench-json:
	dune exec bench/main.exe -- --json BENCH_timeline.json

# Parallel-execution gate: times the category-I random suite serially
# (--jobs 1) and on the domain pool after a warm-up run, and writes
# BENCH_parallel.json (committed). The >= 1.7x speedup threshold binds
# only on machines that expose >= 2 cores. That the results are
# bit-identical at every job count is a test (test_parallel_determinism).
# usage: make bench-parallel          # writes + gates BENCH_parallel.json
bench-parallel:
	dune exec bench/main.exe -- parallel

# Observability gate: disabled-instrumentation overhead on the
# category-I suite must stay within budget (analytic estimate <= 3%).
# Writes BENCH_obs.json (committed). Counter and decision-log
# invariance across --jobs is a test (test_parallel_determinism).
# usage: make bench-obs               # writes + gates BENCH_obs.json
bench-obs:
	dune exec bench/main.exe -- obs

# Scheduling-service gate: in-process handler latency on cache hits
# must be >= 10x below the cold p99, the incremental reschedule must be
# >= 2x faster than a full EAS rerun, and requests/sec is measured
# through a real Unix-socket daemon. Writes BENCH_serve.json (committed).
# usage: make bench-serve             # writes + gates BENCH_serve.json
bench-serve:
	dune exec bench/main.exe -- serve

# Mapping-search gate: swap delta-eval must be >= 20x faster than a
# full objective recompute at category-III scale (~2000 tasks, 16x16).
# Writes BENCH_mapping.json (committed). The search's determinism and
# the Pareto sweep's identity-energy guarantee are tests (test_map).
# usage: make bench-mapping           # writes + gates BENCH_mapping.json
bench-mapping:
	dune exec bench/main.exe -- mapping

# End-to-end daemon smoke: start `nocsched serve` on a private socket,
# run a schedule and an incremental reschedule through the client, send
# a DVFS schedule twice and require the second reply to be a cache hit
# carrying the same schedule text (hex annotations and the ladder's key
# segment), send an infeasible graph (40 tasks at tightness 0.5) twice
# and require two refusals, the second answered from the refusal memo
# (one `refusal_cache` hit in `stats`), send a 60-task graph and then
# the same file with its edge lines reversed and renumbered by awk, and
# require the second reply to be a miss (edge ids break the scheduler's
# ties, so the reversed file is another problem), then ask for a clean
# shutdown.
# Every other reply must be ok. The built
# binary is used directly (dune exec would contend for the build lock
# with the backgrounded daemon), and the client retries the connect
# 50 ms apart, so no sleep is needed after the daemon starts.
serve-smoke: build
	@set -e; \
	SOCK=/tmp/nocsched-serve-smoke-$$$$.sock; \
	INFEASIBLE=/tmp/nocsched-serve-smoke-$$$$.ctg; \
	FORWARD=/tmp/nocsched-serve-smoke-$$$$-forward.ctg; \
	REVERSED=/tmp/nocsched-serve-smoke-$$$$-reversed.ctg; \
	BIN=_build/default/bin/nocsched.exe; \
	rm -f $$SOCK; \
	$$BIN generate --tasks 40 --tightness 0.5 --seed 8 -o $$INFEASIBLE >/dev/null; \
	$$BIN serve --socket $$SOCK & \
	DAEMON=$$!; \
	trap 'kill $$DAEMON 2>/dev/null || true; rm -f $$SOCK $$INFEASIBLE $$FORWARD $$REVERSED' EXIT; \
	$$BIN serve --socket $$SOCK --call schedule --input examples/pipeline_4x4.ctg; \
	$$BIN serve --socket $$SOCK --call reschedule \
	  --input examples/pipeline_4x4.ctg --fault pe:1; \
	FIRST=$$($$BIN serve --socket $$SOCK --call schedule --dvfs --input examples/pipeline_4x4.ctg); \
	SECOND=$$($$BIN serve --socket $$SOCK --call schedule --dvfs --input examples/pipeline_4x4.ctg); \
	printf '%s\n%s\n' "$$FIRST" "$$SECOND"; \
	printf '%s\n' "$$SECOND" | grep -q '"cached":true' \
	  || { echo "serve-smoke: the repeated --dvfs request was not a cache hit" >&2; exit 1; }; \
	S1=$$(printf '%s\n' "$$FIRST" | grep -o '"schedule":"schedule 3[^"]*"'); \
	S2=$$(printf '%s\n' "$$SECOND" | grep -o '"schedule":"schedule 3[^"]*"'); \
	[ -n "$$S1" ] && [ "$$S1" = "$$S2" ] \
	  || { echo "serve-smoke: the --dvfs cache hit changed the schedule" >&2; exit 1; }; \
	for attempt in 1 2; do \
	  if $$BIN serve --socket $$SOCK --call schedule --input $$INFEASIBLE; then \
	    echo "serve-smoke: an infeasible request was accepted" >&2; exit 1; \
	  fi; \
	done; \
	$$BIN serve --socket $$SOCK --call stats \
	  | grep -o '"refusal_cache":{[^}]*}' | grep -q '"hits":1[,}]' \
	  || { echo "serve-smoke: the retry was not answered from the refusal memo" >&2; exit 1; }; \
	$$BIN generate --seed 5 --tasks 60 -o $$FORWARD >/dev/null; \
	awk '/^edge /{e[n++]=$$0; next} {print} END{for(i=n-1;i>=0;i--){$$0=e[i]; $$2=n-1-i; print}}' \
	  $$FORWARD >$$REVERSED; \
	$$BIN serve --socket $$SOCK --call schedule --input $$FORWARD >/dev/null; \
	$$BIN serve --socket $$SOCK --call schedule --input $$REVERSED | grep -q '"cached":false' \
	  || { echo "serve-smoke: the graph with its edges reversed was answered from the cache" >&2; exit 1; }; \
	$$BIN serve --socket $$SOCK --call shutdown; \
	wait $$DAEMON; \
	echo "serve-smoke: ok"

# End-to-end trace smoke: schedule the example CTG with tracing, the
# decision log and the stats report all on, then validate the exported
# Chrome trace against the nocsched/trace/v1 schema (counters required).
trace-smoke: build
	dune exec bin/nocsched.exe -- schedule examples/pipeline_4x4.ctg \
	  --trace /tmp/nocsched-trace-smoke.json \
	  --decisions /tmp/nocsched-decisions-smoke.jsonl --stats
	dune exec bin/nocsched.exe -- trace-check /tmp/nocsched-trace-smoke.json \
	  --require-counters
	test -s /tmp/nocsched-decisions-smoke.jsonl

# Static analysis over the shipped models: deadlock-freedom of the
# route sets, CTG/platform lints and certification of the committed
# example schedule. Lint semantics: warnings (exit 1) are tolerated,
# error-severity diagnostics (exit 2) fail the target.
analyze: build
	dune exec bin/nocsched.exe -- analyze --ctg examples/pipeline_4x4.ctg \
	  --schedule examples/pipeline_4x4.sched || [ $$? -eq 1 ]
	dune exec bin/nocsched.exe -- analyze || [ $$? -eq 1 ]
	dune exec bin/nocsched.exe -- analyze --benchmark integrated:foreman || [ $$? -eq 1 ]
	dune exec bin/nocsched.exe -- analyze --platform --mesh 8x8 || [ $$? -eq 1 ]

# Adaptive-routing smoke: the relation proofs must certify both turn
# models on the acceptance mesh (same lint semantics as `analyze`), and
# an end-to-end schedule under west-first must certify.
analyze-adaptive: build
	dune exec bin/nocsched.exe -- analyze --platform --mesh 8x8 --routing west-first || [ $$? -eq 1 ]
	dune exec bin/nocsched.exe -- analyze --platform --mesh 8x8 --routing odd-even || [ $$? -eq 1 ]
	dune exec bin/nocsched.exe -- schedule --benchmark tgff:1 --tasks 20 --routing west-first

# The full gate CI runs: build, the complete test suite (which holds
# every deterministic gate: job-count invariance, DVFS reclamation,
# routing proofs and detour survival, the mapping Pareto guarantee and
# the committed fault table), the suite again under the release profile
# and on two- and four-domain pools, every example program, every
# campaign scaled down (the first half of quick-bench; its quick timing
# gates are left out because they rewrite the BENCH files, and the
# full-size gates run below), every campaign at full size (each
# schedule through the certifier gate), the perfbench smoke test, the
# static analysis sweeps (deterministic and adaptive routing), the trace
# and daemon smokes, then the timing gates of bench/main.exe (timeline
# and category-I EAS, parallel speedup, observability overhead, the
# scheduling-service latencies and mapping delta-eval).
verify: build test test-release test-jobs examples experiment-quick bench perfbench-smoke analyze analyze-adaptive trace-smoke serve-smoke bench-json bench-parallel bench-obs bench-serve bench-mapping

examples:
	dune exec examples/quickstart.exe
	dune exec examples/av_encoder.exe
	dune exec examples/design_space.exe
	dune exec examples/contention.exe
	dune exec examples/custom_platform.exe
	dune exec examples/periodic_pipeline.exe

doc:
	dune build @doc

# The library's exported surface, the two counts change notes quote:
# optional arguments and `val` declarations across lib/*/*.mli.
surface:
	@echo "optional arguments: $$(grep -ohE '\?[a-z_]+ *:' lib/*/*.mli | wc -l)"
	@echo "exported vals: $$(grep -h '^val ' lib/*/*.mli | wc -l)"

clean:
	dune clean
