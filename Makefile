# Convenience targets; everything is plain dune underneath.

.PHONY: all check test lint torture torture-ac bench bench-micro bench-kernels perf-diff perf-diff-traced clean

all:
	dune build

# The tier-1 gate: full build plus every test suite plus static analysis.
check:
	dune build && dune runtest && dune build @lint

test:
	dune runtest

# purity.lint: typed-AST checks for determinism, unsafe-access
# containment and hot-path hygiene, plus unused_export (every lib/
# interface value has a caller outside test/). Fails on any unwaived
# finding; writes _build/default/lint_report.jsonl.
lint:
	dune build @lint

# Extended fault-injection sweep (array seeds 1..200 and 1000..1999
# through purity.check, the range CI gates on); minutes, not seconds —
# deliberately outside tier-1.
torture:
	dune build @torture

# Stretched-pod (ActiveCluster) sweep: partitions, mediator loss and
# crashes over seeds 1..200 and 1000..1999 (the range CI gates on),
# audited by the two-view pod model. About a minute.
torture-ac:
	dune build @torture-ac

bench:
	dune exec bench/main.exe

# Just the wall-clock CPU suite (Bechamel primitives + the metadata
# hot-path before/after rows); writes BENCH_Micro.json.
bench-micro:
	dune exec bench/main.exe -- micro

# Only the data-plane kernel rows (ref vs word-at-a-time CRC32c /
# GF(256) / RS / LZ / fingerprint + the composed segment fill); writes
# BENCH_Kernels.json.
bench-kernels:
	dune exec bench/main.exe -- kernels

# perfbench's three workloads, untraced at seed 1, compared with the
# newest perf/trajectory.jsonl rows: the simulated metrics must match
# exactly and alloc_words_per_op may not grow past its BENCHMARK.json
# bound; wall-clock and heap deltas print for information.
perf-diff:
	mkdir -p _build
	for w in rand-rw ingest vdi; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done > _build/perf-diff.out
	python3 perf/diff.py _build/perf-diff.out

# The same three runs traced: the deterministic per-layer readings must
# match the newest rows' traced runs exactly (perf/diff.py TRACED_EXACT).
perf-diff-traced:
	mkdir -p _build
	for w in rand-rw ingest vdi; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 10 --trace 1 || exit 1; \
	done > _build/perf-diff-traced.out
	python3 perf/diff.py _build/perf-diff-traced.out

clean:
	dune clean
