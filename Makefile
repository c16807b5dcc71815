# Convenience targets; everything is plain dune underneath.

.PHONY: all check test lint torture torture-ac bench bench-micro bench-kernels perf-diff clean

all:
	dune build

# The tier-1 gate: full build plus every test suite plus static analysis.
check:
	dune build && dune runtest && dune build @lint

test:
	dune runtest

# purity.lint: typed-AST checks for determinism, unsafe-access
# containment and hot-path hygiene. Fails on any unwaived finding;
# writes _build/default/lint_report.jsonl.
lint:
	dune build @lint

# Extended fault-injection sweep (~1000 random scenarios through
# purity.check); minutes, not seconds — deliberately outside tier-1.
torture:
	dune build @torture

# Stretched-pod (ActiveCluster) sweep: partitions, mediator loss and
# crashes over the fixed seed range 1..200 CI gates on, audited by the
# two-array model. Seconds, not minutes.
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
# exactly; wall-clock, allocation and heap deltas print for information.
perf-diff:
	mkdir -p _build
	for w in rand-rw ingest vdi; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done > _build/perf-diff.out
	python3 perf/diff.py _build/perf-diff.out

clean:
	dune clean
