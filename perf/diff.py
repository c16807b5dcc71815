#!/usr/bin/env python3
"""Compare perfbench runs with the committed performance trajectory.

Usage, from the root of the repository:

    for w in rand-rw ingest vdi; do
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 10 --trace 0
    done | python3 perf/diff.py

    python3 perf/diff.py run-output.txt ...

Input is perfbench's standard output: each run's header line
("perfbench <workload>: seed <n>, ...") followed, last, by its JSON result
line. Each untraced result is compared with the newest row of
perf/trajectory.jsonl for the same workload and seed:

- the simulated end-to-end metrics (and the op count) are deterministic
  and must match exactly;
- the run must be correct with no failed operation;
- alloc_words_per_op repeats run to run (the simulation is deterministic
  and so is what it allocates), so it may not exceed the row's value by
  more than its BENCHMARK.json bound;
- wall-clock and heap metrics are printed as deltas against their
  BENCHMARK.json bounds, for information only (one run is noisy).

Each traced result (--trace 1) is compared with the same row's traced
run: the op count and every per-layer reading in TRACED_EXACT must match
exactly. Those readings count simulated events and simulated time, so two
traced runs of one tree agree on them bit for bit; the host-time readings
(per-op wall costs, kernel ns/KiB, gc.pass_wall_ms, failover_wall_ms) and
the OCaml runtime's collector counts are left out.

Exits 1 listing every drifted metric, allocation regression or failed
run, 0 otherwise.
"""

import json
import os
import re
import sys

SIMULATED = (
    "sim_iops",
    "sim_read_trimmed_mean_us",
    "sim_read_tail_us",
    "sim_write_p50_us",
    "sim_write_tail_us",
    "data_reduction",
    "write_amp",
    "failover_sim_ms",
)
# printed against their bounds; only the gated ones fail the run
INFORMATIONAL = ("wall_us_per_op", "alloc_words_per_op", "peak_heap_mb", "setup_s")
GATED = ("alloc_words_per_op",)
# per-layer readings of a traced run that repeat exactly run to run:
# simulated time and counted events, not host time or GC activity
TRACED_EXACT = (
    "nvram.commit_p50_us",
    "nvram.backpressure_per_write",
    "dedup.hit_ratio",
    "compress.stored_ratio",
    "segment.flush_sim_p50_us",
    "segment.program_sim_us_per_mib",
    "segment.segios_per_mib",
    "sched.read_amplification",
    "sched.reconstruct_share",
    "sched.segment_read_p50_us",
    "sched.backup_reads",
    "drive.program_stalls_per_kread",
    "drive.reads_per_op",
    "read_path.cache_hit_ratio",
    "read_path.map_cache_hit_ratio",
    "pyramid.probes_per_lookup",
    "pyramid.skip_ratio",
    "pyramid.patches",
    "pyramid.facts",
    "medium.resolve_depth",
    "gc.passes",
    "gc.relocated_per_user_byte",
    "gc.reclaimed_mib",
    "gc.pass_sim_ms",
    "recovery.headers_scanned",
    "recovery.log_records",
    "recovery.nvram_records",
    "recovery.checkpoint_bytes",
    "clock.events_per_op",
    "trace.spans_per_op",
)

HEADER = re.compile(r"^perfbench (\S+): seed (\d+), .* trace (\d)$")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def newest_rows(path):
    """The last trajectory row for each (workload, seed)."""
    rows = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                rows[(row["workload"], row["seed"])] = row
    return rows


def bounds(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def runs(lines):
    """(workload, seed, traced, result) for every JSON result line."""
    workload = seed = traced = None
    for line in lines:
        line = line.strip()
        m = HEADER.match(line)
        if m:
            workload, seed, traced = m.group(1), int(m.group(2)), m.group(3) == "1"
        elif line.startswith("{"):
            if workload is None:
                raise SystemExit("perf/diff.py: a result line with no perfbench header before it")
            yield workload, seed, traced, json.loads(line)
            workload = None


def value(result, name):
    m = result["metrics"].get(name)
    return None if m is None else m["value"]


def common_problems(result, base):
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"run not correct ({result['failed']} failed)")
    if result["attempted"] != base["attempted"]:
        problems.append(f"attempted {base['attempted']} -> {result['attempted']}")
    return problems


def compare(workload, seed, result, row, spec):
    """Print one untraced run's comparison; return its list of problems."""
    base = row["untraced"]
    print(f"{workload} seed {seed}: against PR {row['pr']} ({row['rev']})")
    problems = common_problems(result, base)
    for name in SIMULATED:
        old, new = value(base, name), value(result, name)
        if old != new:
            problems.append(f"{name} {old!r} -> {new!r}")
    for name in INFORMATIONAL:
        old, new = value(base, name), value(result, name)
        if old is None or new is None or old == 0:
            continue
        delta = (new - old) / old
        line = f"  {name:<22} {old:14.6g} -> {new:14.6g} ({delta:+.1%}"
        b = spec.get(name)
        if b is not None:
            worse = -delta if b["better"] == "higher" else delta
            line += f", bound {b['bound']:.0%}"
            if worse > b["bound"]:
                line += ", beyond it"
                if name in GATED:
                    problems.append(f"{name} {old!r} -> {new!r} ({delta:+.1%}, bound {b['bound']:.0%})")
        print(line + ")")
    for p in problems:
        print(f"  DRIFT {p}")
    if not problems:
        print(f"  {len(SIMULATED)} simulated metrics identical")
    return problems


def compare_traced(workload, seed, result, row):
    """Print one traced run's comparison; return its list of problems."""
    base = row["traced"]
    print(f"{workload} seed {seed} traced: against PR {row['pr']} ({row['rev']})")
    problems = common_problems(result, base)
    for name in TRACED_EXACT:
        old, new = value(base, name), value(result, name)
        if old != new:
            problems.append(f"{name} {old!r} -> {new!r}")
    for p in problems:
        print(f"  DRIFT {p}")
    if not problems:
        print(f"  {len(TRACED_EXACT)} per-layer readings identical")
    return problems


def main(argv):
    rows = newest_rows(os.path.join(ROOT, "perf", "trajectory.jsonl"))
    spec = bounds(os.path.join(ROOT, "BENCHMARK.json"))
    lines = []
    if len(argv) > 1:
        for path in argv[1:]:
            with open(path) as f:
                lines.extend(f)
    else:
        lines = sys.stdin.readlines()
    compared = 0
    failed = []
    for workload, seed, traced, result in runs(lines):
        row = rows.get((workload, seed))
        if row is None or (traced and row.get("traced") is None):
            failed.append(f"{workload} seed {seed}: no trajectory row")
            print(f"{workload} seed {seed}: no trajectory row to compare with")
            continue
        compared += 1
        if traced:
            problems = compare_traced(workload, seed, result, row)
        else:
            problems = compare(workload, seed, result, row, spec)
        failed += [f"{workload}: {p}" for p in problems]
    if compared == 0 and not failed:
        failed.append("no perfbench result in the input")
    if failed:
        print(f"perf-diff: {len(failed)} problem(s)", file=sys.stderr)
        for p in failed:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"perf-diff: {compared} run(s) match the trajectory")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
