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
- wall-clock, allocation and heap metrics are printed as deltas against
  their BENCHMARK.json bounds, for information only (one run is noisy).

Exits 1 listing every drifted metric or failed run, 0 otherwise. Traced
runs (--trace 1) are skipped: their per-layer metrics are not compared.
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
INFORMATIONAL = ("wall_us_per_op", "alloc_words_per_op", "peak_heap_mb", "setup_s")

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


def compare(workload, seed, result, row, spec):
    """Print one run's comparison; return its list of problems."""
    problems = []
    base = row["untraced"]
    print(f"{workload} seed {seed}: against PR {row['pr']} ({row['rev']})")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"run not correct ({result['failed']} failed)")
    if result["attempted"] != base["attempted"]:
        problems.append(f"attempted {base['attempted']} -> {result['attempted']}")
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
        print(line + ")")
    for p in problems:
        print(f"  DRIFT {p}")
    if not problems:
        print(f"  {len(SIMULATED)} simulated metrics identical")
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
        if traced:
            print(f"{workload} seed {seed}: traced run skipped")
            continue
        row = rows.get((workload, seed))
        if row is None:
            failed.append(f"{workload} seed {seed}: no trajectory row")
            print(f"{workload} seed {seed}: no trajectory row to compare with")
            continue
        compared += 1
        failed += [f"{workload}: {p}" for p in compare(workload, seed, result, row, spec)]
    if compared == 0 and not failed:
        failed.append("no untraced perfbench result in the input")
    if failed:
        print(f"perf-diff: {len(failed)} problem(s)", file=sys.stderr)
        for p in failed:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"perf-diff: {compared} run(s) match the trajectory")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
