#!/usr/bin/env python3
"""Build the array benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rand-rw --seed 1 --seconds 10 --trace 0

The benchmark executable (perfbench/perfbench.ml, built with dune against
the repository's libraries) prints its report and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. This wrapper builds it, runs it from the repository root and
passes its exit code through. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("rand-rw", "ingest", "vdi")
DEFAULT_SEED = 1


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # the build stays inside the checkout: no shared dune cache
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", root, "./perfbench/perfbench.exe"],
        cwd=root,
        env=build_env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    env = dict(os.environ)
    # one lane: the data plane's domain pool stays serial
    env.pop("PURITY_DOMAINS", None)
    run = subprocess.run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=root,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
