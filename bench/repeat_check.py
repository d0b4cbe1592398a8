"""Exact-repeat check: one seed, run twice, gives identical counts and outputs.

    python3 bench/repeat_check.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs and one plain run at the same
seed, each with ``--seconds 1`` so that only the counted block of solves
runs.  It fails unless every machine-independent metric (counts,
``descent.trials_per_step`` and ``polyalg.exact_gap``) and the digest of the
counted block's outputs (final iterates, certificates, Taylor coefficients)
are identical across the two traced runs, and the plain run's digest equals
theirs.  Run it from the repository root; it exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"
TIME_UNITS = {"s", "us"}


def run(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("# digest "))
    return digest, json.loads(lines[-1])


def exact_metrics(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if entry["unit"] not in TIME_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        default=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workload:
        digest_a, first = run(workload, args.seed, trace=1)
        digest_b, second = run(workload, args.seed, trace=1)
        digest_plain, plain = run(workload, args.seed, trace=0)
        counts_a, counts_b = exact_metrics(first), exact_metrics(second)
        for name in sorted(counts_a):
            if counts_a[name] != counts_b.get(name):
                problems.append(f"{workload}: {name} {counts_a[name]} != {counts_b.get(name)}")
        if not digest_a == digest_b == digest_plain:
            problems.append(f"{workload}: output digests differ: "
                            f"{digest_a} {digest_b} {digest_plain}")
        for result in (first, second, plain):
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed solves")
        print(f"{workload}: {len(counts_a)} exact metrics, digest {digest_a[:16]}")
    for problem in problems:
        print("FAIL " + problem)
    print("repeat check: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
