"""Solve-level benchmark for singulim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fig1_descent, multi3_sweep, cp_homog, or ``all`` (each workload in
its own process, one after another).  Run it from the repository root.

The inputs come from the seed before timing starts.  Solves run one at a
time, closed loop, on one thread, until ``--seconds`` have passed and at
least the workload's counted block of solves is done.  Every solve's outputs
are checked outside the timed region; a solve that raises or fails a check
is counted in ``failed``, never dropped.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` each input is solved twice, once plain and once with the
library's public functions wrapped by ``spans.Tracer``; the two results must
agree, the per-layer metrics come from the spans of the counted block, and
``trace.overhead_s`` is the difference of the two runs' median solve time.
Spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fig1_descent", "multi3_sweep", "cp_homog")
# Failure messages echoed to standard error per run.
FAILURES_SHOWN = 5


def _import_library():
    """Import singulim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "singulim" / "__init__.py").is_file():
        sys.exit(f"bench: no singulim package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import singulim

    if Path(singulim.__file__).resolve().parent != (src / "singulim").resolve():
        sys.exit(f"bench: imported singulim from {singulim.__file__}, not {src}")
    return singulim


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_record(args, singulim) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "singulim": singulim.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


class Tally:
    """Outcomes of the solves of one run."""

    def __init__(self, counted: int):
        self.counted = counted
        self.attempted = 0
        self.failed = 0
        self.reached = 0
        self.reached_counted = 0
        self.targets = 0
        self.fingerprints = []

    def add(self, outcome, extra_failures=()):
        failures = outcome.failures + tuple(extra_failures)
        if failures:
            if self.failed < FAILURES_SHOWN:
                print(f"bench: solve {self.attempted} failed: {'; '.join(failures)}",
                      file=sys.stderr)
            self.failed += 1
        if outcome.reached is not None:
            self.targets += 1
            self.reached += outcome.reached
            if self.attempted < self.counted:
                self.reached_counted += outcome.reached
        if self.attempted < self.counted:
            self.fingerprints.append(outcome.fingerprint)
        self.attempted += 1

    def digest(self) -> str:
        """SHA-256 of the counted block's outputs, identical across runs."""
        return hashlib.sha256(repr(self.fingerprints).encode()).hexdigest()


def solve_once(workload, ctx, item):
    """Time one solve; a solve that raises is returned as its exception."""
    start = perf_counter()
    try:
        result = workload.solve(ctx, item)
    except Exception as exc:  # a raising solve is a failed solve, counted below
        result = exc
    return perf_counter() - start, result


def judge(workload, ctx, result):
    from workloads import Outcome

    if isinstance(result, Exception):
        return Outcome((repr(result),), (f"raised {result!r}",), None)
    try:
        return workload.check(ctx, result)
    except Exception as exc:  # a check that raises fails the solve
        return Outcome((repr(exc),), (f"check raised {exc!r}",), None)


def measure(workload, inputs, seconds):
    """Untraced run: set-up times, solve times, reference times, the tally.

    The set-ups are spread evenly over the run, so that their median, like
    the solve times, covers the whole run and not one moment of it.  The
    reference kernel runs after every solve, outside the timed solve.
    """
    from reference import time_kernel

    setup_times = []

    def timed_setup():
        start = perf_counter()
        ctx = workload.setup(inputs)
        setup_times.append(perf_counter() - start)
        return ctx

    ctx = timed_setup()
    tally = Tally(workload.counted_solves)
    times, kernels = [], []
    start = perf_counter()
    while tally.attempted < tally.counted or perf_counter() - start < seconds:
        if (len(setup_times) < workload.setup_repeats and perf_counter() - start
                >= seconds * len(setup_times) / workload.setup_repeats):
            timed_setup()
        item = inputs[tally.attempted % len(inputs)]
        elapsed, result = solve_once(workload, ctx, item)
        times.append(elapsed)
        kernels.append(time_kernel())
        tally.add(judge(workload, ctx, result))
    return setup_times, times, kernels, tally


def measure_traced(workload, inputs, seconds):
    """Traced run: every input solved plain, then traced; both must agree.

    Also returns the traced results of the counted block.
    """
    from spans import Tracer

    tracer = Tracer()
    with tracer.traced("bench.setup", "setup"):
        ctx = workload.setup(inputs)
    tally = Tally(workload.counted_solves)
    plain, traced, results = [], [], []
    start = perf_counter()
    while tally.attempted < tally.counted or perf_counter() - start < seconds:
        item = inputs[tally.attempted % len(inputs)]
        elapsed, result = solve_once(workload, ctx, item)
        plain.append(elapsed)
        with tracer.traced("bench.solve", tally.attempted):
            elapsed, traced_result = solve_once(workload, ctx, item)
        traced.append(elapsed)
        outcome = judge(workload, ctx, traced_result)
        plain_outcome = judge(workload, ctx, result)
        differs = () if repr(plain_outcome) == repr(outcome) else (
            "traced solve differs from the plain solve",)
        if tally.attempted < tally.counted:
            results.append(traced_result)
        tally.add(outcome, plain_outcome.failures + differs)
    return tracer, ctx, plain, traced, results, tally


def run_workload(args) -> dict:
    singulim = _import_library()
    sys.path.insert(0, str(BENCH))
    from workloads import EXACT_GAP_POINTS, WORKLOADS, exact_gap

    workload = WORKLOADS[args.workload]
    record = run_record(args, singulim)
    print("# run " + json.dumps(record, sort_keys=True))
    inputs = workload.inputs(args.seed)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        from spans import layer_metrics

        tracer, ctx, plain, traced, results, tally = measure_traced(
            workload, inputs, args.seconds)
        counted = lambda solve: solve == "setup" or solve < tally.counted
        metrics.update(layer_metrics(tracer.spans, counted))
        points = [workload.final_point(r) for r in results
                  if not isinstance(r, Exception)][:EXACT_GAP_POINTS]
        metrics["polyalg.exact_gap"] = (exact_gap(workload.function(ctx), points), "ratio")
        metrics["descent.reached"] = (tally.reached_counted, "count")
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, record)
        print(f"# spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        print(f"# traced solve_s.p50 {statistics.median(traced):.6g} s, "
              f"plain {statistics.median(plain):.6g} s, n={len(traced)}")
    else:
        from reference import rolling_median

        setup_times, times, kernels, tally = measure(workload, inputs, args.seconds)
        refs = [t / k for t, k in zip(times, rolling_median(kernels))]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["solve_ref.p50"] = (statistics.median(refs), "ref")
        metrics["solve_ref.p90"] = (p90(refs), "ref")
        metrics["solves_per_ref"] = (len(refs) / sum(refs), "1/ref")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        n = f"n={len(times)}"
        reached = (f"{tally.reached / tally.targets:.6g} ({tally.reached}/{tally.targets})"
                   if tally.targets else "n/a (no accuracy target)")
        rows = [
            ("setup_s", f"{metrics['setup_s'][0]:.6g} s", f"median of {len(setup_times)}"),
            ("solve_s.p50", f"{statistics.median(times):.6g} s", n),
            ("solve_s.p90", f"{p90(times):.6g} s", n),
            ("solves_per_s", f"{len(times) / sum(times):.6g} 1/s", n),
            ("reached_frac", reached, ""),
            ("fail_frac", f"{tally.failed / tally.attempted:.6g} "
                          f"({tally.failed}/{tally.attempted})", ""),
            ("peak_rss_mb", f"{metrics['peak_rss_mb'][0]:.6g} MB", ""),
            ("ref_s", f"{statistics.median(kernels):.6g} s",
             "median reference kernel time"),
            ("solve_ref.p50", f"{metrics['solve_ref.p50'][0]:.6g} ref", n),
            ("solve_ref.p90", f"{metrics['solve_ref.p90'][0]:.6g} ref", n),
            ("solves_per_ref", f"{metrics['solves_per_ref'][0]:.6g} 1/ref", n),
        ]
        print(f"# {args.workload}: {tally.attempted} solves, seed {args.seed}")
        for name, value, note in rows:
            print(f"#   {name:<15} {value:<24} {note}".rstrip())
    print(f"# digest {tally.digest()} (first {tally.counted} solves)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
