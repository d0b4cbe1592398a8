"""Command-line driver: optimize, analyze, diagnose, tensor, series, examples.

Exit codes: 0 success; 1 when the library rejects an input (a ValueError
such as a dimension mismatch, a non-finite point, an unsafe direction or an
unbounded function) or overflows a float (an OverflowError); 2 for malformed
input (an unparsable list, an option out of range, a malformed problem file,
trace or tensor target) and for file errors.  main is the one place that
maps a failure to its code, and it reports each as one `error:` line on
stderr.
Every produced artifact is deterministic for fixed inputs; randomized helpers
(--random-directions) honor the SINGULIM_SEED environment variable.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .descent import (
    DescentConfig,
    check_conditions,
    optimize,
    read_trace_csv,
    write_trace_csv,
)
from .homog import CPModel, build_cp_objective
from .limits import (
    CLUSTER_TOL,
    DEFAULT_THETA_GRID,
    cluster_window,
    direction_trail,
    find_cluster_point,
    lojasiewicz_probe,
    rate_classify,
    trail_certifies_safe_approach,
    verify_certificate,
)
from .polyalg import DomainViolation
from .problems import (
    ProblemFile,
    ProblemFormatError,
    load_problem,
    poly_to_terms,
    problem_from_bytes,
    save_problem,
    write_bundled,
)
from .singan import (
    DEFAULT_N_TERMS,
    UnboundedFunctionError,
    analyze_singularity,
    direction_verdict,
    taylor_line,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2

# Options taking a comma-separated list, whose value may start with "-" (a
# negative first coordinate) that argparse would take for an option.
_LIST_OPTIONS = frozenset(
    {"--x0", "--point", "--direction", "--x-star", "--grid-bounds"}
)


class CliError(Exception):
    """A failed check that only the CLI can make; carries its exit code."""

    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _parse_csv_point(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"{flag}: {text!r} is not a comma-separated number list",
                       EXIT_MALFORMED)


def _parse_exact_point(text: str, flag: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: {text!r} is not a comma-separated rational list",
                       EXIT_MALFORMED)


def _require(ok: bool, flag: str, value, need: str) -> None:
    """Reject an option value out of range, before anything is computed."""
    if not ok:
        raise CliError(f"{flag}: got {value}, need {need}", EXIT_MALFORMED)


def _check_target(nested) -> None:
    """Raise CliError unless nested is a rectangular nested list of finite
    JSON numbers (true and false are not numbers), level by level, so that
    no depth of nesting recurses."""
    level = [nested]
    while level and isinstance(level[0], list):
        if not all(isinstance(v, list) and len(v) == len(level[0]) for v in level):
            break
        level = [v for row in level for v in row]
    if any(isinstance(v, list) for v in level):
        raise CliError("--target: nested lists of unequal lengths or depths",
                       EXIT_MALFORMED)
    for v in level:
        try:
            finite = type(v) in (int, float) and math.isfinite(v)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            text = "an object" if isinstance(v, dict) else json.dumps(v)
            raise CliError(f"--target: {text} is not a finite number", EXIT_MALFORMED)


def _check_output_dirs(*paths) -> None:
    """Fail before anything is computed or written when an output's
    directory is missing, so a failed command leaves no output behind."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _seeded_rng() -> random.Random:
    text = os.environ.get("SINGULIM_SEED", "0")
    try:
        return random.Random(int(text))
    except ValueError:
        raise CliError(f"SINGULIM_SEED: {text!r} is not an integer", EXIT_MALFORMED)


# -- subcommands -----------------------------------------------------------

def cmd_optimize(args) -> int:
    _check_output_dirs(args.trace_out, args.grid_out)
    # One read: the sidecar's digest is of the bytes that were optimized.
    path = Path(args.problem)
    data = path.read_bytes()
    f = problem_from_bytes(data, source=str(path)).rational()
    problem_sha256 = hashlib.sha256(data).hexdigest()
    x0 = _parse_csv_point(args.x0, "--x0")
    cfg = DescentConfig(
        sigma_armijo=args.sigma,
        backtrack_factor=args.beta,
        initial_step=args.step0,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
    )
    bounds = None
    if args.grid_out:
        if f.n_vars != 2:
            raise CliError("--grid-out requires a 2-variable problem")
        _require(args.grid_n >= 2, "--grid-n", args.grid_n, "at least 2")
        if args.grid_bounds:
            bounds = _parse_csv_point(args.grid_bounds, "--grid-bounds")
            ok = len(bounds) == 4 and bounds[0] < bounds[1] and bounds[2] < bounds[3]
            # The coordinates of an axis run monotonically from its first to
            # its last, so the grid is finite where those are.
            n = args.grid_n
            ok = ok and all(math.isfinite(_grid_coordinate(lo, hi, i, n))
                            for lo, hi in (bounds[:2], bounds[2:]) for i in (0, n - 1))
            _require(ok, "--grid-bounds", args.grid_bounds,
                     "four finite numbers x_lo,x_hi,y_lo,y_hi with lo < hi"
                     " and finite grid coordinates between them")
    trace = optimize(f, x0, cfg)
    write_trace_csv(trace, args.trace_out, {
        "config": asdict(cfg),
        "singulim_version": __version__,
        "problem_sha256": problem_sha256,
    })
    if args.grid_out:
        _write_grid(f, trace, bounds, args)
    print(f"iterations: {len(trace) - 1}")
    print(f"stop_reason: {trace.stop_reason}")
    # hypot scales, so coordinates whose squares overflow have a finite norm.
    print(f"final_norm: {math.hypot(*trace.iterates[-1]):.17g}")
    if trace.f_values:
        print(f"final_f: {trace.f_values[-1]:.17g}")
    print(f"trace: {args.trace_out}")
    return EXIT_OK


def _write_grid(f, trace, bounds, args) -> None:
    """Emit a rectangular grid of f-samples for external plotting."""
    if bounds:
        x_lo, x_hi, y_lo, y_hi = bounds
    else:
        xs = [p[0] for p in trace.iterates]
        ys = [p[1] for p in trace.iterates]
        pad_x = 0.1 * (max(xs) - min(xs) or 1.0)
        pad_y = 0.1 * (max(ys) - min(ys) or 1.0)
        x_lo, x_hi = min(xs) - pad_x, max(xs) + pad_x
        y_lo, y_hi = min(ys) - pad_y, max(ys) + pad_y
    n = args.grid_n
    with open(args.grid_out, "w") as handle:
        handle.write("x,y,f\n")
        for i in range(n):
            x = _grid_coordinate(x_lo, x_hi, i, n)
            for j in range(n):
                y = _grid_coordinate(y_lo, y_hi, j, n)
                try:
                    value = f.eval((x, y))
                except DomainViolation:
                    value = float("nan")
                handle.write(f"{x:.17g},{y:.17g},{value:.17g}\n")


def _grid_coordinate(lo: float, hi: float, i: int, n: int) -> float:
    """Coordinate i of n evenly spaced from lo to hi."""
    return lo + (hi - lo) * i / (n - 1)


def _poly_text(poly) -> str:
    return json.dumps(poly_to_terms(poly))


def cmd_analyze(args) -> int:
    _require(args.random_directions >= 0, "--random-directions",
             args.random_directions, "at least 0")
    rng = _seeded_rng()
    f = load_problem(args.problem).rational()
    point = _parse_exact_point(args.point, "--point")
    # (text, d): each --direction echoed as typed.
    directions = [(text, _parse_exact_point(text, "--direction"))
                  for text in args.direction or []]
    pencil = analyze_singularity(f, point)
    for _ in range(args.random_directions):
        raw = [rng.gauss(0.0, 1.0) for _ in range(f.n_vars)]
        norm = math.sqrt(math.fsum(v * v for v in raw))
        d = tuple(v / norm for v in raw)
        directions.append((",".join(map(str, d)), d))
    # Every direction is decided before anything is printed, so a wrong
    # coordinate count or a zero direction prints nothing but the error.
    verdicts = [(text, direction_verdict(pencil, d)) for text, d in directions]
    print(f"n_min: {pencil.n_min}")
    print(f"leading_pencil: {_poly_text(pencil.leading)}")
    for text, verdict in verdicts:
        limit = "undefined" if verdict.limit_value is None else f"{verdict.limit_value:.17g}"
        print(
            f"direction {text}: safe={verdict.in_safe_set} "
            f"pencil={verdict.pencil_value:.17g} limit={limit}"
        )
    return EXIT_OK


def cmd_series(args) -> int:
    _require(args.n_terms >= 1, "--n-terms", args.n_terms, "at least 1")
    f = load_problem(args.problem).rational()
    point = _parse_exact_point(args.point, "--point")
    direction = _parse_exact_point(args.direction, "--direction")
    line = taylor_line(f, point, direction, n_terms=args.n_terms)
    print(f"recurrence_order: {line.recurrence_order}")
    print("recurrence_weights: " + ",".join(f"{w:.17g}" for w in line.recurrence_weights))
    print(f"radius_lower_bound: {line.radius_lower_bound:.17g}")
    for n, c in enumerate(line.coeffs):
        print(f"c_{n}: {c:.17g}")
    return EXIT_OK


def _strict_json(value):
    """value with each NaN or infinite float written as the string "nan",
    "inf" or "-inf": strict JSON has no number for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(float(value))
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def cmd_diagnose(args) -> int:
    _check_output_dirs(args.report)
    _require(0.0 <= args.tail_fraction < 1.0, "--tail-fraction",
             args.tail_fraction, "a fraction in [0, 1)")
    f = load_problem(args.problem).rational()
    try:
        trace = read_trace_csv(args.trace)
    except ValueError as exc:
        raise CliError(f"--trace: {exc}", EXIT_MALFORMED)
    n = len(trace.iterates[0])
    if n != f.n_vars:
        raise CliError(
            f"--trace: {args.trace!r} has {n} coordinate(s) per iterate; the "
            f"problem has {f.n_vars} variable(s)", EXIT_MALFORMED,
        )
    if len(trace) < 2:
        raise CliError(
            f"--trace: {args.trace!r} has {len(trace)} iterate(s); diagnosis "
            "needs at least 2", EXIT_MALFORMED,
        )
    tail_start = int(len(trace) * args.tail_fraction)
    tail_start = min(tail_start, len(trace.step_norms) - 1)
    report: dict = {"trace": args.trace, "iterations": len(trace) - 1,
                    "stop_reason": trace.stop_reason}
    conditions = check_conditions(trace, tail_start)
    report["conditions"] = asdict(conditions)

    cluster = find_cluster_point(trace)
    report["cluster_point"] = list(cluster) if cluster is not None else None
    report["cluster_spread"] = cluster_window(trace)[1]
    report["cluster_tol"] = CLUSTER_TOL

    x_star = None
    if args.x_star:
        x_star = _parse_exact_point(args.x_star, "--x-star")
    elif cluster is not None and all(float(v) == int(v) for v in cluster):
        x_star = tuple(Fraction(int(v)) for v in cluster)
    if x_star is not None:
        try:
            pencil = analyze_singularity(f, x_star)
            trail = direction_trail(trace, pencil, tail_start)
            report["direction_trail"] = {
                "center": [float(v) for v in x_star],
                "n_min": pencil.n_min,
                "min_tail_pencil": trail.min_tail_pencil,
                "skipped": trail.skipped,
                "safe_approach": trail_certifies_safe_approach(trail),
            }
        except UnboundedFunctionError as exc:
            report["direction_trail"] = {"error": str(exc)}
        report["rate"] = asdict(rate_classify(trace, [float(v) for v in x_star],
                                              tail_start))
    try:
        certs = lojasiewicz_probe(trace, tail_start, DEFAULT_THETA_GRID)
        report["certificates"] = [
            {**asdict(c),
             "violations": verify_certificate(trace, c) if c.feasible else None}
            for c in certs
        ]
    except ValueError as exc:
        report["certificates"] = {"error": str(exc)}
    text = json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False)
    text += "\n"
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text)
        print(f"report: {args.report}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_tensor(args) -> int:
    _check_output_dirs(args.emit_problem)
    try:
        dims = tuple(int(v) for v in args.dims.split(","))
    except ValueError:
        raise CliError(f"--dims: {args.dims!r} is not a comma-separated integer list",
                       EXIT_MALFORMED)
    with open(args.target, encoding="utf-8") as handle:
        try:
            nested = json.load(handle)
        # Invalid JSON or UTF-8, an integer past the digit limit, or nesting
        # too deep for the decoder.
        except (ValueError, RecursionError) as exc:
            raise CliError(f"--target: invalid JSON: {exc}", EXIT_MALFORMED)
    _check_target(nested)
    model = CPModel(dims, args.rank)
    obj = build_cp_objective(model, nested)
    problem = ProblemFile(
        model.n_params, *obj.stored_form(),
        name=f"cp_{'x'.join(map(str, dims))}_rank{args.rank}",
    )
    save_problem(problem, args.emit_problem)
    print(f"n_params: {model.n_params}")
    print(f"target_norm_sq: {obj.target_norm_sq:.17g}")
    print(f"problem: {args.emit_problem}")
    return EXIT_OK


def cmd_examples(args) -> int:
    written = write_bundled(args.out_dir)
    for path in written:
        print(f"wrote: {path}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singulim",
        description=(
            "Certified gradient descent and singularity diagnostics for "
            "bounded rational objectives."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run Armijo gradient descent")
    p_opt.add_argument("--problem", required=True)
    p_opt.add_argument("--x0", required=True, help="start point, comma-separated")
    p_opt.add_argument("--sigma", type=float, default=DescentConfig.sigma_armijo)
    p_opt.add_argument("--beta", type=float, default=DescentConfig.backtrack_factor)
    p_opt.add_argument("--step0", type=float, default=DescentConfig.initial_step)
    p_opt.add_argument("--max-iters", type=int, default=DescentConfig.max_iters)
    p_opt.add_argument("--grad-tol", type=float, default=DescentConfig.grad_tol)
    p_opt.add_argument("--trace-out", required=True)
    p_opt.add_argument("--grid-out", help="CSV of f-samples for plotting")
    p_opt.add_argument("--grid-bounds", help="x_lo,x_hi,y_lo,y_hi for --grid-out")
    p_opt.add_argument("--grid-n", type=int, default=101)
    p_opt.set_defaults(func=cmd_optimize)

    p_ana = sub.add_parser("analyze", help="safe-direction analysis at a point")
    p_ana.add_argument("--problem", required=True)
    p_ana.add_argument("--point", required=True, help="exact rational coordinates")
    p_ana.add_argument("--direction", action="append",
                       help="direction to test; repeatable")
    p_ana.add_argument("--random-directions", type=int, default=0,
                       help="also test K random unit directions")
    p_ana.set_defaults(func=cmd_analyze)

    p_ser = sub.add_parser("series", help="Taylor coefficients along a direction")
    p_ser.add_argument("--problem", required=True)
    p_ser.add_argument("--point", required=True)
    p_ser.add_argument("--direction", required=True)
    p_ser.add_argument("--n-terms", type=int, default=DEFAULT_N_TERMS)
    p_ser.set_defaults(func=cmd_series)

    p_dia = sub.add_parser("diagnose", help="convergence diagnostics on a trace")
    p_dia.add_argument("--trace", required=True)
    p_dia.add_argument("--problem", required=True)
    p_dia.add_argument("--x-star", help="candidate cluster point, exact rationals")
    p_dia.add_argument("--tail-fraction", type=float, default=0.5)
    p_dia.add_argument("--report", help="write JSON report here; default stdout")
    p_dia.set_defaults(func=cmd_diagnose)

    p_ten = sub.add_parser("tensor", help="emit a CP-approximation problem file")
    p_ten.add_argument("--dims", required=True, help="e.g. 2,2,2")
    p_ten.add_argument("--rank", type=int, required=True)
    p_ten.add_argument("--target", required=True,
                       help="JSON file of nested arrays, row-major")
    p_ten.add_argument("--emit-problem", required=True)
    p_ten.set_defaults(func=cmd_tensor)

    p_ex = sub.add_parser("examples", help="write the bundled problem files")
    p_ex.add_argument("--out-dir", required=True)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def _join_list_values(argv: list[str]) -> list[str]:
    """argv with each list option joined to a value starting with a single
    "-", as --x0=-0.9,3.7, so argparse takes the value as a value."""
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[-1] in _LIST_OPTIONS
                and arg[:1] == "-" and arg[:2] != "--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    """Run one subcommand; map each failure to one `error:` line and a code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_list_values(argv))
    try:
        return args.func(args)
    except CliError as exc:
        message, code = str(exc), exc.code
    except FileNotFoundError as exc:
        message, code = f"file {exc.filename!r} not found", EXIT_MALFORMED
    except (ProblemFormatError, OSError) as exc:
        message, code = str(exc), EXIT_MALFORMED
    except (ValueError, OverflowError) as exc:
        message, code = str(exc), EXIT_INVALID
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
