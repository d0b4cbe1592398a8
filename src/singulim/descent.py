"""Gradient line-search descent on rational objectives with trace capture.

The optimizer is steepest descent with Armijo backtracking: a step alpha is
accepted when the computed decrease f(x) - f(x - alpha*g) is at least
sigma*alpha*||g||^2 > 0.  The decrease itself is compared, not f(x - alpha*g)
with the rounded threshold f(x) - sigma*alpha*||g||^2, so every accepted step
satisfies the sufficient-decrease condition with the configured sigma by
construction, and traces are strictly f-decreasing until the stopping rule
fires.  Condition checking recomputes the per-step certificates directly from
the recorded trace.

The first trial step is a two-point step, with s = x_k - x_{k-1} and
y = grad_k - grad_{k-1}: after an odd-numbered step the long
(Barzilai-Borwein) step s's / s'y, after an even-numbered one the short
step s'y / y'y (Dai-Fletcher's alternation), each capped at initial_step.
It is initial_step itself on the first iteration, wherever s'y <= 0, and
for the short step wherever y'y is 0 or not finite.  Restarting every line
search at initial_step instead lets the iterates approach the essential
singularity of fig1 only as ||x_k|| ~ k^(-1/2).  The long step alone
overshoots along the stiff angular direction near a singular point and
takes about four times the steps and Armijo trials of the alternation on
fig1.

The loop itself is RationalFunction.descend: the stop tests, the ladder,
the accepted trial's gradient and the two-point step run inside each
chart's generated code, which appends each step's row to the run's rows
(DescentTrace.from_rows) and returns only at a stop or where a trial
belongs to another chart.
RationalFunction.descend decides each stop, the retry from initial_step
included.  So optimize makes one Python call per chart visit or retry,
not per step or search (polyalg._Evaluator).  The tests' reference is a
Python step loop over each chart's term-loop evaluation.  sigma, the backtrack factor, initial_step, grad_tol,
max_iters and MAX_BACKTRACKS are passed to it from here.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .polyalg import (
    STOP_F_STATIONARY,
    STOP_GRAD_TOL,
    STOP_MAX_ITERS,
    DomainViolation,
    RationalFunction,
    _fsum,
    check_finite_point,
)

STOP_DOMAIN_VIOLATION = "domain_violation"
STOP_REASONS = (STOP_GRAD_TOL, STOP_F_STATIONARY, STOP_MAX_ITERS, STOP_DOMAIN_VIOLATION)

MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class DescentConfig:
    """Armijo descent settings.

    initial_step is the largest trial step: every line search starts from the
    long or the short two-point step (alternately; see the module docstring)
    capped at it, and one whose start backtracks out is retried once from
    initial_step before the run stops on f_stationary.
    """

    sigma_armijo: float = 0.1
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    max_iters: int = 100_000
    grad_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.sigma_armijo < 1.0:
            raise ValueError("sigma_armijo must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.initial_step < math.inf:
            raise ValueError("initial_step must be positive and finite")
        # An int: the loop counts the iterations left down to 0.
        if type(self.max_iters) is not int or self.max_iters < 1:
            raise ValueError("max_iters must be a positive int")
        # inf, stop at once, is allowed; NaN fails the comparison.
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be non-negative")


@dataclass(frozen=True)
class DescentTrace:
    """Immutable record of an optimization run.

    f_values and grad_norms align with iterates, or are empty where the
    start is outside the domain; step_norms and alphas are one entry
    shorter than iterates.
    """

    iterates: tuple[tuple[float, ...], ...]
    f_values: tuple[float, ...]
    grad_norms: tuple[float, ...]
    step_norms: tuple[float, ...]
    alphas: tuple[float, ...]
    stop_reason: str

    def __len__(self) -> int:
        return len(self.iterates)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], stop_reason: str) -> "DescentTrace":
        """The trace of a run recorded as rows: rows[0] = (x, f, ||grad f||)
        at the start, or (x,) where the start is outside the domain, then
        one row (x, f, ||grad f||, ||s||, alpha) per accepted step."""
        # zip stops at rows[0]'s length, so the start's row sets the columns.
        iterates, *values = zip(*rows)
        f_values, grad_norms = values or ((), ())
        steps = list(zip(*rows[1:]))[3:] or ((), ())
        return cls(iterates, f_values, grad_norms, *steps, stop_reason)


@dataclass(frozen=True)
class ConditionReport:
    """Empirical sufficient-decrease and step-length certificates on a tail.

    sigma_hat and kappa_hat are None on traces with no steps in the tail.
    """

    sigma_hat: float | None
    kappa_hat: float | None
    a2_violations: int
    tail_start: int
    degenerate_steps: int = 0


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(_fsum(list(map(operator.mul, v, v))))


def optimize(
    f: RationalFunction, x0: Sequence[float], cfg: DescentConfig | None = None
) -> DescentTrace:
    """Run Armijo-backtracked steepest descent from x0.

    Each line search starts from the long or the short two-point step,
    alternately, capped at initial_step (see the module docstring).  Stops
    on small gradient, on a step that fails to decrease f (stationarity
    enforcement of the no-cycling rule), on the iteration cap, or on a
    domain violation at the start point.

    f is a RationalFunction.  eval_and_grad runs at x0 only, and the whole
    run is one f.descend call, which calls each chart's generated descend
    once per visit or retry.
    """
    if cfg is None:
        cfg = DescentConfig()
    x = check_finite_point(x0)
    try:
        fx, grad = f.eval_and_grad(x)
    except DomainViolation:
        return DescentTrace.from_rows([(x,)], STOP_DOMAIN_VIOLATION)
    rows = [(x, fx, _norm(grad))]
    stop_reason, _ = f.descend(
        rows, grad, cfg.sigma_armijo, cfg.backtrack_factor, cfg.initial_step,
        cfg.grad_tol, cfg.max_iters, MAX_BACKTRACKS,
    )
    return DescentTrace.from_rows(rows, stop_reason)


def trace_from_points(
    f: RationalFunction,
    points: Iterable[Sequence[float]],
    stop_reason: str = STOP_MAX_ITERS,
) -> DescentTrace:
    """Build a trace from a scripted iterate sequence, recomputing f and grad."""
    iterates = [check_finite_point(p) for p in points]
    if not iterates:
        raise ValueError("empty point sequence")
    rows = []
    for p in iterates:
        fp, gp = f.eval_and_grad(p)
        row = (p, fp, _norm(gp))
        if rows:
            row += (_norm(list(map(operator.sub, p, rows[-1][0]))), math.nan)
        rows.append(row)
    return DescentTrace.from_rows(rows, stop_reason)


def check_conditions(trace: DescentTrace, tail_start: int) -> ConditionReport:
    """Recompute sufficient-decrease and step-length ratios over a trace tail.

    sigma_hat is the minimum of (f_k - f_{k+1}) / (||grad_k|| * step_k) and
    kappa_hat the minimum of step_k / ||grad_k|| over steps k >= tail_start
    with step_k != 0 and ||grad_k|| > 0.  a2_violations counts zero-progress
    steps of nonzero length, degenerate_steps zero steps at a nonzero
    gradient.  A negative tail_start reads as 0, and the report records the
    index read.

    The tail is one pass over the steps in Python floats, which forms each
    ratio as the IEEE quotient and takes the minima in step order, so NaN
    and signed zeros count as in a step loop.  Where grad_k * step_k
    underflows to 0 the ratio is the quotient by that signed zero,
    df * copysign(inf, grad_k * step_k) (inf, or NaN at df = 0), where
    Python's division would raise.  A loop, not numpy arrays, because
    descent tails are short: numpy's fixed cost per call made the array
    form about 25 us at 60 steps against the loop's 14, and still 64
    against 58 at 300; only past a few thousand steps is it faster.
    """
    n_steps = len(trace.step_norms)
    if n_steps and tail_start >= n_steps:
        raise ValueError(f"tail_start {tail_start} beyond last step {n_steps - 1}")
    start = max(tail_start, 0)
    f = trace.f_values[start:n_steps + 1]
    sigmas, kappas = [], []
    a2_violations = degenerate = 0
    for df, g, s in zip(map(operator.sub, f, f[1:]), trace.grad_norms[start:n_steps],
                        trace.step_norms[start:n_steps]):
        if s != 0.0:
            if g > 0.0:
                gs = g * s
                sigmas.append(df / gs if gs else df * math.copysign(math.inf, gs))
                kappas.append(s / g)
            if df == 0.0 and s > 0.0:
                a2_violations += 1
        elif g > 0.0:
            degenerate += 1
    return ConditionReport(
        min(sigmas) if sigmas else None,
        min(kappas) if kappas else None,
        a2_violations, start, degenerate,
    )


# -- trace persistence -----------------------------------------------------

def _meta_path(path) -> str:
    return f"{path}.meta.json"


def _trace_header(n: int) -> list[str]:
    """The header row of a trace CSV of n coordinates."""
    coords = [f"x_{i + 1}" for i in range(n)]
    return ["k", *coords, "f", "grad_norm", "step_norm", "alpha"]


def write_trace_csv(
    trace: DescentTrace, path, metadata: Mapping | None = None
) -> None:
    """Write a trace as CSV with 17-significant-digit decimals.

    Row k holds k, x_k, then f_values, grad_norms, step_norms and alphas at
    k, each blank past its length, under the header k, x_1..x_n, f,
    grad_norm, step_norm, alpha.  The stop reason goes to the sidecar file
    <path>.meta.json, with metadata's JSON-serialisable entries beside it
    when given; read_trace_meta returns them.
    """
    fmt = lambda v: f"{v:.17g}"
    columns = (trace.f_values, trace.grad_norms, trace.step_norms, trace.alphas)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_trace_header(len(trace.iterates[0])))
        for k, point in enumerate(trace.iterates):
            values = (fmt(c[k]) if k < len(c) else "" for c in columns)
            writer.writerow([str(k), *map(fmt, point), *values])
    with open(_meta_path(path), "w") as handle:
        json.dump({**(metadata or {}), "stop_reason": trace.stop_reason}, handle)
        handle.write("\n")


def read_trace_csv(path) -> DescentTrace:
    """Re-ingest a trace CSV written by write_trace_csv.

    The header must be the writer's for its number of coordinates, and the
    rows must have the writer's layout: k = 0, 1, ... in order, f and
    grad_norm on every row (on none of a one-row trace, whose start is
    outside the domain), step_norm and alpha on every row but the last;
    anything else raises ValueError.  Each column of the file is then the
    trace's column of the same name, without its blank cells.  The stop
    reason comes from the sidecar <path>.meta.json; a trace that has none
    reads as max_iters.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "k":
            raise ValueError(f"{path}: not a trace CSV (missing header)")
        n = len(header) - len(_trace_header(0))
        if n < 1 or header != _trace_header(n):
            raise ValueError(f"{path}: malformed trace header {header}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty trace")
    last = len(rows) - 1
    with_values = last > 0 or any(rows[0][1 + n:3 + n])
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row length mismatch: {row}")
        if row[0] != str(k):
            raise ValueError(f"{path}: row {k}: k is {row[0]!r}, expected {k}")
        if any(bool(v) != with_values for v in row[1 + n:3 + n]):
            raise ValueError(f"{path}: row {k}: f and grad_norm must be on every row")
        if any(bool(v) != (k < last) for v in row[3 + n:]):
            raise ValueError(
                f"{path}: row {k}: step_norm and alpha must be on every row but the last"
            )
    columns = list(zip(*rows))
    iterates = tuple(zip(*(map(float, c) for c in columns[1:1 + n])))
    values = (tuple(float(v) for v in c if v) for c in columns[1 + n:])
    stop_reason = read_trace_meta(path).get("stop_reason", STOP_MAX_ITERS)
    return DescentTrace(iterates, *values, stop_reason)


def read_trace_meta(path) -> dict:
    """The sidecar <path>.meta.json of a trace written by write_trace_csv.

    Returns {} where there is no sidecar.  Raises ValueError where it is not
    a JSON object with a valid stop_reason; any other entries are returned
    as written (a sidecar may hold the stop reason alone).
    """
    meta_path = _meta_path(path)
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        return {}
    if not isinstance(meta, dict) or meta.get("stop_reason") not in STOP_REASONS:
        raise ValueError(f"{meta_path}: no valid stop_reason")
    return meta
