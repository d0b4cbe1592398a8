"""Post-hoc convergence diagnostics on descent traces.

Covers cluster-point detection, direction trails against a line pencil
(empirical certification that approach directions stay inside the safe set),
sequence-level Lojasiewicz certificates, and convergence-rate classification
into linear / sublinear regimes.

Descent tails are a few dozen entries long, where numpy's fixed cost per
call outweighs its elementwise speed, and its results depend on the CPU
features it dispatches to.  So every diagnostic is a loop over Python
floats, with one rule: every sum is math.fsum, correctly rounded, or the
plain sum of at most two squares where that is finite, which equals it;
logs and powers are the C library's, math.log and Python's **.  The
diagnostics therefore have the same bits on every CPU and every Python
version: no numpy ufunc, pairwise blocking or BLAS product (whose summation
order OpenBLAS picks by CPU) reaches them.  direction_trail runs each
iterate through a kernel generated per pencil (singan._Directions).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .descent import DescentTrace
from .singan import LinePencil

# Least relative margin of a trail's tail directions (min_tail_pencil).
SAFE_MARGIN = 1e-9

# Cluster detection: trailing window fraction and diameter tolerance.
CLUSTER_WINDOW_FRACTION = 0.1
CLUSTER_TOL = 1e-8
# Snap detected cluster points to nearby rationals with small denominators.
SNAP_MAX_DENOMINATOR = 16

DEFAULT_THETA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 11))


@dataclass(frozen=True)
class DirectionTrail:
    """Unit approach directions of a trace with their signed pencil values,
    and the tail's margin min_tail_pencil (direction_trail)."""

    center: tuple[float, ...]
    unit_directions: tuple[tuple[float, ...], ...]
    pencil_values: tuple[float, ...]
    min_tail_pencil: float
    skipped: int = 0


@dataclass(frozen=True)
class LojasiewiczCertificate:
    """(theta, c, L) certificate of the sequence-level gradient inequality.

    Feasible means |f_k - L|^(1-theta) <= c * ||grad_k|| held with finite c at
    every checked tail index.
    """

    theta: float
    c: float
    L: float
    tail_start: int
    feasible: bool


@dataclass(frozen=True)
class RateEstimate:
    regime: str  # "linear" | "sublinear" | "inconclusive"
    q: float | None = None
    p: float | None = None
    theta_from_p: float | None = None
    fit_quality: float = 0.0
    detail: str = ""


def _mean_point(points: Sequence[tuple[float, ...]]) -> tuple[float, ...]:
    n = len(points[0])
    return tuple(math.fsum(p[i] for p in points) / len(points) for i in range(n))


def _snap(coords: tuple[float, ...]) -> tuple[float, ...]:
    snapped = []
    for v in coords:
        frac = Fraction(v).limit_denominator(SNAP_MAX_DENOMINATOR)
        snapped.append(float(frac) if abs(float(frac) - v) <= CLUSTER_TOL else v)
    return tuple(snapped)


def cluster_window(trace: DescentTrace) -> tuple[tuple[float, ...], float]:
    """The mean of the trailing window and its spread, the largest distance
    of a window point from the mean; find_cluster_point's window.  A window
    with a non-finite coordinate has neither: both are NaN."""
    points = trace.iterates
    if not points:
        raise ValueError("empty trace")
    window = max(2, math.ceil(len(points) * CLUSTER_WINDOW_FRACTION))
    window = min(window, len(points))
    tail = points[-window:]
    if not all(map(math.isfinite, itertools.chain.from_iterable(tail))):
        return (math.nan,) * len(tail[0]), math.nan
    center = _mean_point(tail)
    return center, max(math.dist(p, center) for p in tail)


def find_cluster_point(trace: DescentTrace) -> tuple[float, ...] | None:
    """Detect a settled trailing window and return its (snapped) mean.

    Returns None unless the window's spread (cluster_window) is at most
    CLUSTER_TOL: for divergent traces, and for a window with a non-finite
    coordinate, whose spread is NaN.
    """
    center, spread = cluster_window(trace)
    if not spread <= CLUSTER_TOL:
        return None
    return _snap(center)


def direction_trail(
    trace: DescentTrace,
    pencil: LinePencil,
    tail_start: int | None = None,
) -> DirectionTrail:
    """Evaluate the leading pencil polynomial on unit approach directions.

    Iterates equal to the pencil base are skipped and counted.  The margin
    is min |f_{n_min}(u)| over the tail, divided by the largest
    |coefficient| of f_{n_min}, so the sign and scale in which f is written
    do not move it.  The tail is the directions of the iterates from index
    tail_start on (default: the second half of the iterates; _tail_index
    reads tail_start), or the last direction where no iterate there has
    one.

    One loop over the iterates: each goes through the pencil's direction
    kernel (singan._Directions, kept with the pencil), which forms its
    difference from the base, squared norm, square root, unit direction and
    f_{n_min} there, with the bits of a loop that divides by the root of
    math.fsum's squared norm and evaluates Polynomial.eval_float; a squared
    norm past the float range raises fsum's OverflowError.  The minimum is
    taken over Python floats, so a NaN value counts.
    """
    kernel = pencil._directions
    if len(kernel.centre) != len(trace.iterates[0]):
        raise ValueError("pencil base dimension does not match trace")
    if tail_start is None:
        tail_start = len(trace.iterates) // 2
    tail_start = _tail_index(trace, tail_start)
    rows = [kernel.evaluate(x) for x in trace.iterates]
    kept = [row for row in rows if row is not None]
    if not kept:
        raise ValueError("every iterate coincides with the pencil base")
    units, values = zip(*kept)
    # The directions of iterates before tail_start come first in values.
    first = min(tail_start - rows[:tail_start].count(None), len(values) - 1)
    min_tail = min(map(abs, values[first:])) / kernel.scale
    return DirectionTrail(kernel.centre, units, values, min_tail, len(rows) - len(kept))


def _tail_index(trace: DescentTrace, tail_start: int) -> int:
    """tail_start as an index into the iterates: a negative one reads as 0,
    and one past the last iterate raises ValueError."""
    last = len(trace.iterates) - 1
    if tail_start > last:
        raise ValueError(f"tail_start {tail_start} beyond last iterate {last}")
    return max(tail_start, 0)


def trail_certifies_safe_approach(trail: DirectionTrail) -> bool:
    """Closed-set membership proxy: the tail's margin exceeds SAFE_MARGIN."""
    return trail.min_tail_pencil > SAFE_MARGIN


def estimate_limit(f_values: Sequence[float]) -> tuple[float, str]:
    """Estimate lim f_k from a monotone tail.

    Fits |f_{k+1} - f_k| against a geometric model on the last 20 decrements;
    when the fit is convincing (R^2 >= 0.99 and contraction ratio < 1) the
    remaining geometric tail is added to the last value, otherwise the last
    value is returned unchanged.  So is it where a value or decrement in the
    window is not finite: log|inf| or log|NaN| has no line to fit.

    The decrements, their magnitudes, their logs (math.log) and the fit
    (_linear_fit) are Python floats (see the module docstring).
    Raises ValueError where f_values is empty.
    """
    if len(f_values) == 0:
        raise ValueError("empty f_values")
    if len(f_values) < 3:
        return f_values[-1], "last_value"
    window = f_values[-21:]
    # inf - inf is NaN, and a decrement past the float range inf.
    diffs = list(map(operator.sub, window[1:], window))
    mags = list(map(abs, diffs))
    # A value that is not finite makes the decrements beside it not finite.
    if len(mags) < 4 or not all(map(math.isfinite, mags)) or 0.0 in mags:
        return f_values[-1], "last_value"
    ks = list(map(float, range(len(mags))))
    slope, _, r2 = _linear_fit(ks, list(map(math.log, mags)))
    rho = math.exp(slope)
    if r2 >= 0.99 and rho < 1.0:
        # Remaining decrements sum to d_last * rho / (1 - rho).
        return f_values[-1] + diffs[-1] * rho / (1.0 - rho), "geometric_fit"
    return f_values[-1], "last_value"


def _is_monotone(values: Sequence[float]) -> bool:
    rest = values[1:]
    return all(map(operator.ge, rest, values)) or all(map(operator.le, rest, values))


def lojasiewicz_probe(
    trace: DescentTrace,
    tail_start: int,
    theta_grid: Sequence[float] = DEFAULT_THETA_GRID,
    L: float | None = None,
) -> list[LojasiewiczCertificate]:
    """Fit certificate constants c(theta) on a trace tail for each theta.

    A zero gradient paired with a nonzero residual anywhere on the tail makes
    every certificate infeasible (the classic alternating counterexample); in
    that case the non-monotonicity of the tail is not an error, since the
    obstruction itself is the reported diagnosis.  A non-monotone tail with
    positive gradients violates the monotone-images hypothesis and raises.
    A NaN ratio r ** (1 - theta) / ||grad|| at a tail point with a residual
    (a NaN gradient norm, or a NaN residual through L) makes c NaN, and the
    certificate infeasible: the inequality was never checked there.
    The powers r ** (1 - theta) are Python's (see the module docstring).
    The tail is the trace from index tail_start on (_tail_index), and the
    certificates record the index read; without L, a tail of the last
    iterate alone, where estimate_limit takes L, raises ValueError.
    """
    tail_start = _tail_index(trace, tail_start)
    thetas = sorted(theta_grid)
    for theta in thetas:
        _check_theta(theta)
    tail_f = trace.f_values[tail_start:]
    tail_g = trace.grad_norms[tail_start:]
    if not tail_f:
        raise ValueError("empty tail")
    if L is None:
        if len(tail_f) == 1:
            raise ValueError("tail is the last iterate alone, where L is estimated")
        L, _ = estimate_limit(trace.f_values)
    residuals = [abs(fv - L) for fv in tail_f]
    # The tail points with a residual.  A zero gradient at one of them (the
    # obstruction, or a NaN residual) makes every c infinite.
    live = [(r, g) for r, g in zip(residuals, tail_g) if r != 0.0]
    stalled = [r for r, g in live if g == 0.0]
    obstruction = any(r > 0.0 for r in stalled)
    if not obstruction and not _is_monotone(tail_f):
        raise ValueError("f-values are not monotone on the tail")
    certificates = []
    for theta in thetas:
        if stalled:
            c = math.inf
        else:
            exponent = 1.0 - theta
            ratios = [r ** exponent / g for r, g in live]
            # max() would pass over a NaN after the first entry.
            c = math.nan if any(map(math.isnan, ratios)) else max([0.0] + ratios)
        certificates.append(LojasiewiczCertificate(
            theta, c, L, tail_start, not stalled and math.isfinite(c)
        ))
    return certificates


def _check_theta(theta: float) -> None:
    """A Lojasiewicz exponent lies in [0, 1); residual ** (1 - theta) needs it."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"Lojasiewicz exponent theta={theta!r} lies outside [0, 1)")


def verify_certificate(
    trace: DescentTrace, cert: LojasiewiczCertificate
) -> int:
    """Count pointwise violations of a certificate on its tail (0 = sound).

    Python's powers, as in lojasiewicz_probe, so a certificate is checked
    with the bits it was fitted with.  The tail is the trace from index
    cert.tail_start on (_tail_index).  A point where the inequality does not
    hold is a violation, one where either side is NaN included.
    """
    _check_theta(cert.theta)
    L, exponent, c, slack = cert.L, 1.0 - cert.theta, cert.c, 1 + 1e-12
    tail_start = _tail_index(trace, cert.tail_start)
    violations = 0
    for fv, g in zip(trace.f_values[tail_start:], trace.grad_norms[tail_start:]):
        if not abs(fv - L) ** exponent <= c * g * slack:
            violations += 1
    return violations


def _linear_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept and its R^2.

    The closed-form centred fit: slope = sum(dx*dy) / sum(dx*dx), with dx and
    dy the deviations from the means, and intercept = mean(y) - slope*mean(x).
    It agrees with an SVD least-squares solve to rounding, at a small
    fraction of its cost.  An x without spread (constant, or with squared
    deviations that underflow) has no slope and raises ValueError.
    A constant y has nothing to explain, so its R^2 is 0; the rounded mean
    can leave its deviations tiny but non-zero, so the test is on the values
    themselves.  One loop over Python floats: every sum, the means' and the
    four sums of products alike, is math.fsum (the module's summation rule),
    so the fit is the same on every CPU and Python version.
    """
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    ss_x = math.fsum(map(operator.mul, dx, dx))
    if ss_x == 0.0 or min(x) == max(x):
        raise ValueError("cannot fit a line: x has no spread")
    slope = math.fsum(map(operator.mul, dx, dy)) / ss_x
    intercept = y_mean - slope * x_mean
    if min(y) == max(y):
        return slope, intercept, 0.0
    residuals = [b - slope * a for a, b in zip(dx, dy)]
    ss_res = math.fsum(map(operator.mul, residuals, residuals))
    return slope, intercept, 1.0 - ss_res / math.fsum(map(operator.mul, dy, dy))


MIN_FIT_QUALITY = 0.95


def rate_classify(
    trace: DescentTrace,
    x_star: Sequence[float],
    tail_start: int,
) -> RateEstimate:
    """Classify ||x* - x_k|| decay as geometric or power-law on the tail.

    Fits log r_k against k (linear regime, slope -> q = e^slope) and against
    log k (sublinear regime, slope -> p with theta = p/(1+2p)); the regime
    with the better R^2 wins, and both below the quality floor means
    inconclusive.  The tail is the iterates from index tail_start on
    (_tail_index); a distance on it that is not finite (a NaN or infinite
    coordinate) makes the estimate inconclusive, with nothing fitted.
    """
    center = tuple(float(v) for v in x_star)
    start = _tail_index(trace, tail_start)
    dists = list(map(math.dist, trace.iterates[start:], itertools.repeat(center)))
    if not all(map(math.isfinite, dists)):
        k, r = next((k, r) for k, r in enumerate(dists, start) if not math.isfinite(r))
        return RateEstimate(
            "inconclusive", detail=f"distance {r} to x* at iterate {k} is not finite"
        )
    ks = [k for k, r in enumerate(dists, start) if r > 0.0]
    rs = [r for r in dists if r > 0.0]
    if len(rs) < 3:
        detail = f"tail too short: {len(rs)} non-zero distances to x*, fewer than 3"
        return RateEstimate("inconclusive", detail=detail)
    if all(map(operator.eq, rs, rs[1:])):
        detail = f"distances constant on tail: each is {rs[0]}"
        return RateEstimate("inconclusive", detail=detail)
    # Small noise wiggles are tolerated; reject only an aggregate non-decrease.
    if rs[-1] >= rs[0]:
        detail = f"distances not decreasing on tail: last {rs[-1]} >= first {rs[0]}"
        return RateEstimate("inconclusive", detail=detail)
    log_r = list(map(math.log, rs))
    lin_slope, _, lin_r2 = _linear_fit(list(map(float, ks)), log_r)
    # The ks ascend from tail_start >= 0, so only the first can be 0.
    first = 1 if ks[0] == 0 else 0
    if len(ks) - first >= 3:
        sub_slope, _, sub_r2 = _linear_fit(list(map(math.log, ks[first:])), log_r[first:])
    else:
        sub_slope, sub_r2 = 0.0, -math.inf
    best = max(lin_r2, sub_r2)
    if best < MIN_FIT_QUALITY:
        detail = f"both regressions fit poorly: best R^2 {best:.6g} < {MIN_FIT_QUALITY}"
        return RateEstimate("inconclusive", fit_quality=best, detail=detail)
    if lin_r2 >= sub_r2:
        return RateEstimate("linear", q=math.exp(lin_slope), fit_quality=lin_r2)
    p = -sub_slope
    return RateEstimate(
        "sublinear", p=p, theta_from_p=p / (1.0 + 2.0 * p), fit_quality=sub_r2
    )
