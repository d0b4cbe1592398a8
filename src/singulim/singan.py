"""Singularity analysis along lines through a candidate cluster point.

Given a bounded rational objective and a point x*, the denominator restricted
to lines t -> x* + t*d expands as sum_n f_n(d) t^n with polynomial
coefficients f_n.  The first index n_min with f_{n_min} not identically zero
defines the safe-direction set {d : f_{n_min}(d) != 0}; along safe directions
the function extends to an analytic series in t whose trailing coefficients
obey a linear recurrence, which in turn yields a conservative lower bound on
the radius of convergence.

Membership and the series are decided from exact values at the direction (a
float coordinate is an exact dyadic rational), so neither depends on the sign
or scale in which p and q are written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polyalg import Polynomial, RationalFunction, _as_fraction, _check_point
from .polyalg import _exact_numerators, _integer_form, _scaled_point

# Default truncation order for Taylor lines.
DEFAULT_N_TERMS = 64


class UnboundedFunctionError(ValueError):
    """Numerator vanishes to lower order than the denominator along lines.

    The directional limit blows up along safe directions, so the function is
    not bounded near the base point and the convergence machinery does not
    apply.
    """

    def __init__(self, base, numer_order: int, n_min: int):
        self.base = tuple(base)
        self.numer_order = numer_order
        self.n_min = n_min
        super().__init__(
            f"numerator vanishes to order {numer_order} < denominator order "
            f"{n_min} at {self.base}; function is unbounded near this point"
        )


class UnsafeDirectionError(ValueError):
    """A direction on which the leading pencil polynomial vanishes."""

    def __init__(self, direction, pencil: Polynomial):
        self.direction = tuple(direction)
        self.pencil = pencil
        super().__init__(
            f"unsafe direction {self.direction}: the leading pencil "
            f"polynomial {pencil!r} vanishes there"
        )


@dataclass(frozen=True)
class LinePencil:
    """Line-restricted Maclaurin coefficient data of a rational function.

    denom_coeffs[k] and numer_coeffs[k] are polynomials in the direction
    variables; denom_coeffs[k] is identically zero for k < n_min and
    denom_coeffs[n_min] is not.
    """

    base: tuple
    denom_coeffs: tuple[Polynomial, ...]
    numer_coeffs: tuple[Polynomial, ...]
    n_min: int

    @property
    def leading(self) -> Polynomial:
        return self.denom_coeffs[self.n_min]

    @cached_property
    def _series_forms(self) -> tuple[list, list[int]]:
        """The integer forms (polyalg._integer_form) of f_{n_min}, ... of
        the denominator, then of the numerator, with the degree n of each
        f_n: what taylor_line evaluates, built on first use and kept with
        the pencil."""
        polys = self.denom_coeffs[self.n_min:] + self.numer_coeffs[self.n_min:]
        degrees = [*range(self.n_min, len(self.denom_coeffs)),
                   *range(self.n_min, len(self.numer_coeffs))]
        return [_integer_form(p.terms) for p in polys], degrees


@dataclass(frozen=True)
class DirectionVerdict:
    direction: tuple
    in_safe_set: bool
    pencil_value: float
    limit_value: float | None


@dataclass(frozen=True)
class TaylorLine:
    """Truncated series of t -> f(x* + t*d) along a safe direction."""

    direction: tuple
    coeffs: tuple[float, ...]
    recurrence_order: int
    recurrence_weights: tuple[float, ...]
    radius_lower_bound: float


def analyze_singularity(f: RationalFunction, x_star: Sequence) -> LinePencil:
    """Build the line pencil of f at x* and locate the common vanishing order.

    x_star must have exact rational coordinates so that the identically-zero
    tests deciding n_min are exact decisions.  The pencil is that of f's
    pair p/q in x (f.numer and f.denom).

    At the origin and at each of f's declared singular points the pencil is
    built once per function and kept on f: later calls there return the same
    object, so the Taylor shifts are not repeated.  The pencil is therefore
    shared and must not be mutated.  At any other point a fresh pencil is
    built and nothing is kept.
    """
    base = tuple(_as_fraction(v) for v in x_star)
    _check_point(base, f.n_vars)
    memo = f._pencils
    pencil = memo.get(base)
    if pencil is not None:
        return pencil
    numer, denom = f.numer, f.denom
    denom_coeffs = tuple(denom.compose_line(base))
    numer_coeffs = tuple(numer.compose_line(base))
    if numer.is_zero():
        # f = 0 is bounded: zero coefficients as far as the denominator's,
        # so every limit and series coefficient is 0.
        numer_coeffs = (numer,) * len(denom_coeffs)
    # Constructors reject a zero denominator, and a Taylor shift keeps it
    # nonzero.
    n_min = next(k for k, poly in enumerate(denom_coeffs) if not poly.is_zero())
    numer_order = next(
        (k for k, poly in enumerate(numer_coeffs) if not poly.is_zero()),
        len(numer_coeffs),
    )
    if numer_order < n_min:
        raise UnboundedFunctionError(base, numer_order, n_min)
    pencil = LinePencil(base, denom_coeffs, numer_coeffs, n_min)
    if base in memo:
        memo[base] = pencil
    return pencil


def direction_verdict(pencil: LinePencil, d: Sequence) -> DirectionVerdict:
    """Decide safe-set membership of a direction and its directional limit.

    Every direction is decided exactly, f_{n_min}(d) != 0, from the integer
    forms kept with the pencil, as in taylor_line; pencil_value and
    limit_value are the exact values at d/||d||_inf, each rounded to float
    once.  Both coefficients are homogeneous of degree n_min, so that exact
    scaling keeps the sign and the limit, and the value cannot overflow.
    """
    direction, _ = _checked_direction(pencil, d)
    forms, _ = pencil._series_forms
    split = len(pencil.denom_coeffs) - pencil.n_min
    # d = point/s, so d/||d||_inf = point/max|point|, and each value at it is
    # the value at the integer point over max|point|^n_min.
    point, _ = _scaled_point(direction)
    (lead, numer), denominator = _exact_numerators([forms[0], forms[split]], point, 1)
    scale = denominator * max(map(abs, point)) ** pencil.n_min
    limit = float(Fraction(numer, lead)) if lead else None
    return DirectionVerdict(direction, lead != 0, float(Fraction(lead, scale)), limit)


def _checked_direction(pencil: LinePencil, d: Sequence) -> tuple[tuple, bool]:
    """d as a tuple, and whether all its coordinates are exact rationals."""
    direction = tuple(d)
    if len(direction) != len(pencil.base):
        raise ValueError(
            f"direction has {len(direction)} coordinates, expected {len(pencil.base)}"
        )
    if all(v == 0 for v in direction):
        raise ValueError("direction must be nonzero")
    return direction, all(isinstance(v, (int, Fraction)) for v in direction)


def series_divide(numer: Sequence, denom: Sequence, n_terms: int) -> list:
    """Leading coefficients of the power-series quotient numer/denom.

    Long division: c_n = (a_n - sum_{j>=1} g_j c_{n-j}) / g_0.  Works over
    Fractions or floats; denom[0] must be nonzero.
    """
    if not denom or denom[0] == 0:
        raise ZeroDivisionError("leading denominator coefficient is zero")
    g0 = denom[0]
    coeffs = []
    for n in range(n_terms):
        s = numer[n] if n < len(numer) else 0
        for j in range(1, min(n, len(denom) - 1) + 1):
            s -= denom[j] * coeffs[n - j]
        coeffs.append(s / g0)
    return coeffs


def recurrence_weights(denom: Sequence) -> list:
    """Weights w_j = -g_j/g_0 so that c_n = sum_j w_j c_{n-j} for trailing n."""
    if not denom or denom[0] == 0:
        raise ZeroDivisionError("leading denominator coefficient is zero")
    return [-g / denom[0] for g in denom[1:]]


def extend_by_recurrence(seed: Sequence, weights: Sequence, n_terms: int) -> list:
    """Extend a coefficient sequence to n_terms entries using the recurrence.

    seed must contain at least len(weights) initial coefficients.
    """
    order = len(weights)
    if len(seed) < order:
        raise ValueError("seed shorter than recurrence order")
    coeffs = list(seed)
    while len(coeffs) < n_terms:
        n = len(coeffs)
        coeffs.append(sum(weights[j] * coeffs[n - 1 - j] for j in range(order)))
    return coeffs


def companion_radius_bound(weights: Sequence[float]) -> float:
    """Convergence-radius lower bound k / max(1, ||C||_inf) with k = 1/2.

    C is the companion matrix of the recurrence: its first row holds the
    weights, the remaining rows a shifted identity, so the infinity norm is
    max(sum |w_j|, 1) for a nonempty recurrence.
    """
    if not weights:
        # Terminating series (polynomial quotient): any |t| < 1/2 is covered.
        return 0.5
    norm = max(sum(abs(float(w)) for w in weights), 1.0)
    return 0.5 / max(1.0, norm)


def taylor_line(
    f: RationalFunction,
    x_star: Sequence,
    d: Sequence,
    n_terms: int = DEFAULT_N_TERMS,
    pencil: LinePencil | None = None,
) -> TaylorLine:
    """Series data of t -> f(x* + t*d) along a safe direction d.

    Both line-restricted numerator and denominator are divided by t^{n_min}
    before the power-series division; the recurrence weights come from the
    shifted denominator.  Each pencil polynomial is evaluated exactly at d,
    in one pass over the integer forms kept with the pencil, and divided by
    the exact f_{n_min}(d), which decides membership as in direction_verdict;
    each ratio stays exact at an exact direction and is rounded once at a
    float one.  n_terms, the number of series coefficients, is at least 1.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms {n_terms} must be at least 1")
    if pencil is None:
        pencil = analyze_singularity(f, x_star)
    direction, exact = _checked_direction(pencil, d)
    forms, degrees = pencil._series_forms
    # d = point/s.  f_n is homogeneous of degree n, so f_n(d) = f_n(point)/s^n:
    # each f_n is evaluated at the integer point and brought over the common
    # denominator by one power of s.
    point, s = _scaled_point(direction)
    values, _ = _exact_numerators(forms, point, 1)
    if not values[0]:
        raise UnsafeDirectionError(direction, pencil.leading)
    if s != 1:
        top = max(degrees)
        values = [v * s ** (top - n) for v, n in zip(values, degrees)]
    # Numerators over one denominator, so v / lead is the exact ratio.  Int
    # true division rounds it correctly and, over a positive lead, gives an
    # exact 0 as 0.0: the bits of float(Fraction(v, lead)).
    if values[0] < 0:
        values = [-v for v in values]
    lead = values[0]
    ratios = [Fraction(v, lead) if exact else v / lead for v in values]
    split = len(pencil.denom_coeffs) - pencil.n_min
    denom, numer = ratios[:split], ratios[split:]
    while denom[-1] == 0:
        denom.pop()
    weights = recurrence_weights(denom)
    coeffs = series_divide(numer, denom, n_terms)
    return TaylorLine(
        direction=tuple(float(v) for v in direction),
        coeffs=tuple(float(c) for c in coeffs),
        recurrence_order=len(weights),
        recurrence_weights=tuple(float(w) for w in weights),
        radius_lower_bound=companion_radius_bound(weights),
    )


def series_eval(coeffs: Sequence[float], t: float) -> float:
    """Evaluate a truncated power series by Horner's rule."""
    total = 0.0
    for c in reversed(list(coeffs)):
        total = total * t + float(c)
    return total
