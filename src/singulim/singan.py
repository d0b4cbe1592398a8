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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import add, sub
from typing import Sequence

from .polyalg import TERMS_PER_STATEMENT, Polynomial, RationalFunction
from .polyalg import _as_fraction, _check_point, _compile_terms, _define, _eval_compiled
from .polyalg import _ExactEvaluator, _floats, _fsum, _integer_form, _Kernel
from .polyalg import _max_degrees, _power_table, _scaled_point, _Shared, _sum_source
from .polyalg import _tuple_source

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
    def _series(self) -> _ExactEvaluator:
        """The exact evaluator (polyalg._ExactEvaluator) of f_{n_min}, ...
        of the denominator, then of the numerator: what taylor_line and
        direction_verdict evaluate, built on first use and kept with the
        pencil."""
        polys = self.denom_coeffs[self.n_min:] + self.numer_coeffs[self.n_min:]
        return _ExactEvaluator([_integer_form(p.terms) for p in polys])

    @cached_property
    def _directions(self) -> "_Directions":
        """The direction kernel of f_{n_min} at the base (_Directions): what
        limits.direction_trail evaluates at each iterate, built on first use
        and kept with the pencil."""
        return _Directions(self.base, self.leading)


class _Directions(_Kernel):
    """The unit direction from the base of a line pencil to a point, and
    the pencil's leading polynomial f_{n_min} there.

    evaluate(x), x a float point of the base's length, returns the tuple
    u = d / ||d|| and f_{n_min}(u), or None where ||d|| is 0.  Each d_i is
    the float difference x_i - c_i, c the base rounded to floats (centre);
    ||d||^2 is the plain sum of the squares d_i * d_i up to two
    coordinates, which has math.fsum's bits wherever it is finite, and
    math.fsum of them elsewhere and above two coordinates, which raises
    OverflowError where finite squares sum past the largest float; ||d|| is
    its square root; f_{n_min}(u) has the bits of Polynomial.eval_float(u).
    scale is f_{n_min}'s largest |coefficient| as a float.

    evaluate follows _Kernel's first-use rule: the generated code forms the
    same differences, squares, sum, root, quotients, powers and products
    (_sum_source), each from the same operands, so it returns loop's bits.
    """

    def __init__(self, base: Sequence, leading: Polynomial):
        self.centre = tuple(float(v) for v in base)
        self.compiled = _compile_terms(leading.terms, 0)
        self.max_deg = _max_degrees(len(self.centre), [leading.terms])
        self.scale = float(max(map(abs, leading.terms.values())))

    def loop(self, x: Sequence[float]):
        """The reference: one coordinate at a time, then eval_float's sum."""
        _check_point(x, len(self.centre))
        delta = list(map(sub, x, self.centre))
        squares = [d * d for d in delta]
        norm_sq = reduce(add, squares)
        if len(squares) > 2 or not norm_sq < math.inf:
            norm_sq = math.fsum(squares)
        norm = math.sqrt(norm_sq)
        if norm == 0.0:
            return None
        unit = tuple([d / norm for d in delta])
        return unit, _eval_compiled(self.compiled, _power_table(unit, self.max_deg))

    def generate(self, name: str):
        """loop as the straight-line function name over d0, d1, ... and the
        unit coordinates u0, u1, ...; a base coordinate 0.0 takes no
        difference, since v - 0.0 is v bit for bit."""
        n = len(self.centre)
        delta, unit = [f"d{i}" for i in range(n)], [f"u{i}" for i in range(n)]
        shared = _Shared()
        lines = [f"def {name}(x):", f"    {_tuple_source(delta)} = x"]
        lines += [f"    {d} = {d} - {c!r}" for d, c in zip(delta, self.centre) if c]
        squares = [shared.power("d", i, 2, lines) for i in range(n)]
        if n > 2:
            lines.append(f"    norm_sq = fsum({_tuple_source(squares)})")
        else:
            lines += [
                f"    norm_sq = {' + '.join(squares)}",
                "    if not norm_sq < inf:",
                f"        norm_sq = fsum({_tuple_source(squares)})",
            ]
        lines += [
            "    norm = sqrt(norm_sq)",
            "    if norm == 0.0:",
            "        return None",
            *(f"    {u} = {d} / norm" for u, d in zip(unit, delta)),
            *_sum_source("value", self.compiled, "u", shared),
            f"    return {_tuple_source(unit)}, value",
        ]
        return _define(lines, name, "<singan directions>", {
            "fsum": math.fsum, "sqrt": math.sqrt, "inf": math.inf,
        })


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

    Every direction is decided exactly, f_{n_min}(d) != 0, by the exact
    evaluator of the series forms kept with the pencil, which taylor_line
    reads too; its leading values are f_{n_min} of the denominator and of
    the numerator.  pencil_value and limit_value are the exact values at
    d/||d||_inf, each rounded to float once.  Both coefficients are
    homogeneous of degree n_min, so that exact scaling keeps the sign and
    the limit; far from the origin, or with large coefficients, either can
    still pass the float range, and a ValueError names it.
    """
    direction, _ = _checked_direction(pencil, d)
    # d = point/s, so d/||d||_inf = point/max|point|, and each value at it is
    # the value at the integer point over max|point|^n_min.
    point, _ = _scaled_point(direction)
    values, denominator = pencil._series.evaluate(point, 1)
    lead, numer = values[0], values[len(pencil.denom_coeffs) - pencil.n_min]
    scale = denominator * max(map(abs, point)) ** pencil.n_min
    limit = _floats([Fraction(numer, lead)], "limit")[0] if lead else None
    value = _floats([Fraction(lead, scale)], "pencil value")[0]
    return DirectionVerdict(direction, lead != 0, value, limit)


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
    Fractions or floats; denom[0] must be nonzero.  For a recurrence of
    order r = len(denom) - 1 >= 1, the terms n >= r come from the generated
    loop of order r (_series_tail), which forms the same products and
    differences in the same order, so every term is this loop's: the same
    bits over floats, the same Fraction over exact inputs.
    """
    if not denom or denom[0] == 0:
        raise ZeroDivisionError("leading denominator coefficient is zero")
    g0, rest = denom[0], denom[1:]
    order = len(rest)
    head = min(order, n_terms) if order else n_terms
    coeffs = []
    for n in range(head):
        s = numer[n] if n < len(numer) else 0
        # g_j c_{n-j} for j = 1, 2, ... in turn: float bits depend on the order.
        for g, c in zip(rest, reversed(coeffs)):
            s -= g * c
        coeffs.append(s / g0)
    if head < n_terms:
        _series_tail(order)(numer, g0, rest, coeffs, n_terms)
    return coeffs


@cache
def _series_tail(order: int):
    """The function tail(numer, g0, rest, coeffs, n_terms) that appends
    series_divide's terms order, ..., n_terms - 1 to coeffs, which holds
    the first order of them.  It keeps g_1, ..., g_order and the last order
    terms c1 = c_{n-1}, c2 = c_{n-2}, ... as locals, and subtracts g1*c1,
    g2*c2, ... from a_n left to right, TERMS_PER_STATEMENT products per
    statement.  Generated once per order and kept by the cache.
    """
    g = [f"g{j}" for j in range(1, order + 1)]
    c = [f"c{j}" for j in range(1, order + 1)]
    products = [f"{gj} * {cj}" for gj, cj in zip(g, c)]
    return _define([
        "def tail(numer, g0, rest, coeffs, n_terms):",
        f"    {_tuple_source(g)} = rest",
        f"    {_tuple_source(reversed(c))} = coeffs",
        "    size = len(numer)",
        "    append = coeffs.append",
        f"    for n in range({order}, n_terms):",
        "        s = numer[n] if n < size else 0",
        *(
            "        s = " + " - ".join(["s", *products[k:k + TERMS_PER_STATEMENT]])
            for k in range(0, order, TERMS_PER_STATEMENT)
        ),
        "        c0 = s / g0",
        "        append(c0)",
        f"        {_tuple_source(c)} = {_tuple_source(['c0', *c[:-1]])}",
    ], "tail", "<singan series>")


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
        # Left to right from the integer 0, so Fractions stay exact and
        # floats have the same bits on every Python version.
        terms = (weights[j] * coeffs[n - 1 - j] for j in range(order))
        coeffs.append(reduce(add, terms, 0))
    return coeffs


def companion_radius_bound(weights: Sequence[float]) -> float:
    """Convergence-radius lower bound k / max(1, ||C||_inf) with k = 1/2.

    C is the companion matrix of the recurrence: its first row holds the
    weights, the remaining rows a shifted identity, so the infinity norm is
    max(sum |w_j|, 1) for a nonempty recurrence.  The sum is _fsum's,
    correctly rounded on every Python version, and inf past the float range.
    """
    if not weights:
        # Terminating series (polynomial quotient): any |t| < 1/2 is covered.
        return 0.5
    norm = max(_fsum([abs(float(w)) for w in weights]), 1.0)
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
    shifted denominator.  Each pencil polynomial is evaluated exactly at d
    by the exact evaluator of the series forms kept with the pencil
    (polyalg._ExactEvaluator), and divided by the exact f_{n_min}(d), which
    decides membership as in direction_verdict; each ratio stays exact at
    an exact direction and is rounded once at a float one.  n_terms, the
    number of series coefficients, is at least 1.  A ratio, coefficient,
    weight or direction coordinate past the float range raises a ValueError
    that names it.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms {n_terms} must be at least 1")
    if pencil is None:
        pencil = analyze_singularity(f, x_star)
    direction, exact = _checked_direction(pencil, d)
    # f_n is homogeneous of degree n, so at d = point/s the evaluator brings
    # each f_n(point) over the common denominator s^top by s^(top - n).
    values, _ = pencil._series.evaluate(*_scaled_point(direction))
    if not values[0]:
        raise UnsafeDirectionError(direction, pencil.leading)
    # Numerators over one denominator, so v / lead is the exact ratio.  Int
    # true division rounds it correctly and, over a positive lead, gives an
    # exact 0 as 0.0: the bits of float(Fraction(v, lead)).
    if values[0] < 0:
        values = [-v for v in values]
    lead = values[0]
    ratios = [Fraction(v, lead) for v in values] if exact else _floats(
        values, "pencil value {} over the leading one", lambda v: v / lead)
    split = len(pencil.denom_coeffs) - pencil.n_min
    denom, numer = ratios[:split], ratios[split:]
    while denom[-1] == 0:
        denom.pop()
    coeffs = _floats(series_divide(numer, denom, n_terms), "series coefficient {}")
    weights = _floats(recurrence_weights(denom), "recurrence weight {}")
    return TaylorLine(
        direction=tuple(_floats(direction, "direction coordinate {}")),
        coeffs=tuple(coeffs),
        recurrence_order=len(weights),
        recurrence_weights=tuple(weights),
        radius_lower_bound=companion_radius_bound(weights),
    )


def series_eval(coeffs: Sequence[float], t: float) -> float:
    """Evaluate a truncated power series by Horner's rule."""
    total = 0.0
    for c in reversed(list(coeffs)):
        total = total * t + float(c)
    return total
