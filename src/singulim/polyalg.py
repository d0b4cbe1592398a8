"""Exact sparse multivariate polynomial and rational-function algebra.

A polynomial is stored as a dict mapping exponent tuples to Fraction
coefficients; zero coefficients are never stored, so structural equality of
the term maps is exact polynomial equality.  All symbolic work (arithmetic,
differentiation, line composition, identically-zero tests) happens over the
rationals; floats appear only in evaluation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

# Exponent tuple: entry i is the power of variable x_i.
Exponent = tuple[int, ...]
# Float form of a polynomial: per term, the coefficient and the nonzero
# (variable, power) pairs.
Compiled = list[tuple[float, tuple[tuple[int, int], ...]]]

# Evaluation treats |denominator| below this as a domain violation; the
# optimizer's stopping rules keep iterates off the singular set itself.
DENOM_FLOOR = 1e-300


class DimensionError(ValueError):
    """Operands disagree on the ambient variable count."""


class DomainViolation(ValueError):
    """Rational-function evaluation at a point where the denominator vanishes."""

    def __init__(self, point: Sequence[float], denom_value: float):
        self.point = tuple(point)
        self.denom_value = denom_value
        super().__init__(
            f"denominator value {denom_value!r} below floor at point {self.point}"
        )


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("n_vars", "terms", "_compiled")

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        self.n_vars = n_vars
        canonical: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n_vars:
                    raise DimensionError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {n_vars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    canonical[exps] = coeff
        self.terms = canonical
        self._compiled: Compiled | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: _as_fraction(value)})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise IndexError(f"variable index {index} out of range for {n_vars} vars")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        """Exact identically-zero test (canonical term map is empty)."""
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        if not self.terms:
            return 0
        return max(sum(exps) for exps in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.n_vars}, 0)"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return f"Polynomial({self.n_vars}, {' + '.join(parts)})"

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionError(
                f"mixed variable counts {self.n_vars} and {other.n_vars}"
            )

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n_vars, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Polynomial(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_same_vars(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Polynomial(self.n_vars, out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        s = _as_fraction(scalar)
        return Polynomial(self.n_vars, {e: c * s for e, c in self.terms.items()})

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.n_vars, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact formal partial derivative with respect to variable index."""
        if not 0 <= index < self.n_vars:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff * e
        return Polynomial(self.n_vars, out)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.n_vars)]

    # -- evaluation --------------------------------------------------------

    def _check_point(self, x: Sequence) -> None:
        if len(x) != self.n_vars:
            raise DimensionError(
                f"point has {len(x)} coordinates, polynomial has {self.n_vars} vars"
            )

    def _compile(self) -> Compiled:
        if self._compiled is None:
            self._compiled = _compile_terms(self.terms)
        return self._compiled

    def eval_float(self, x: Sequence[float]) -> float:
        """Floating-point evaluation with per-variable power caching."""
        self._check_point(x)
        if not self.terms:
            return 0.0
        max_deg = _max_degrees(self.n_vars, [self.terms])
        powers = _power_table([float(v) for v in x], max_deg)
        return _eval_compiled(self._compile(), powers)

    def eval_exact(self, x: Sequence) -> Fraction:
        """Exact evaluation at a point with rational coordinates."""
        self._check_point(x)
        coords = [_as_fraction(v) for v in x]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term *= coords[i] ** e
            total += term
        return total

    def shift(self, offset: Sequence) -> "Polynomial":
        """Exact Taylor shift: the polynomial d -> p(offset + d)."""
        self._check_point(offset)
        return Polynomial(self.n_vars, _shift_terms(self.terms, offset))

    # -- line composition --------------------------------------------------

    def compose_line(self, base: Sequence) -> list["Polynomial"]:
        """Maclaurin coefficients of t -> p(base + t*d) as polynomials in d.

        Returns [f_0, ..., f_deg] with p(base + t*d) = sum_n f_n(d) t^n; each
        f_n lives in n_vars direction variables.  With q(d) = p(base + d) the
        exact Taylor shift, p(base + t*d) = q(t*d), so f_n is the homogeneous
        degree-n part of q.
        """
        self._check_point(base)
        out: list[dict[Exponent, Fraction]] = [{} for _ in range(self.degree() + 1)]
        for exps, coeff in _shift_terms(self.terms, base).items():
            out[sum(exps)][exps] = coeff
        return [Polynomial(self.n_vars, bucket) for bucket in out]


def _integral(value):
    """A rational as an int when it is integral, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def _shift_terms(terms: Mapping[Exponent, Fraction], offset: Sequence) -> dict:
    """Coefficients of d -> p(offset + d), p given by its term map.

    Shifts one variable at a time, each by the Horner recurrence
    a_j += c * a_{j+1} on the coefficient rows of that variable.  Integral
    values stay ints, which keeps integer problems out of Fraction arithmetic.
    """
    terms = {exps: _integral(c) for exps, c in terms.items()}
    for i, value in enumerate(offset):
        c = _integral(_as_fraction(value))
        if c == 0:
            continue
        rows: dict[Exponent, list] = {}
        for exps, coeff in terms.items():
            row = rows.setdefault(exps[:i] + exps[i + 1:], [])
            if len(row) <= exps[i]:
                row.extend([0] * (exps[i] + 1 - len(row)))
            row[exps[i]] = coeff
        terms = {}
        for rest, row in rows.items():
            top = len(row) - 1
            for k in range(top):
                for j in range(top - 1, k - 1, -1):
                    row[j] += c * row[j + 1]
            for e, coeff in enumerate(row):
                if coeff:
                    terms[rest[:i] + (e,) + rest[i:]] = coeff
    return terms


def _compile_terms(terms: Mapping[Exponent, Rational]) -> Compiled:
    return [
        (float(coeff), tuple((i, e) for i, e in enumerate(exps) if e))
        for exps, coeff in terms.items()
    ]


def _compile_partial(terms: Mapping[Exponent, Rational], index: int) -> Compiled:
    """_compile_terms of the partial derivative in x_index, built term by term."""
    out = []
    for exps, coeff in terms.items():
        e = exps[index]
        if e:
            lowered = exps[:index] + (e - 1,) + exps[index + 1:]
            out.append(
                (float(coeff * e), tuple((i, k) for i, k in enumerate(lowered) if k))
            )
    return out


def _eval_compiled(compiled: Compiled, powers: Sequence[Sequence[float]]) -> float:
    total = 0.0
    for coeff, pairs in compiled:
        term = coeff
        for i, e in pairs:
            term *= powers[i][e]
        total += term
    return total


def _max_degrees(
    n_vars: int, term_maps: Iterable[Mapping[Exponent, Rational]]
) -> list[int]:
    max_deg = [0] * n_vars
    for terms in term_maps:
        for exps in terms:
            for i, e in enumerate(exps):
                if e > max_deg[i]:
                    max_deg[i] = e
    return max_deg


def _power_table(coords: Sequence[float], max_deg: Sequence[int]) -> list[list[float]]:
    table = []
    for x, top in zip(coords, max_deg):
        row = [1.0] * (top + 1)
        for e in range(1, top + 1):
            row[e] = row[e - 1] * x
        table.append(row)
    return table


class _Chart:
    """Compiled float form of p/q and of its gradient in one frame of coordinates."""

    __slots__ = ("numer", "denom", "grad_numer", "grad_denom", "max_deg")

    def __init__(self, n_vars: int, numer_terms: Mapping, denom_terms: Mapping):
        numer_terms = {e: _integral(c) for e, c in numer_terms.items()}
        denom_terms = {e: _integral(c) for e, c in denom_terms.items()}
        self.numer = _compile_terms(numer_terms)
        self.denom = _compile_terms(denom_terms)
        self.grad_numer = [_compile_partial(numer_terms, i) for i in range(n_vars)]
        self.grad_denom = [_compile_partial(denom_terms, i) for i in range(n_vars)]
        self.max_deg = _max_degrees(n_vars, [numer_terms, denom_terms])


class RationalFunction:
    """Quotient p/q of two polynomials over the same variables.

    The domain is implicitly the set where the denominator does not vanish;
    evaluation below DENOM_FLOOR raises DomainViolation.

    Float evaluation of p and q as stored, an expansion about the origin,
    loses accuracy far from it, where the terms cancel.  singular_points
    declares the points where accuracy matters.  A point nearer to a declared
    point c than to the origin and to every other declared point is
    evaluated in the local chart p(c + d)/q(c + d) at d = x - c.  The chart
    is centred at the float nearest c, so x - c is exact near c (Sterbenz),
    and its coefficients are exact Taylor shifts of p and q, built on first
    use.
    """

    __slots__ = ("numer", "denom", "_origin", "_centres", "_charts")

    def __init__(
        self, numer: Polynomial, denom: Polynomial, singular_points: Iterable = ()
    ):
        if numer.n_vars != denom.n_vars:
            raise DimensionError("numerator and denominator variable counts differ")
        if denom.is_zero():
            raise ValueError("denominator is identically zero")
        self.numer = numer
        self.denom = denom
        self._origin = (0.0,) * numer.n_vars
        centres = [self._origin]
        for point in singular_points:
            centre = tuple(float(v) for v in point)
            if len(centre) != numer.n_vars:
                raise DimensionError(
                    f"singular point {centre} has {len(centre)} coordinates, "
                    f"function has {numer.n_vars} vars"
                )
            if centre not in centres:
                centres.append(centre)
        # None when the origin's chart, p/q as stored, serves every point.
        self._centres = tuple(centres) if len(centres) > 1 else None
        self._charts: dict[tuple[float, ...], _Chart] = {}

    @property
    def n_vars(self) -> int:
        return self.numer.n_vars

    def _local(self, x: Sequence[float]) -> tuple[_Chart, list[float]]:
        """The chart that evaluates x, and x in that chart's coordinates."""
        if len(x) != self.n_vars:
            raise DimensionError(
                f"point has {len(x)} coordinates, function has {self.n_vars} vars"
            )
        coords = [float(v) for v in x]
        centre = self._origin
        if self._centres is not None:
            centre = min(self._centres, key=functools.partial(math.dist, coords))
        chart = self._charts.get(centre)
        if chart is None:
            if centre is self._origin:
                chart = _Chart(self.n_vars, self.numer.terms, self.denom.terms)
            else:
                chart = _Chart(
                    self.n_vars,
                    _shift_terms(self.numer.terms, centre),
                    _shift_terms(self.denom.terms, centre),
                )
            self._charts[centre] = chart
        if centre is not self._origin:
            coords = [a - b for a, b in zip(coords, centre)]
        return chart, coords

    def eval(self, x: Sequence[float]) -> float:
        chart, coords = self._local(x)
        powers = _power_table(coords, chart.max_deg)
        q = _eval_compiled(chart.denom, powers)
        if abs(q) < DENOM_FLOOR:
            raise DomainViolation(x, q)
        return _eval_compiled(chart.numer, powers) / q

    def eval_exact(self, x: Sequence) -> Fraction:
        q = self.denom.eval_exact(x)
        if q == 0:
            raise DomainViolation([float(v) for v in x], 0.0)
        return self.numer.eval_exact(x) / q

    def eval_and_grad(self, x: Sequence[float]) -> tuple[float, list[float]]:
        """Value and gradient via grad(p/q) = (q grad p - p grad q) / q^2."""
        chart, coords = self._local(x)
        powers = _power_table(coords, chart.max_deg)
        q = _eval_compiled(chart.denom, powers)
        if abs(q) < DENOM_FLOOR:
            raise DomainViolation(x, q)
        p = _eval_compiled(chart.numer, powers)
        grad = [
            (q * _eval_compiled(gp, powers) - p * _eval_compiled(gq, powers)) / (q * q)
            for gp, gq in zip(chart.grad_numer, chart.grad_denom)
        ]
        return p / q, grad

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # Cross-multiplied exact identity, not merely structural equality.
        return (self.numer * other.denom - other.numer * self.denom).is_zero()

    def __repr__(self) -> str:
        return f"RationalFunction({self.numer!r}, {self.denom!r})"


def check_finite_point(x: Sequence[float]) -> tuple[float, ...]:
    """Validate that a point has only finite coordinates."""
    coords = tuple(float(v) for v in x)
    if any(math.isnan(v) or math.isinf(v) for v in coords):
        raise ValueError(f"point {coords} has non-finite coordinates")
    return coords
