"""Exact sparse multivariate polynomial and rational-function algebra.

A polynomial is stored as a dict mapping exponent tuples to exact rational
coefficients: an int where the coefficient is integral, else a Fraction.
Zero coefficients are never stored, so structural equality of the term maps
is exact polynomial equality (2 == Fraction(2), with equal hashes and equal
str).  All symbolic work (arithmetic, differentiation, line composition,
identically-zero tests) happens over the rationals, and floats appear only
in evaluation.  Products, sums, scaling, partials and composition work on
integer numerators over one common denominator, and exact evaluation on the
point scaled to integers, so each result takes one gcd per coefficient or
value instead of one per operation.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from numbers import Integral, Rational
from operator import add
from typing import Iterable, Mapping, Sequence

# Exponent tuple: entry i is the power of variable x_i.
Exponent = tuple[int, ...]
# Float form of a polynomial: per term, the coefficient and the nonzero
# (variable, power) pairs.
Compiled = list[tuple[float, tuple[tuple[int, int], ...]]]
# Terms per statement of generated code: compile() recurses once per operator
# of an expression and overflows the C stack on sums of a few thousand terms.
TERMS_PER_STATEMENT = 200

# Evaluation treats |denominator| below this as a domain violation (q of
# RationalFunction's pair p/q, in its chart's scale: _Evaluator); the
# optimizer's stopping rules keep iterates off the singular set itself.
DENOM_FLOOR = 1e-300

# Stop reasons of RationalFunction.descend (descent exports them).
STOP_GRAD_TOL = "grad_tol"
STOP_F_STATIONARY = "f_stationary"
STOP_MAX_ITERS = "max_iters"


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
    """value as a Fraction; ValueError naming value where it is an infinite
    or NaN float, TypeError where it is not a rational, float or string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite, so it has no exact rational value")
    if isinstance(value, (Rational, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _check_point(x: Sequence, n_vars: int) -> None:
    """Raise DimensionError unless the point x has n_vars coordinates."""
    if len(x) != n_vars:
        raise DimensionError(f"point has {len(x)} coordinates, expected {n_vars}")


def _floats(values: Iterable, name: str, convert=float) -> list[float]:
    """convert(v) for each of values, a float.  Where one passes the float
    range, a ValueError names it, name.format(k) for the k-th, in place of
    the bare OverflowError of int and Fraction division."""
    floats = []
    try:
        for v in values:
            floats.append(convert(v))
    except OverflowError:
        raise ValueError(f"{name.format(len(floats))} is past the float range") from None
    return floats


def _is_int(value) -> bool:
    """An integer, numpy's included, but not a bool: int() would truncate
    2.5 to 2 and read True as 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _coefficient(value):
    """value as a stored coefficient: an int where it is integral, else a Fraction."""
    if type(value) is int:
        return value
    value = _as_fraction(value)
    return value.numerator if value.denominator == 1 else value


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if not _is_int(n_vars):
            raise ValueError(f"n_vars {n_vars!r} must be an integer")
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        self.n_vars = int(n_vars)
        canonical: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if not all(map(_is_int, exps)):
                    raise ValueError(f"exponents {tuple(exps)} must be integers")
                exps = tuple(map(int, exps))
                if len(exps) != n_vars:
                    raise DimensionError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {n_vars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = _coefficient(coeff)
                if coeff != 0:
                    canonical[exps] = coeff
        self.terms = canonical

    @classmethod
    def _trusted(cls, n_vars: int, terms: dict) -> "Polynomial":
        """A polynomial that takes terms as they are, unchecked.

        terms must be canonical: exponent tuples of length n_vars, no zero
        coefficient, ints where integral.  It is not copied.
        """
        poly = cls.__new__(cls)
        poly.n_vars = n_vars
        poly.terms = terms
        return poly

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
        da, a = _integer_form(self.terms)
        db, b = _integer_form(other.terms)
        d = math.lcm(da, db)
        if d != da:
            a = {e: c * (d // da) for e, c in a.items()}
        if d != db:
            b = {e: c * (d // db) for e, c in b.items()}
        out = dict(a)
        for exps, coeff in b.items():
            out[exps] = out.get(exps, 0) + coeff
        return _polynomial(self.n_vars, out, d)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n_vars, {e: -c for e, c in self.terms.items()})

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
        da, a = _integer_form(self.terms)
        db, b = _integer_form(other.terms)
        return _polynomial(self.n_vars, _mul_terms(a, b), da * db)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        s = _as_fraction(scalar)
        d, numerators = _integer_form(self.terms)
        k = s.numerator
        return _polynomial(
            self.n_vars, {e: c * k for e, c in numerators.items()}, d * s.denominator
        )

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
        d, numerators = _partial_form(_integer_form(self.terms), index)
        return _polynomial(self.n_vars, numerators, d)

    # -- evaluation --------------------------------------------------------

    def eval_float(self, x: Sequence[float]) -> float:
        """Floating-point evaluation, summing the terms in dict order, each
        its coefficient times its monomial (_eval_compiled): where the
        coefficient is +-2^j, the bits of the coefficient-first product."""
        _check_point(x, self.n_vars)
        max_deg = _max_degrees(self.n_vars, [self.terms])
        return _eval_compiled(_compile_terms(self.terms, 0), _power_table(x, max_deg))

    def eval_exact(self, x: Sequence) -> Fraction:
        """Exact evaluation at a point with rational coordinates."""
        _check_point(x, self.n_vars)
        values, d = _exact_numerators([_integer_form(self.terms)], *_scaled_point(x))
        return Fraction(values[0], d)

    def shift(self, offset: Sequence) -> "Polynomial":
        """Exact Taylor shift: the polynomial d -> p(offset + d)."""
        _check_point(offset, self.n_vars)
        return Polynomial._trusted(self.n_vars, _shift_terms(self.terms, offset))

    def compose(self, inner: Sequence["Polynomial"]) -> "Polynomial":
        """Exact substitution: x -> p(u_0(x), ..., u_{m-1}(x)).

        inner holds one polynomial u_k per variable of p, all in the same
        variables x.
        """
        if len(inner) != self.n_vars or not inner:
            raise DimensionError(
                f"{len(inner)} inner polynomials for {self.n_vars} variables"
            )
        n_vars = inner[0].n_vars
        for u in inner:
            u._check_same_vars(inner[0])
        # u_k = n_k / d_k with integer n_k.  A term c * prod u_k^e_k of p is
        # summed as c * prod n_k^e_k * d_k^(top_k - e_k) over the common
        # denominator prod d_k^top_k, top_k the highest power of u_k in p.
        d, numerators = _integer_form(self.terms)
        forms = [_integer_form(u.terms) for u in inner]
        tops = _max_degrees(self.n_vars, [self.terms])
        for (d_k, _), top in zip(forms, tops):
            d *= d_k ** top
        one = (0,) * n_vars
        # powers[k][e] is n_k^e, extended on demand.
        powers = [[{one: 1}] for _ in inner]
        out: dict[Exponent, int] = {}
        for exps, coeff in numerators.items():
            for (d_k, _), top, e in zip(forms, tops, exps):
                if d_k != 1:
                    coeff *= d_k ** (top - e)
            term = {one: coeff}
            for row, (_, n_k), e in zip(powers, forms, exps):
                while len(row) <= e:
                    row.append(_mul_terms(row[-1], n_k))
                if e:
                    term = _mul_terms(term, row[e])
            for key, c in term.items():
                out[key] = out.get(key, 0) + c
        return _polynomial(n_vars, out, d)

    # -- line composition --------------------------------------------------

    def compose_line(self, base: Sequence) -> list["Polynomial"]:
        """Maclaurin coefficients of t -> p(base + t*d) as polynomials in d.

        Returns [f_0, ..., f_deg] with p(base + t*d) = sum_n f_n(d) t^n; each
        f_n lives in n_vars direction variables.  With q(d) = p(base + d) the
        exact Taylor shift, p(base + t*d) = q(t*d), so f_n is the homogeneous
        degree-n part of q.
        """
        _check_point(base, self.n_vars)
        out: list[dict[Exponent, Fraction]] = [{} for _ in range(self.degree() + 1)]
        for exps, coeff in _shift_terms(self.terms, base).items():
            out[sum(exps)][exps] = coeff
        return [Polynomial._trusted(self.n_vars, bucket) for bucket in out]


def _integer_form(terms: Mapping[Exponent, Rational]) -> tuple[int, Mapping]:
    """(d, numerators): d the lcm of the coefficients' denominators, and the
    term map times d, all ints.  An all-int term map is returned as it is."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = math.lcm(d, c.denominator)
    if d == 1:
        return 1, terms
    return d, {
        e: c * d if type(c) is int else c.numerator * (d // c.denominator)
        for e, c in terms.items()
    }


def _polynomial(n_vars: int, numerators: Mapping[Exponent, int], d: int) -> Polynomial:
    """The polynomial numerators / d, zero terms left out."""
    if d == 1:
        terms = {e: c for e, c in numerators.items() if c}
    else:
        terms = {e: _coefficient(Fraction(c, d)) for e, c in numerators.items() if c}
    return Polynomial._trusted(n_vars, terms)


def _mul_terms(a: Mapping[Exponent, int], b: Mapping[Exponent, int]) -> dict:
    """The product of two integer term maps, zero terms left out.

    Terms come in the order of their first product, so results keep the
    term order, and with it the float evaluation order, that products of
    Fraction term maps had.
    """
    out: dict[Exponent, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _partial_form(form: tuple[int, Mapping], index: int) -> tuple[int, dict]:
    """The integer form (_integer_form) of the partial derivative in x_index."""
    d, numerators = form
    # Lowering the power of x_index keeps distinct exponents distinct.
    return d, {
        exps[:index] + (exps[index] - 1,) + exps[index + 1:]: c * exps[index]
        for exps, c in numerators.items()
        if exps[index]
    }


def _ratio(value) -> tuple[int, int]:
    """value as an integer over a positive one: a finite float's through
    float.as_integer_ratio, the denominator a power of two, and anything
    else's through _as_fraction, which raises for inf and NaN."""
    if isinstance(value, float) and math.isfinite(value):
        return value.as_integer_ratio()
    c = _as_fraction(value)
    return c.numerator, c.denominator


def _scaled_point(x: Sequence) -> tuple[list[int], int]:
    """(n, s): x = n/s with integer n, s the lcm of the coordinates'
    denominators (for floats, all powers of two, the largest of them)."""
    ratios = [_ratio(v) for v in x]
    s = math.lcm(*(b for _, b in ratios))
    return [a * (s // b) for a, b in ratios], s


def _exact_numerators(
    forms: Sequence[tuple[int, Mapping]], point: Sequence[int], s: int
) -> tuple[list[int], int]:
    """Exact values at x = point/s of polynomials in integer form.

    Returns their integer numerators over one common denominator D.  With
    top the highest degree and d the lcm of the forms' denominators, D is
    d * s^top, and the numerator of d_f * p = sum_e C_e x^e is the sum of the
    integer terms (d/d_f) * C_e * point^e * s^(top - |e|).
    """
    top = max(max(map(sum, numerators), default=0) for _, numerators in forms)
    d = math.lcm(*(d_f for d_f, _ in forms))
    # powers[i][e] is point_i^e, and s_powers[e] is s^e.
    powers = []
    for n in point:
        row = [1, n]
        while len(row) <= top:
            row.append(row[-1] * n)
        powers.append(row)
    s_powers = [1]
    while len(s_powers) <= top:
        s_powers.append(s_powers[-1] * s)
    totals = []
    for d_f, numerators in forms:
        total = 0
        for exps, term in numerators.items():
            if s != 1:
                term *= s_powers[top - sum(exps)]
            for row, e in zip(powers, exps):
                if e:
                    term *= row[e]
            total += term
        totals.append(total * (d // d_f))
    return totals, d * s_powers[top]


def _shift_terms(terms: Mapping[Exponent, Rational], offset: Sequence) -> dict:
    """Coefficients of d -> p(offset + d), p given by its term map.

    Shifts one variable at a time, each by the Horner recurrence
    a_j += c * a_{j+1} on the coefficient rows of that variable, in integer
    numerators over one common denominator, and returns the coefficients in
    the stored form, ints where integral.  For an offset c = a/b and T the
    highest power of the variable, a row sum_j a_j y^j is shifted as
    P(z) = sum_j a_j b^(T-j) z^j, whose coefficients stay integers, by the
    integer a; then P(b*y + a) = b^T * sum_j a_j (y + c)^j, so entry j of the
    shifted row times b^j is the new numerator over a denominator b^T times
    larger.
    """
    d, numerators = _integer_form(terms)
    for i, value in enumerate(offset):
        c = _as_fraction(value)
        if c == 0:
            continue
        a, b = c.numerator, c.denominator
        rows: dict[Exponent, list] = {}
        for exps, coeff in numerators.items():
            row = rows.setdefault(exps[:i] + exps[i + 1:], [])
            if len(row) <= exps[i]:
                row.extend([0] * (exps[i] + 1 - len(row)))
            row[exps[i]] = coeff
        # An integer offset (b = 1) needs no scaling.
        scaled = b != 1
        if scaled:
            top = max(map(len, rows.values()), default=1) - 1
            b_powers = [b ** j for j in range(top + 1)]
            d *= b_powers[top]
        numerators = {}
        for rest, row in rows.items():
            last = len(row) - 1
            if scaled:
                for j in range(last + 1):
                    row[j] *= b_powers[top - j]
            for k in range(last):
                for j in range(last - 1, k - 1, -1):
                    row[j] += a * row[j + 1]
            for e, coeff in enumerate(row):
                if coeff:
                    if scaled:
                        coeff *= b_powers[e]
                    numerators[rest[:i] + (e,) + rest[i:]] = coeff
    return _polynomial(len(offset), numerators, d).terms


def _binary_exponent(value: Rational) -> int:
    """The e with 2^e <= |value| < 2^(e+1), value a non-zero rational."""
    n, d = abs(value.numerator), value.denominator
    e = n.bit_length() - d.bit_length()
    return e if n << max(-e, 0) >= d << max(e, 0) else e - 1


def _rounded(n: int, d: int, k: int) -> float:
    """n * 2^k / d as a float: int true division rounds it once, correctly,
    as float(Fraction(n * 2^k, d)) does."""
    return (n << k) / d if k >= 0 else n / (d << -k)


def _compile_terms(terms: Mapping[Exponent, Rational], k: int) -> Compiled:
    """The float form of the term map times 2^k, each coefficient rounded once."""
    return [
        (_rounded(coeff.numerator, coeff.denominator, k),
         tuple((i, e) for i, e in enumerate(exps) if e))
        for exps, coeff in terms.items()
    ]


def _compile_gradient(
    terms: Mapping[Exponent, Rational], compiled: Compiled, n_vars: int, k: int
) -> list[Compiled]:
    """_compile_terms(_, k) of each partial derivative, in one pass over the
    terms; compiled is _compile_terms(terms, k), whose (variable, power)
    pairs it reuses."""
    out: list[Compiled] = [[] for _ in range(n_vars)]
    for coeff, (_, pairs) in zip(terms.values(), compiled):
        for j, (i, e) in enumerate(pairs):
            lowered = ((i, e - 1),) if e > 1 else ()
            value = _rounded(coeff.numerator * e, coeff.denominator, k)
            out[i].append((value, pairs[:j] + lowered + pairs[j + 1:]))
    return out


def _eval_compiled(compiled: Compiled, powers: Sequence[Sequence[float]]) -> float:
    """The sum of the terms, left to right from 0.0, each its coefficient
    times its monomial, the product of its powers left to right.

    Where the coefficient is +-2^j, c*(a*b) has the bits of (c*a)*b short of
    under- and overflow; otherwise both carry the same error bound.  The
    monomial starts from 1.0, which multiplies exactly.
    """
    total = 0.0
    for coeff, pairs in compiled:
        monomial = 1.0
        for i, e in pairs:
            monomial *= powers[i][e]
        total += coeff * monomial
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


def _power_name(var: str, index: int, power: int) -> str:
    return f"{var}{index}" if power == 1 else f"{var}{index}_{power}"


def _list_source(items: Sequence[str]) -> str:
    return "[" + ", ".join(items) + "]"


def _tuple_source(items: Iterable[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _sum_lines(name: str, terms: Sequence[str], first: str = "0.0") -> list[str]:
    """Statements that leave the sum of the terms, left to right from first,
    in name: one per TERMS_PER_STATEMENT terms, the first from first itself,
    so that compile() folds a sum of literals from 0.0 (or the integer 0)
    into one."""
    lines = []
    for start in range(0, max(len(terms), 1), TERMS_PER_STATEMENT):
        chunk = terms[start:start + TERMS_PER_STATEMENT]
        lines.append(f"    {name} = " + " + ".join([name if start else first, *chunk]))
    return lines


def _fsum(terms: Sequence[float]) -> float:
    """math.fsum(terms), or where it raises, past the largest float or at
    inf + -inf, the plain sum of the terms from 0.0, left to right."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return reduce(add, terms, 0.0)


def _step_sum_line(name: str, terms: Sequence[str]) -> str:
    """The statement, in descend's loop, that leaves _fsum(terms) in name:
    up to two terms the plain sum from 0.0, which has fsum's bits where
    fsum returns (both round correctly) and is _fsum's where it raises."""
    if len(terms) > 2:
        return f"        {name} = fsum({_tuple_source(terms)})"
    return f"        {name} = " + " + ".join(["0.0", *terms])


class _Shared:
    """The names of the values that one generated function shares.  Each
    is formed once per call, at its first reader in emission order, whose
    lines receive the statements that form it; later readers read the name:

    - a power var{i}_{e}, formed as var{i}_{e-1} * var{i}, _power_table's
      chain, after any lower power not yet formed;
    - the monomial a*b*... of a term c*(a*b*...) with two or more powers
      and c != 1.0, named m0, m1, ...;
    - each distinct Jacobian sum du_k/dv_i of a level, named after its
      first (i, k).
    """

    def __init__(self):
        self.tops: dict[tuple[str, int], int] = {}
        self.monomials: dict[tuple[str, tuple], str] = {}
        self.sums: dict[tuple[str, tuple], str] = {}

    def power(self, var: str, i: int, e: int, lines: list[str]) -> str:
        """The name of var{i} to the power e."""
        top = self.tops.get((var, i), 1)
        for d in range(top + 1, e + 1):
            lines.append(f"    {var}{i}_{d} = {_power_name(var, i, d - 1)} * {var}{i}")
        self.tops[(var, i)] = max(top, e)
        return _power_name(var, i, e)

    def monomial(self, var: str, pairs: tuple, lines: list[str]) -> str:
        """The name of the product of the powers pairs of var0, var1, ...,
        left to right."""
        name = self.monomials.get((var, pairs))
        if name is None:
            product = "*".join(self.power(var, i, e, lines) for i, e in pairs)
            name = self.monomials[(var, pairs)] = f"m{len(self.monomials)}"
            lines.append(f"    {name} = {product}")
        return name

    def sum(self, name: str, compiled: Compiled, var: str, lines: list[str]) -> str:
        """The name of _eval_compiled(compiled) over the powers of var0,
        var1, ...: name where no equal term list was summed before, else
        the first one's name; equal term lists give equal bits."""
        key = (var, tuple(compiled))
        if key not in self.sums:
            self.sums[key] = name
            lines += _sum_source(name, compiled, var, self)
        return self.sums[key]


def _sum_source(name: str, compiled: Compiled, var: str, shared: _Shared) -> list[str]:
    """Statements that leave _eval_compiled(compiled, powers) in name.

    powers are those of var0, var1, ...  Same products, each coefficient
    times its monomial formed left to right, and the same sum, left to right
    from 0.0, so the value has the same bits.  A coefficient 1.0 in front of
    powers is left out, 1.0*a being a exactly, and a single power is its own
    monomial; any other term reads its monomial by name.  The statements
    start with those that form the powers and monomials (_Shared) that this
    sum is the first to read.
    """
    lines = []
    terms = _term_sources(compiled, var, shared, lines)
    return lines + _sum_lines(name, terms)


def _term_sources(
    compiled: Compiled, var: str, shared: _Shared, lines: list[str], literal=repr
) -> list[str]:
    """Each term of compiled as an expression, its coefficient written by
    literal, times its monomial, read by name (_Shared) where it has two or
    more powers and the coefficient is not 1; the statements that form
    powers and monomials go to lines."""
    terms = []
    for coeff, pairs in compiled:
        if len(pairs) > 1 and coeff != 1:
            factors = [shared.monomial(var, pairs, lines)]
        else:
            factors = [shared.power(var, i, e, lines) for i, e in pairs]
        terms.append("*".join(([] if coeff == 1 and pairs else [literal(coeff)]) + factors))
    return terms


def _indent(lines: Sequence[str]) -> list[str]:
    return ["    " + line for line in lines]


def _chain_sum(
    grad: Sequence[float], row: Sequence[tuple[int, Compiled]], powers: Sequence
) -> float:
    """sum_k grad[k] * du_k/dv_i over a Jacobian row, each du_k/dv_i summed
    from the power table of v, left to right from 0.0."""
    total = 0.0
    for k, du in row:
        total += grad[k] * _eval_compiled(du, powers)
    return total


def _define(lines: Sequence[str], name: str, filename: str, namespace: dict | None = None):
    """The function name that the statements lines define, compiled under
    filename, which tracebacks show, with namespace (else an empty dict) as
    its globals.  It is taken out of them: left in, it would form a
    reference cycle with that dict."""
    namespace = {} if namespace is None else namespace
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace.pop(name)


class _Kernel:
    """The first-use rule of every generated kernel.

    A subclass supplies loop, the reference, and generate(name), which
    returns the function name as straight-line code (_define) that gives
    loop's results: the same bits for floats, the same integers for exact
    values.  The first evaluate call runs loop, and the second generates
    evaluate, which goes into the instance dict (hence no __slots__), where
    it shadows the method, so later calls run it directly and no stored
    bound method ties the kernel into a reference cycle: it is freed with
    its owner, not by the cycle collector.  Generating costs about a
    hundred looped calls, which a kernel called once never pays back.

    The kernels are the float charts (_Evaluator), the exact evaluators of
    integer forms (_ExactEvaluator), and a line pencil's direction kernel
    (singan._Directions), which limits.direction_trail runs at each iterate.
    Two generated functions do not follow this rule: _Evaluator.descend,
    which has no loop and is generated on its own first call, and the
    series tails (singan._series_tail), generated once per recurrence order
    on first use and shared by every series of that order; series_divide
    still loops the first r terms of each series.
    """

    _used = False

    @property
    def generated(self) -> bool:
        """Whether evaluate runs generated code yet."""
        return "evaluate" in vars(self)

    def evaluate(self, *args, **kwargs):
        """loop's results, from loop on the first call and generated code
        after it; see the class docstring."""
        if not self._used:
            self._used = True
            return self.loop(*args, **kwargs)
        self.evaluate = self.generate("evaluate")
        return self.evaluate(*args, **kwargs)


class _Evaluator(_Kernel):
    """Float value of a quotient chart p/q, with its gradient, and the
    Armijo descent through it.

    It is the chart about centre = centres[index], centres the function's
    centre table (RationalFunction).  Called as evaluate(x, grad) at a point
    x of the right length, it evaluates p and q at d = x - centre, each
    coordinate converted by float(); the centre's length is the number of
    variables.  It raises DomainViolation(x, q) where |q| < DENOM_FLOOR,
    else returns f = p/q, or (f, grad f) when grad is set.  The gradient is
    (q grad p - p grad q) / q^2, or (grad p - f grad q) / q where q^2 is
    zero, subnormal or infinite although q is not.  p and q are compiled
    times 2^k, the power of two that brings q's largest |coefficient| into
    [1, 2), each coefficient rounded once from the exact product.  That
    commutes with every float operation short of under- and overflow, and
    both tests see q in that scale.

    Built with levels = (L_0, ..., L_{n-1}), a chain of inner levels, it
    evaluates a composed pair.  Each level is a tuple of term maps: those of
    L_0 in the n_vars variables, those of L_j in the values of L_{j-1}, and
    numer and denom in the values of the last level.  Each level is summed
    from the powers of the level before, then p and q from the last
    level's powers.  The quotient rule is taken once, on f, at the last
    level's variables, and that gradient is carried back through each
    level's Jacobian: df/dv_i = sum_k df/du_k * du_k/dv_i, k ascending over
    the values u_k of the level that depend on v_i.  Cancellation inside a
    value then costs accuracy relative to that value only, where p and q
    multiplied out in x would repeat it in every term.  Without levels p
    and q are in the n_vars variables themselves.

    The evaluator also runs steepest descent with Armijo backtracking:
    descend(*state, rows, sigma, factor, initial_step, grad_tol, max_trials)
    from (x, fx, gnorm) = rows[-1][:3] and state = (grad, first_step, alpha,
    budget, iters), what the rows do not hold.
    Each pass of its loop stops on iters == 0 (max_iters) or gnorm <=
    grad_tol (grad_tol), then searches: it backtracks from alpha by
    factor, for at most budget trials, to the first
    trial t = x - alpha*grad where f is finite and fx - f >= sigma*alpha*g_sq
    > 0, g_sq = gnorm*gnorm.  The search fails after budget trials, or at
    once at a trial that rounds back to x: every smaller alpha rounds to x
    too and decreases nothing; a failed search returns f_stationary.  fx - f
    is exact whenever f lies within a factor two of fx (Sterbenz), so the
    decrease itself is compared, not f with the rounded threshold.  A trial
    below the DENOM_FLOOR test is rejected like a failed decrease.  At an
    accepted t it takes the gradient there from the powers and terms that
    gave f, so f and grad f have the bits of evaluate(t, True), and appends
    the row (t, f, ||grad f||, ||t - x||, alpha) to rows.  With s = t - x and
    y = grad f(t) - grad, the next search starts from the long two-point
    step s's / s'y where the step is odd-numbered by len(rows) before the
    append, which counts the run's steps across hand-offs and retries, and
    from the short one s'y / y'y where it is even-numbered, capped at
    initial_step; it starts from initial_step where s'y <= 0, or for the
    short step where y'y is 0 or not finite.  It has max_trials trials.
    Every norm and inner product is _fsum of the products, taken in
    coordinate order: up to two variables their plain sum, which has its
    bits (_step_sum_line).

    descend returns (stop, state), stop the stop reason, or, where centres
    holds more than one centre, (j, state) at a trial nearer centre j than
    centre index, by RationalFunction._chart's rule (_nearest): j indexes
    centres as RationalFunction holds the charts, and state and rows resume
    the same ladder at that trial in chart j.  So each trial is evaluated in
    the chart of its nearest centre, and the state carries across charts.
    descend calls _nearest only for a trial not well inside this chart's
    own half of the way to the next centre (_dispatch_lines).

    loop is the reference: term by term from power tables, each term its
    coefficient times its monomial, the product of its powers left to right
    in variable order.  Where the coefficient is +-2^j that has the bits of
    the coefficient-first product (c*a)*b..., short of under- and overflow,
    and otherwise the same error bound.  evaluate follows _Kernel's
    first-use rule: its generated form is a straight-line function that
    forms the same differences, powers, products, sums, quotients and
    comparisons, each from the same operands, so every call returns the
    same bits.  One rule names what its sums share (_Shared): each power,
    each monomial of a term with two or more powers and c != 1.0, and each
    distinct Jacobian sum is formed once per call, at its first reader in
    the text, and read by name after that; in descend one that only the
    gradient reads is formed after the Armijo test.  The first descend call
    generates descend, the descent's one implementation, with the iterate,
    the trial and the gradients as locals and the whole loop in one frame;
    the tests compare it with a Python step loop over loop.  It goes into
    the instance dict as evaluate does.  Each function is generated on its
    own first use, so a chart that is only evaluated compiles no descent,
    and one reached only by a hand-off no evaluate.  Both leave out the
    difference for each coordinate of the centre that is 0.0, since v - 0.0
    is v bit for bit (-0.0, infinities and NaN included).
    """

    def __init__(
        self,
        centres: tuple[tuple[float, ...], ...],
        index: int,
        numer: Mapping[Exponent, Rational],
        denom: Mapping[Exponent, Rational],
        levels: Sequence[Sequence[Mapping[Exponent, Rational]]] = (),
    ):
        centre = centres[index]
        term_maps = [numer, denom]
        # The variable count of each power table: x, then each level's values.
        counts = [len(centre)] + [len(level) for level in levels]
        # p and q times 2^k, with q's largest |coefficient| in [1, 2).
        k = -_binary_exponent(max(map(abs, denom.values())))
        self.values = [_compile_terms(t, k) for t in term_maps]
        self.partials = [
            _compile_gradient(t, c, counts[-1], k) for t, c in zip(term_maps, self.values)
        ]
        self.levels = [[_compile_terms(t, 0) for t in level] for level in levels]
        # jacobians[j][i]: (k, du_k/dv_i) for each value u_k of level j that
        # depends on variable v_i of the table before it.
        self.jacobians = []
        for level, compiled, n in zip(levels, self.levels, counts):
            gradients = [_compile_gradient(t, c, n, 0) for t, c in zip(level, compiled)]
            self.jacobians.append([
                [(k, g[i]) for k, g in enumerate(gradients) if g[i]] for i in range(n)
            ])
        # max_deg[j]: the highest powers in power table j, those its
        # consumers (the next level, or p and q) raise it to.
        self.max_deg = [
            _max_degrees(n, maps) for n, maps in zip(counts, [*levels, term_maps])
        ]
        self.centres, self.index, self.centre = centres, index, centre

    def descend(self, *args):
        """The Armijo descent from a state; see the class docstring."""
        self.descend = self.generate("descend")
        return self.descend(*args)

    def loop(self, x: Sequence, grad: bool):
        """The reference evaluation: term by term from power tables, in the
        order of the generated evaluate.  The power tables are those of the
        coordinates after the centre, then of each level's values."""
        coords = [float(v) - c for v, c in zip(x, self.centre)]
        tables = [_power_table(coords, self.max_deg[0])]
        for level, top in zip(self.levels, self.max_deg[1:]):
            tables.append(_power_table([_eval_compiled(c, tables[-1]) for c in level], top))
        p, q = [_eval_compiled(c, tables[-1]) for c in self.values]
        if abs(q) < DENOM_FLOOR:
            raise DomainViolation(x, q)
        f = p / q
        if not grad:
            return f
        grad_p, grad_q = (
            [_eval_compiled(c, tables[-1]) for c in row] for row in self.partials
        )
        q_sq = q * q
        if sys.float_info.min <= q_sq < math.inf:
            gradient = [(q * a - p * b) / q_sq for a, b in zip(grad_p, grad_q)]
        else:
            gradient = [(a - f * b) / q for a, b in zip(grad_p, grad_q)]
        for table, jacobian in zip(reversed(tables[:-1]), reversed(self.jacobians)):
            gradient = [_chain_sum(gradient, row, table) for row in jacobian]
        return f, gradient

    def generate(self, name: str):
        """loop (name "evaluate") as straight-line code, or the descent
        (name "descend") over that code."""
        names = [f"x{i}" for i in range(len(self.max_deg[0]))]
        shared = _Shared()
        gradient = [f"h{i}" for i in range(len(names))]
        if name == "descend":
            lines = self._descend_lines(names, gradient, shared)
        else:
            lines = [
                "def evaluate(x, grad):",
                f"    {_tuple_source(names)} = x",
                *(f"    {n} = float({n})" + (f" - {c!r}" if c else "")
                  for n, c in zip(names, self.centre)),
                *self._value_lines(shared),
                "    if abs(q) < DENOM_FLOOR:",
                "        raise DomainViolation(x, q)",
                "    f = p / q",
                "    if not grad:",
                "        return f",
                *self._gradient_lines(gradient, shared),
                f"    return f, {_list_source(gradient)}",
            ]
        return _define(lines, name, "<polyalg chart>", {
            "DENOM_FLOOR": DENOM_FLOOR, "FLOAT_MIN": sys.float_info.min,
            "inf": math.inf, "DomainViolation": DomainViolation,
            "nearest": _nearest, "isfinite": math.isfinite, "fsum": _fsum,
            "sqrt": math.sqrt, "STOP_GRAD_TOL": STOP_GRAD_TOL,
            "STOP_F_STATIONARY": STOP_F_STATIONARY, "STOP_MAX_ITERS": STOP_MAX_ITERS,
        })

    @staticmethod
    def _var(j: int) -> str:
        """The name stem of power table j's variables: x, then u{j-1}_."""
        return "x" if j == 0 else f"u{j - 1}_"

    def _value_lines(self, shared: _Shared) -> list[str]:
        """Statements that leave each level's values in u{j}_0, u{j}_1, ...,
        then p and q in p and q, from the coordinates x0, x1, ... and the
        values of shared."""
        lines = []
        for j, level in enumerate(self.levels):
            for k, compiled in enumerate(level):
                lines += _sum_source(f"u{j}_{k}", compiled, self._var(j), shared)
        last = self._var(len(self.levels))
        lines += _sum_source("p", self.values[0], last, shared)
        lines += _sum_source("q", self.values[1], last, shared)
        return lines

    def _gradient_lines(self, out: Sequence[str], shared: _Shared) -> list[str]:
        """Statements that leave loop's gradient entries in the names out,
        from p, q, f and the values of shared, which they read by name or
        form at their first read."""
        var = self._var(len(self.levels))
        # The partials of p and q in the last table's variables: p_0, ... in
        # x, p_u{j}_0, ... in a level's values.
        stem = var if self.levels else ""
        grad_p, grad_q = (
            [f"{prefix}_{stem}{i}" for i in range(len(self.max_deg[-1]))]
            for prefix in ("p", "q")
        )
        # grads[j]: the names of df/dv_i for table j's variables v.
        grads = [out] + [
            [f"f_{self._var(j)}{i}" for i in range(len(top))]
            for j, top in enumerate(self.max_deg[1:], 1)
        ]
        lines = []
        for row_names, row in zip((grad_p, grad_q), self.partials):
            for name, compiled in zip(row_names, row):
                lines += _sum_source(name, compiled, var, shared)
        pairs = list(zip(grads[-1], grad_p, grad_q))
        lines += [
            "    q_sq = q * q",
            "    if FLOAT_MIN <= q_sq < inf:",
            *(f"        {h} = (q * {a} - p * {b}) / q_sq" for h, a, b in pairs),
            "    else:",
            *(f"        {h} = ({a} - f * {b}) / q" for h, a, b in pairs),
        ]
        for j in reversed(range(len(self.levels))):
            for i, (name, row) in enumerate(zip(grads[j], self.jacobians[j])):
                products = []
                for k, compiled in row:
                    du = shared.sum(f"du{j}_{k}_{i}", compiled, self._var(j), lines)
                    products.append(f"{grads[j + 1][k]} * {du}")
                lines += _sum_lines(name, products)
        return lines

    def _dispatch_lines(
        self, trial: Sequence[str], state: str, shared: _Shared
    ) -> list[str]:
        """Statements that return (j, state) where _nearest, called on the
        trial and the centre table, returns another index j than this
        chart's: the first nearest, the origin where every distance is NaN.

        They call _nearest only where the squared distance x0^2 + x1^2 + ...
        from this chart's centre, the trial's coordinates after the centre,
        is not below r^2, r half the least distance from this centre to any
        other, shrunk by 2^-20.  Below it, every other centre is farther by
        the triangle inequality, with a margin far above the rounding error
        of that test and of math.dist: this chart's centre is _nearest's.
        inf, NaN and squares past the float range fail the test.  The
        squares are read through shared, so the value code reads them by
        name; where r^2 is below the normal range, whose rounding could
        outweigh the margin, the call runs alone.  The test pays for itself:
        on the multi3_sweep benchmark (seed 1) 15.8 of 257.4 trials per
        solve reach _nearest, and solve_ref.p50 reads 4.35 with the test
        against 4.62 without, lower in 10 of 10 alternating 8-s runs on a
        2-core VM.
        """
        search = [
            f"    j = nearest({_tuple_source(trial)}, {self.centres!r})",
            f"    if j != {self.index}:",
            f"        return j, {state}",
        ]
        least = min(math.dist(self.centre, c) for c in self.centres if c != self.centre)
        r = least / 2 * (1 - 2.0 ** -20)
        if r * r < sys.float_info.min:
            return search
        lines = []
        squares = [shared.power("x", i, 2, lines) for i in range(len(trial))]
        return lines + [f"    if not {' + '.join(squares)} < {r * r!r}:", *_indent(search)]

    def _descend_lines(
        self, names: Sequence[str], gradient: Sequence[str], shared: _Shared
    ) -> list[str]:
        """descend as statements (see the class docstring), one trial per
        pass of its inner loop; _value_lines leaves p and q at the
        coordinates names, and _gradient_lines the gradient in the names
        gradient."""
        n = len(names)
        x = [f"a{i}" for i in range(n)]
        grad = [f"g{i}" for i in range(n)]
        # Trial coordinates: t_i where the centre's coordinate is not 0.0,
        # else x_i itself.
        trial = [f"t{i}" if c else names[i] for i, c in enumerate(self.centre)]
        state = f"({_tuple_source(grad)}, first_step, alpha, budget, iters)"
        lines = [
            "def descend(grad, first_step, alpha, budget, iters,"
            " rows, sigma, factor, initial_step, grad_tol, max_trials):",
            f"    {_tuple_source(x)}, fx, gnorm = rows[-1][:3]",
            f"    {_tuple_source(grad)} = grad",
            "    while True:",
            "        if iters == 0:",
            f"            return STOP_MAX_ITERS, {state}",
            "        if gnorm <= grad_tol:",
            f"            return STOP_GRAD_TOL, {state}",
            "        g_sq = gnorm * gnorm",
            "        while True:",
            *(f"            {t} = {a} - alpha * {g}" for t, a, g in zip(trial, x, grad)),
            "            if budget <= 0 or "
            + " and ".join(f"{t} == {a}" for t, a in zip(trial, x)) + ":",
            f"                return STOP_F_STATIONARY, {state}",
        ]
        lines += [
            f"            {d} = {t} - {c!r}"
            for d, t, c in zip(names, trial, self.centre) if c
        ]
        if len(self.centres) > 1:
            lines += _indent(_indent(self._dispatch_lines(trial, state, shared)))
        lines.append("            budget -= 1")
        lines += _indent(_indent(self._value_lines(shared)))
        steps = [f"s{i}" for i in range(n)]
        diffs = [f"y{i}" for i in range(n)]
        lines += [
            "            if abs(q) < DENOM_FLOOR:",
            "                alpha *= factor",
            "                continue",
            "            f = p / q",
            "            if isfinite(f) and fx - f >= sigma * alpha * g_sq > 0.0:",
            "                break",
            "            alpha *= factor",
            *_indent(self._gradient_lines(gradient, shared)),
            *(f"        {s} = {t} - {a}" for s, t, a in zip(steps, trial, x)),
            *(f"        {y} = {h} - {g}" for y, h, g in zip(diffs, gradient, grad)),
            _step_sum_line("s_y", [f"{s} * {y}" for s, y in zip(steps, diffs)]),
            _step_sum_line("s_s", [f"{s} * {s}" for s in steps]),
            # The long step after odd-numbered steps, the short one after
            # even-numbered ones; len(rows) numbers the step being taken.
            "        if len(rows) % 2:",
            "            two_point = s_s / s_y if s_y > 0.0 else initial_step",
            "        else:",
            "    " + _step_sum_line("y_y", [f"{y} * {y}" for y in diffs]),
            "            two_point = s_y / y_y if s_y > 0.0 and 0.0 < y_y < inf"
            " else initial_step",
            "        first_step = two_point if two_point < initial_step else initial_step",
            f"        {_tuple_source(x)} = {_tuple_source(trial)}",
            "        fx = f",
            f"        {_tuple_source(grad)} = {_tuple_source(gradient)}",
            _step_sum_line("g_g", [f"{g} * {g}" for g in grad]),
            "        gnorm = sqrt(g_g)",
            f"        rows.append(({_tuple_source(x)}, fx, gnorm, sqrt(s_s), alpha))",
            "        iters -= 1",
            "        alpha, budget = first_step, max_trials",
        ]
        return lines


def _nearest(x: Sequence, centres: Sequence[tuple[float, ...]]) -> int:
    """The index of the first of centres nearest to x, as with min(); 0 where
    a NaN or infinite coordinate makes every distance compare false.  The
    one chart-choice rule: RationalFunction._chart calls it, and so does
    every multi-centre descend (_Evaluator._dispatch_lines)."""
    j, nearest = 0, math.inf
    for i, c in enumerate(centres):
        d = math.dist(x, c)
        if d < nearest:
            j, nearest = i, d
    return j


class _ExactEvaluator(_Kernel):
    """Exact values of a list of polynomials in integer form (_integer_form)
    at x = point/s, point integers: evaluate(point, s) returns what
    _exact_numerators(forms, point, s) does, the numerators over one
    common denominator d * s^top.

    evaluate follows _Kernel's first-use rule, with _exact_numerators as
    loop.  Every product and sum of the generated code is an exact integer,
    so evaluation order is free and the code returns the loop's integers
    whatever it does with them: it forms each power and each monomial of a
    term with two or more powers once (_Shared), folds d/d_f into each
    coefficient, and sums each form's terms degree by degree, lowest first,
    as Horner's rule in s, one statement per total degree n present (more
    past TERMS_PER_STATEMENT terms, as _sum_lines chunks them): v = v * s^g
    + the terms of degree n, g the step from the degree before, and at the
    end v * s^(top - n) from the highest.  No statement nests deeper than
    one degree's terms, so a form of any degree compiles.
    """

    def __init__(self, forms: Sequence[tuple[int, Mapping]]):
        self.forms = forms

    def loop(self, point: Sequence[int], s: int) -> tuple[list[int], int]:
        """The reference: _exact_numerators."""
        return _exact_numerators(self.forms, point, s)

    def generate(self, name: str):
        """loop as the straight-line function name over the integer point
        x0, x1, ... and the scale s0."""
        top = max(max(map(sum, numerators), default=0) for _, numerators in self.forms)
        d = math.lcm(*(d_f for d_f, _ in self.forms))
        n_vars = len(next((e for _, numerators in self.forms for e in numerators), ()))
        shared = _Shared()
        lines = [f"def {name}(point, s0):"]
        if n_vars:
            lines.append(f"    {_tuple_source(f'x{i}' for i in range(n_vars))} = point")
        names = [f"v{k}" for k in range(len(self.forms))]
        for v, (d_f, numerators) in zip(names, self.forms):
            # The terms of each total degree, each coefficient times d/d_f.
            degrees: dict[int, list] = {}
            for exps, coeff in numerators.items():
                degrees.setdefault(sum(exps), []).append(
                    (coeff * (d // d_f), tuple((i, e) for i, e in enumerate(exps) if e))
                )
            first, last = "0", None
            for n in sorted(degrees):
                if last is not None:
                    first = f"{v} * {shared.power('s', 0, n - last, lines)}"
                terms = _term_sources(degrees[n], "x", shared, lines, hex)
                lines += _sum_lines(v, terms, first)
                last = n
            if last is None:
                lines.append(f"    {v} = 0")
            elif last < top:
                lines.append(f"    {v} = {v} * {shared.power('s', 0, top - last, lines)}")
        scale = [hex(d)] + ([shared.power("s", 0, top, lines)] if top else [])
        lines.append(f"    return {_list_source(names)}, {' * '.join(scale)}")
        return _define(lines, name, "<polyalg exact>")


class RationalFunction:
    """Quotient p/q of two polynomials over the same variables.

    The domain is implicitly the set where the denominator does not vanish;
    evaluation below DENOM_FLOOR raises DomainViolation.

    The function is held as the pair p and q, optionally polynomials at the
    end of a chain of inner levels that stand for p(u(x)) and q(u(x)).  Each
    level is a tuple of polynomials in the values of the level before, the
    first in x, and u(x) is the last level's values.
    RationalFunction(numer, denom) has p = numer and q = denom and no
    levels; composed(p, q, levels) has levels; both are built by _setup.
    With levels, float evaluation sums each level from the one before
    (_Evaluator) and exact evaluation evaluates each level exactly, then p
    and q at the last level's values.  Exact evaluation reads the integer
    forms of p, q and the levels, built at the first exact call, and those
    of their partials, built at the first gradient call, through one exact
    evaluator (_ExactEvaluator) per list of forms, kept like the charts
    (_kept_forms), so _setup's zero test builds no partial.  Like a chart,
    each follows _Kernel's first-use rule; exact values are integers, so
    its generated code may group and order the arithmetic as it likes and
    still returns the loop's values.

    numer and denom are p and q in the variables x: what __eq__, repr and
    the line pencil read.  With levels, each is composed when first needed
    and kept on the instance.

    Float evaluation of p and q, expansions about the origin, loses accuracy
    far from it, where the terms cancel.  singular_points declares the
    points where accuracy matters.  The centre table _centres holds the
    origin at index 0, then each distinct declared point as a float, and
    _charts[j] the chart about _centres[j].  A point is evaluated in the
    chart of its nearest centre c (_nearest returns its index), the local
    chart p(c + d)/q(c + d) at d = x - c.  The chart
    is centred at the float nearest c, so x - c is exact near c (Sterbenz),
    and its coefficients are exact Taylor shifts of p and q, built on first
    use.  Each chart is an _Evaluator, under _Kernel's first-use rule with
    the same bits from its loop and its generated code, and scaled by a
    power of two so that the scale in which p and q are written does not
    reach the floats.

    eval_and_grad keeps its last result with its point, and returns it for
    a call at an equal point with the bits of a new evaluation: a caller
    that needs f and grad f at one point twice, as the homogeneity checks
    do, evaluates once.
    """

    __slots__ = (
        "n_vars", "_numer", "_denom", "_factors", "_levels", "_centres",
        "_charts", "_pencils", "_exact_forms", "_last",
    )

    def __init__(
        self, numer: Polynomial, denom: Polynomial, singular_points: Iterable = ()
    ):
        self._setup(numer, denom, (), singular_points)

    @classmethod
    def composed(
        cls,
        p: Polynomial,
        q: Polynomial,
        levels: Sequence[Sequence[Polynomial]],
    ) -> "RationalFunction":
        """p(u(x))/q(u(x)), p and q composed through a chain of inner levels.

        levels is a sequence of levels, each a sequence of polynomials: those
        of the first in the variables x, those of each later level in one
        variable per polynomial of the level before, and p and q in one
        variable per polynomial of the last level.  Nothing is composed
        here but where _setup's zero test needs it.  Evaluation, float and
        exact, evaluates each level at the values of the one before, and p
        and q at the last; the gradient is the quotient rule once, in the
        last level's variables, carried back through each level's Jacobian.
        """
        f = cls.__new__(cls)
        f._setup(p, q, levels, ())
        return f

    def _setup(
        self, p: Polynomial, q: Polynomial, levels: Sequence, singular_points: Iterable
    ) -> None:
        """Fill every slot from p, q, the levels and the singular points.

        Raises DimensionError where variable counts disagree along the
        chain, x has no variable or a singular point has the wrong length,
        and ValueError where check_finite_point rejects a singular point or
        q composed through the levels is identically zero: with levels,
        where the exact value at the integer point (2, 3, ...) is not 0 it
        is not, and elsewhere q is composed and the composition kept as
        denom.
        """
        p._check_same_vars(q)
        levels = tuple(tuple(level) for level in levels)
        if not all(levels):
            raise DimensionError("an inner level holds no polynomial")
        # The variable count that each level, then p and q, must have.
        n_vars = levels[0][0].n_vars if levels else p.n_vars
        count = n_vars
        for level in levels:
            for u in level:
                if u.n_vars != count:
                    raise DimensionError(
                        f"inner polynomial in {u.n_vars} variables, expected {count}"
                    )
            count = len(level)
        if p.n_vars != count:
            raise DimensionError(f"p and q in {p.n_vars} variables, expected {count}")
        if n_vars < 1:
            raise DimensionError("a function needs at least one variable")
        self.n_vars = n_vars
        self._factors = (p, q)
        self._levels = levels
        # p and q in x; with levels, composed on first read.
        self._numer, self._denom = (None, None) if levels else (p, q)
        # _kept_forms' evaluators, value-only at [False], with partials at [True].
        self._exact_forms = [None, None]
        # eval_and_grad's last result: (point, f, gradient as a tuple).
        self._last = (None, None, None)
        # The centre table, and a slot for each centre's chart and for
        # singan.analyze_singularity's line pencil at the origin and at each
        # declared point as given (numbers that compare equal hash equal, so
        # an exact base finds its slot), each filled on first use.
        origin = (0.0,) * n_vars
        points = [tuple(point) for point in singular_points]
        centres = [origin]
        for point in points:
            if len(point) != n_vars:
                raise DimensionError(
                    f"singular point {point} has {len(point)} coordinates, "
                    f"function has {n_vars} vars"
                )
            # A finite float, which generated code writes by repr; + 0.0
            # turns -0.0 into 0.0.  A chart leaves out the difference for a
            # zero coordinate, the identity for 0.0 only.
            centre = tuple(v + 0.0 for v in check_finite_point(point))
            if centre not in centres:
                centres.append(centre)
        self._centres = tuple(centres)
        self._charts: list[_Evaluator | None] = [None] * len(centres)
        self._pencils: dict[tuple, object] = dict.fromkeys([origin, *points])
        if levels:
            try:
                self.eval_exact(range(2, n_vars + 2))
            except DomainViolation:
                q = self.denom
        if q.is_zero():
            raise ValueError("denominator is identically zero")

    @property
    def numer(self) -> Polynomial:
        """p in the variables x, composed on first read."""
        if self._numer is None:
            self._numer = _through(self._factors[0], self._levels)
        return self._numer

    @property
    def denom(self) -> Polynomial:
        """q in the variables x, composed on first read."""
        if self._denom is None:
            self._denom = _through(self._factors[1], self._levels)
        return self._denom

    def _chart(self, x: Sequence[float]) -> _Evaluator:
        """The chart that evaluates x: the evaluator of p/q about its centre,
        the nearest of the origin and the declared centres."""
        # Every float evaluation passes here: call the check only to raise.
        if len(x) != self.n_vars:
            _check_point(x, self.n_vars)
        j = _nearest(x, self._centres) if len(self._centres) > 1 else 0
        return self._charts[j] or self._chart_at(j)

    def _chart_at(self, j: int) -> _Evaluator:
        """The chart about centre j of _centres, the origin's at j = 0.

        Its term maps are those of p and q, exactly Taylor-shifted to a
        centre other than the origin, and those of the levels.  composed
        declares no centre, so levels only ever meet the origin.
        """
        chart = self._charts[j]
        if chart is None:
            centre = self._centres[j]
            terms = [factor.terms for factor in self._factors]
            if any(centre):
                terms = [_shift_terms(t, centre) for t in terms]
            levels = [[u.terms for u in level] for level in self._levels]
            chart = self._charts[j] = _Evaluator(self._centres, j, *terms, levels)
        return chart

    def eval(self, x: Sequence[float]) -> float:
        return self._chart(x).evaluate(x, False)

    def descend(
        self,
        rows: list[tuple],
        grad: Sequence[float],
        sigma: float,
        factor: float,
        initial_step: float,
        grad_tol: float,
        max_iters: int,
        max_trials: int,
    ) -> tuple[str, tuple]:
        """Steepest descent with Armijo backtracking (_Evaluator) from
        rows[-1] = (x, f, ||grad f||, ...), x a tuple, for at most max_iters
        accepted steps, each appended to rows as (x, f, ||grad f||, ||s||,
        alpha).

        grad is grad f at x, a sequence of floats; the first search starts
        from initial_step, and every search makes at most max_trials trials
        in all charts together.  Each chart visit is one call of that
        chart's descend, which returns at a stop or hands the state on to
        the chart of the centre nearest its trial; the loop here resumes it
        there.  A failed search that started below initial_step is retried
        once, from initial_step in the same chart; any other stops the run
        (f_stationary).  Returns the stop reason and the final state
        (_Evaluator), whose gradient the rows do not hold.
        """
        state = (grad, initial_step, initial_step, max_trials, max_iters)
        chart = self._chart(rows[-1][0])
        while True:
            to, state = chart.descend(
                *state, rows, sigma, factor, initial_step, grad_tol, max_trials
            )
            if type(to) is int:
                chart = self._chart_at(to)
            elif to == STOP_F_STATIONARY and state[1] != initial_step:
                state = (state[0], initial_step, initial_step, max_trials, state[4])
            else:
                return to, state

    def eval_exact(self, x: Sequence) -> Fraction:
        """p/q exactly at x; with levels, at the exact values of the last."""
        return self._exact(x, False)

    def eval_exact_and_grad(self, x: Sequence) -> tuple[Fraction, list[Fraction]]:
        """p/q and its gradient (q grad p - p grad q) / q^2 exactly at x.

        With levels, the gradient is taken in the last level's variables and
        carried back through each level's Jacobian by the chain rule,
        df/dv_i = sum_k df/du_k * du_k/dv_i.
        """
        return self._exact(x, True)

    def _exact(self, x: Sequence, grad: bool):
        """eval_exact, or eval_exact_and_grad when grad is set.

        Raises DomainViolation at x, each coordinate as a float, where q is 0.
        """
        _check_point(x, self.n_vars)
        pair, levels = self._kept_forms(grad)
        point, s = _scaled_point(x)
        # Values are numerators over a common denominator.  That of p, q and
        # their partials cancels in p/q and in the gradient; those of the
        # levels' Jacobian entries, whose product is jacobian_d, stay in it.
        jacobian_d = 1
        # Per level, the variable count before it, the (k, i) of its Jacobian
        # entries and their values.
        jacobians = []
        for exact, count, entries in levels:
            values, s = exact.evaluate(point, s)
            jacobians.append((len(point), entries, values[count:]))
            point = values[:count]
            jacobian_d *= s
        values, _ = pair.evaluate(point, s)
        p_value, q_value = values[:2]
        if q_value == 0:
            raise DomainViolation([float(_as_fraction(v)) for v in x], 0.0)
        f = Fraction(p_value, q_value)
        if not grad:
            return f
        m = self._factors[0].n_vars
        gradient = [
            q_value * a - p_value * b for a, b in zip(values[2:2 + m], values[2 + m:])
        ]
        for n_vars, entries, du_values in reversed(jacobians):
            back = [0] * n_vars
            for (k, i), du in zip(entries, du_values):
                back[i] += gradient[k] * du
            gradient = back
        q_sq = q_value * q_value * jacobian_d
        return f, [Fraction(a, q_sq) for a in gradient]

    def _kept_forms(self, grad: bool) -> tuple:
        """_exact_forms[grad], built on first use and kept: the exact
        evaluator (_ExactEvaluator) of the integer forms of p and q, and per
        level that of its polynomials' forms, with their count and the
        (k, i) of its Jacobian entries.  With grad, p's and q's forms are
        followed by those of their partials in the last level's variables,
        and each level's by those of its Jacobian entries du_k/dv_i that
        are not identically zero, in the order of their (k, i); without,
        no level has entries.  Each form is built once, from the forms
        without grad, so the partial forms wait for the first call with
        grad.
        """
        kept = self._exact_forms[grad]
        if kept is not None:
            return kept
        if not grad:
            p, q = self._factors
            kept = (
                _ExactEvaluator([_integer_form(p.terms), _integer_form(q.terms)]),
                [(_ExactEvaluator([_integer_form(u.terms) for u in level]), len(level), [])
                 for level in self._levels],
            )
        else:
            pair, levels = self._kept_forms(False)
            m = self._factors[0].n_vars
            forms = pair.forms + [_partial_form(form, k) for form in pair.forms for k in range(m)]
            with_partials = []
            for level, (exact, count, _) in zip(self._levels, levels):
                level_forms, entries = list(exact.forms), []
                for k in range(count):
                    for i in range(level[0].n_vars):
                        du = _partial_form(exact.forms[k], i)
                        if du[1]:
                            entries.append((k, i))
                            level_forms.append(du)
                with_partials.append((_ExactEvaluator(level_forms), count, entries))
            kept = (_ExactEvaluator(forms), with_partials)
        self._exact_forms[grad] = kept
        return kept

    def eval_and_grad(self, x: Sequence[float]) -> tuple[float, list[float]]:
        """Value and gradient; _Evaluator says how the gradient is formed.

        The last result is kept with tuple(x).  A call whose tuple(x) equals
        the kept point returns the kept value and a new list of the kept
        gradient, without choosing a chart or evaluating; a call that raises
        DomainViolation keeps nothing and leaves the kept result as it was.
        That returns the bits a new evaluation would:
        - tuple == decides, coordinate by coordinate, and numbers that
          compare equal convert to the same float;
        - -0.0 and 0.0 give the same bits and the same chart: a coordinate
          reaches p, q, the levels and the gradient only as a factor of
          products that are summed from 0.0, to which -0.0 and 0.0 add
          alike, and where the centre's coordinate c is not 0,
          -0.0 - c == 0.0 - c;
        - a NaN compares equal only as the same object (tuple == tests
          identity first), and its evaluation is deterministic.
        """
        point = tuple(x)
        kept, f, grad = self._last
        if point == kept:
            return f, list(grad)
        f, grad = self._chart(x).evaluate(x, True)
        self._last = (point, f, tuple(grad))
        return f, grad

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.n_vars != other.n_vars:
            return False
        # Cross-multiplied exact identity of p/q and r/s, not merely
        # structural equality.
        p, q, r, s = self.numer, self.denom, other.numer, other.denom
        return (p * s - r * q).is_zero()

    def __repr__(self) -> str:
        return f"RationalFunction({self.numer!r}, {self.denom!r})"


def _through(poly: Polynomial, levels: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """poly composed through a chain of inner levels, the last level first:
    a polynomial in the variables of the first level's polynomials."""
    for level in reversed(levels):
        poly = poly.compose(level)
    return poly


def check_finite_point(x: Sequence[float]) -> tuple[float, ...]:
    """x as floats; ValueError naming the point and the first coordinate
    that is not a finite float: NaN, infinite or past the float range."""
    coords = []
    for i, v in enumerate(x):
        try:
            coords.append(float(v))
        except OverflowError:
            coords.append(math.inf)
        if not math.isfinite(coords[-1]):
            raise ValueError(f"point {tuple(x)}: coordinate {i}, {v!r}, "
                             "is not a finite float")
    return tuple(coords)
