"""Projective / homogenization toolkit.

Normalization with the factor-2 bound ||u - v/||v|||| <= 2||u - v||, degree-0
homogeneous objectives, and the canonical-polyadic tensor objective: for a
multilinear parameterization tau and target tensor T,

    f_hat(x) = || <tau(x), T> / ||tau(x)||^2 * tau(x) - T ||^2
             = ||T||^2 - <tau(x), T>^2 / ||tau(x)||^2,

whose stored form (HomogenizedObjective.stored_form) is a rational
function with denominator ||tau(x)||^4, so the homogeneity and boundedness
claims are checkable as polynomial facts.  f_hat itself is the reduced form
r/G with I = <tau, T>, G = ||tau||^2 and r = ||T||^2 G - I^2, and the domain
test (DENOM_FLOOR) applies to G, not to G^2, so f_hat's value neither
underflows nor overflows where G^2 would.
Exactly, r and G are polynomials in x.  In float they are evaluated
through two inner levels: the entries u_j of tau(x) are summed first, then
w = (G(u), I(u)) = (sum u_j^2, sum T_j u_j), then r = ||T||^2 w_0 - w_1^2
and G = w_0.  The gradient is the quotient rule once, at w, carried back
through dw/du and du/dx by the chain rule.  Where the rank-1 terms of tau
cancel, near the singular cone tau = 0, that cancellation then happens once
per entry u_j instead of inside every term of r and G multiplied out in x.

Building f_hat writes the term maps of the u_j, of G and I in the u_j and
of r and G in w directly, with the keys, order and coefficients that
Polynomial arithmetic would give them, and composes nothing
(RationalFunction.composed): exact evaluation evaluates the u_j, then w,
exactly, then r and G.  Equality, repr and analyze_singularity read
r and G in x, composed on first read and kept.  Only stored_form, which
`singulim tensor --emit-problem` writes, multiplies out (r G)/G^2.
DEFAULT_PARAM_BUDGET guards those expansions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .descent import ConditionReport, DescentTrace, check_conditions, trace_from_points
from .polyalg import Polynomial, RationalFunction, _coefficient, _floats, _is_int

# Beyond this many scalar parameters the stored form over ||tau||^4, which
# emit-problem multiplies out, and r and G in x, which equality and
# analyze_singularity compose, get unreasonably large for a desk tool; the
# builder refuses instead of thrashing.  Building f_hat and evaluating it,
# in float or exactly, expand nothing in x (module docstring).
DEFAULT_PARAM_BUDGET = 12

EULER_TOL = 1e-8


@dataclass(frozen=True)
class CPModel:
    """Shape of a rank-r canonical-polyadic parameterization.

    Parameters are a flat vector: rank term l occupies a contiguous block of
    sum(dims) entries, ordered mode by mode.
    """

    dims: tuple[int, ...]
    rank: int

    def __post_init__(self):
        dims = tuple(self.dims)
        if not all(map(_is_int, (*dims, self.rank))):
            raise ValueError(f"dims {dims} and rank {self.rank!r} must be integers")
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        object.__setattr__(self, "rank", int(self.rank))
        if len(self.dims) < 2:
            raise ValueError("tensor order must be at least 2")
        if any(d < 1 for d in self.dims) or self.rank < 1:
            raise ValueError("dims and rank must be positive")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def n_params(self) -> int:
        return self.rank * sum(self.dims)

    def var_index(self, term: int, mode: int, coord: int) -> int:
        """Flat parameter index of factor entry (term, mode, coord)."""
        if not (0 <= term < self.rank and 0 <= mode < self.order):
            raise IndexError("term or mode out of range")
        if not 0 <= coord < self.dims[mode]:
            raise IndexError("coordinate out of range")
        return term * sum(self.dims) + sum(self.dims[:mode]) + coord

    def factors(self, x: Sequence[float]) -> list[list[np.ndarray]]:
        """Split a flat parameter vector into per-term, per-mode factors."""
        if len(x) != self.n_params:
            raise ValueError(
                f"parameter vector has {len(x)} entries, expected {self.n_params}"
            )
        arr = np.asarray(x, dtype=float)
        out = []
        block = sum(self.dims)
        for l in range(self.rank):
            offset = l * block
            vecs = []
            for d in self.dims:
                vecs.append(arr[offset:offset + d])
                offset += d
            out.append(vecs)
        return out

    def tau(self, x: Sequence[float]) -> np.ndarray:
        """Evaluate the rank-r tensor sum of outer products numerically."""
        total = np.zeros(self.dims)
        for vecs in self.factors(x):
            term = vecs[0]
            for v in vecs[1:]:
                term = np.multiply.outer(term, v)
            total = total + term
        return total


@dataclass(frozen=True)
class HomogenizedObjective:
    """Degree-0 homogeneous rational objective for tensor approximation."""

    model: CPModel
    f_hat: RationalFunction
    target_norm_sq: float

    def eval(self, x: Sequence[float]) -> float:
        return self.f_hat.eval(x)

    def eval_and_grad(self, x: Sequence[float]) -> tuple[float, list[float]]:
        return self.f_hat.eval_and_grad(x)

    def stored_form(self) -> tuple[Polynomial, Polynomial]:
        """(r G, G^2) in x: f_hat over ||tau(x)||^4, the pair a problem
        file holds (module docstring)."""
        r, gram = self.f_hat.numer, self.f_hat.denom
        return r * gram, gram * gram


def normalize(v: Sequence[float]) -> tuple[float, ...]:
    """Return v / ||v||, rescaling first so tiny vectors do not underflow.

    Raises ValueError for the zero vector and for a non-finite entry.
    """
    coords = [float(x) for x in v]
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"cannot normalize {tuple(coords)}: non-finite entries")
    scale = max(abs(x) for x in coords) if coords else 0.0
    if scale == 0.0:
        raise ValueError("cannot normalize the zero vector")
    scaled = [x / scale for x in coords]
    norm = math.sqrt(math.fsum(x * x for x in scaled))
    return tuple(x / norm for x in scaled)


def normalization_bound_check(
    u: Sequence[float], v: Sequence[float]
) -> tuple[float, float]:
    """Evaluate both sides of ||u - v/||v|||| <= 2 ||u - v|| for unit u."""
    u = tuple(float(x) for x in u)
    norm_u = math.sqrt(math.fsum(x * x for x in u))
    if not abs(norm_u - 1.0) <= 1e-12:  # NaN included
        raise ValueError(f"u must be a unit vector, got norm {norm_u}")
    vn = normalize(v)
    lhs = math.dist(u, vn)
    rhs = 2.0 * math.dist(u, tuple(float(x) for x in v))
    return lhs, rhs


def _tau_entries(model: CPModel) -> list[Polynomial]:
    """The entries of tau(x) as polynomials in the flat parameters.

    One per tensor index, in C order: the sum over rank terms of the product
    of the selected factor entries.  Rank term l reads the parameters of
    term 0 shifted by l blocks (CPModel), so each is its own monomial, with
    coefficient 1.
    """
    n = model.n_params
    block = sum(model.dims)
    entries = []
    for idx in itertools.product(*(range(d) for d in model.dims)):
        first = [model.var_index(0, mode, coord) for mode, coord in enumerate(idx)]
        terms = {}
        for start in range(0, n, block):
            exps = [0] * n
            for i in first:
                exps[start + i] = 1
            terms[tuple(exps)] = 1
        entries.append(Polynomial._trusted(n, terms))
    return entries


def _unit(m: int, k: int, power: int) -> tuple[int, ...]:
    """The exponent tuple of u_k ** power in m variables."""
    return (0,) * k + (power,) + (0,) * (m - k - 1)


def build_cp_objective(model: CPModel, target) -> HomogenizedObjective:
    """Construct f_hat = ||T||^2 - <tau, T>^2 / ||tau||^2 symbolically.

    f_hat is r/G composed through the entries of tau and w = (G, I); nothing
    is composed here (module docstring).
    ||T||^2 is the exact sum of the squared entries, so f_hat >= 0 holds in
    exact arithmetic (Cauchy-Schwarz).  Raises ValueError, before any
    polynomial is built, for a target entry that is not finite or past the
    float range, or a ||T||^2 past the float range.
    """
    # np.asarray raises OverflowError at an integer entry past the float
    # range, which _floats names.
    (target,) = _floats([target], "a target entry", lambda t: np.asarray(t, dtype=float))
    if target.shape != model.dims:
        raise ValueError(
            f"target shape {target.shape} does not match model dims {model.dims}"
        )
    if model.n_params > DEFAULT_PARAM_BUDGET:
        raise ValueError(
            f"model has {model.n_params} parameters, beyond the symbolic "
            f"budget of {DEFAULT_PARAM_BUDGET}"
        )
    flat = target.ravel().tolist()
    for index, v in zip(itertools.product(*(range(d) for d in model.dims)), flat):
        if not math.isfinite(v):
            raise ValueError(f"target entry {list(index)} is {v}, not a finite number")
    # ||T||^2 exactly: each entry is a / b with b a power of two, and over the
    # largest b^2 the sum of squares is an integer.
    ratios = [v.as_integer_ratio() for v in flat]
    d = max(b for _, b in ratios)
    t_sq = Fraction(sum((a * (d // b)) ** 2 for a, b in ratios), d * d)
    (t_sq_float,) = _floats([t_sq], "target ||T||^2")
    entries = _tau_entries(model)
    m = len(entries)
    # G = sum u_k^2 and I = sum T_k u_k in u = the entries of tau, and
    # r = ||T||^2 w_0 - w_1^2 and G = w_0 in w = (G, I), as stored: zero
    # terms left out, ints where integral.
    gram_u = {_unit(m, k, 2): 1 for k in range(m)}
    inner_u = {_unit(m, k, 1): a if b == 1 else Fraction(a, b)
               for k, (a, b) in enumerate(ratios) if a}
    r = {(1, 0): _coefficient(t_sq), (0, 2): -1} if t_sq else {(0, 2): -1}
    f_hat = RationalFunction.composed(
        Polynomial._trusted(2, r),
        Polynomial._trusted(2, {(1, 0): 1}),
        [entries, (Polynomial._trusted(m, gram_u), Polynomial._trusted(m, inner_u))],
    )
    return HomogenizedObjective(model, f_hat, t_sq_float)


def _radial(grad: Sequence[float], x: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, grad, x))


def euler_check(obj: HomogenizedObjective, x: Sequence[float]) -> float:
    """Radial derivative <grad f_hat(x), x>; zero for a degree-0 objective."""
    _, grad = obj.eval_and_grad(x)
    return _radial(grad, x)


def euler_residual_ok(obj: HomogenizedObjective, x: Sequence[float]) -> bool:
    _, grad = obj.eval_and_grad(x)
    value = _radial(grad, x)
    gnorm = math.sqrt(math.fsum(g * g for g in grad))
    xnorm = math.sqrt(math.fsum(float(v) ** 2 for v in x))
    return abs(value) <= EULER_TOL * (1.0 + gnorm * xnorm)


def normalized_a1_check(
    trace: DescentTrace,
    obj: HomogenizedObjective,
    tail_start: int = 0,
) -> ConditionReport:
    """Sufficient-decrease report for the normalized iterates u_k = x_k/||x_k||.

    Verifies degree-0 homogeneity at the trace endpoints first.  In exact
    arithmetic f_hat(u_k) = f_hat(x_k), and the normalized ratio keeps at
    least half the original sigma.  In float the two values differ by
    evaluation error, so a step whose decrease is of the order of that error
    can give sigma_hat below sigma/2, even negative.
    """
    for point in (trace.iterates[0], trace.iterates[-1]):
        if not euler_residual_ok(obj, point):
            raise ValueError(
                f"objective is not degree-0 homogeneous at trace point {point}"
            )
    normalized = [normalize(p) for p in trace.iterates]
    ntrace = trace_from_points(obj.f_hat, normalized, stop_reason=trace.stop_reason)
    return check_conditions(ntrace, tail_start)
