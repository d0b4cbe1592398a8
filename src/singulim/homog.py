"""Projective / homogenization toolkit.

Normalization with the factor-2 bound ||u - v/||v|||| <= 2||u - v||, degree-0
homogeneous objectives, and the canonical-polyadic tensor objective: for a
multilinear parameterization tau and target tensor T,

    f_hat(x) = || <tau(x), T> / ||tau(x)||^2 * tau(x) - T ||^2
             = ||T||^2 - <tau(x), T>^2 / ||tau(x)||^2,

stored symbolically as a rational function with denominator ||tau(x)||^4 so
the homogeneity and boundedness claims are checkable as polynomial facts.
It is evaluated, in float and exactly, in the reduced form r/G with
I = <tau, T>, G = ||tau||^2 and r = ||T||^2 G - I^2: far fewer terms, and the
domain test (DENOM_FLOOR) applies to G, not to G^2, so f_hat's value neither
underflows nor overflows where G^2 would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .descent import ConditionReport, DescentTrace, check_conditions, trace_from_points
from .polyalg import Polynomial, RationalFunction

# Beyond this many scalar parameters the symbolic expansion of ||tau||^4 gets
# unreasonably large for a desk tool; the builder refuses instead of thrashing.
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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
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


def normalize(v: Sequence[float]) -> tuple[float, ...]:
    """Return v / ||v||, rescaling first so tiny vectors do not underflow."""
    coords = [float(x) for x in v]
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
    if abs(norm_u - 1.0) > 1e-12:
        raise ValueError(f"u must be a unit vector, got norm {norm_u}")
    vn = normalize(v)
    lhs = math.dist(u, vn)
    rhs = 2.0 * math.dist(u, tuple(float(x) for x in v))
    return lhs, rhs


def _inner_and_gram_polys(
    model: CPModel, target: np.ndarray
) -> tuple[Polynomial, Polynomial]:
    """Polynomials <tau(x), T> and ||tau(x)||^2 in the flat parameters."""
    n = model.n_params
    index_sets = list(itertools.product(*(range(d) for d in model.dims)))
    # s_idx = sum over rank terms of the product of the selected factor entries.
    entry_polys: dict[tuple[int, ...], Polynomial] = {}
    for idx in index_sets:
        terms: dict[tuple[int, ...], Fraction] = {}
        for l in range(model.rank):
            exps = [0] * n
            for mode, coord in enumerate(idx):
                exps[model.var_index(l, mode, coord)] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(1)
        entry_polys[idx] = Polynomial(n, terms)
    inner = Polynomial.zero(n)
    gram = Polynomial.zero(n)
    for idx in index_sets:
        entry = entry_polys[idx]
        coeff = Fraction(float(target[idx]))
        if coeff != 0:
            inner = inner + entry.scale(coeff)
        gram = gram + entry * entry
    return inner, gram


def build_cp_objective(
    model: CPModel,
    target,
    param_budget: int = DEFAULT_PARAM_BUDGET,
) -> HomogenizedObjective:
    """Construct f_hat = ||T||^2 - <tau, T>^2 / ||tau||^2 symbolically.

    Stored over the common denominator ||tau||^4 so that the denominator
    structure is a checkable polynomial identity; evaluated as r/G (module
    docstring), from which the stored form is multiplied out.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != model.dims:
        raise ValueError(
            f"target shape {target.shape} does not match model dims {model.dims}"
        )
    if model.n_params > param_budget:
        raise ValueError(
            f"model has {model.n_params} parameters, beyond the symbolic "
            f"budget of {param_budget}"
        )
    inner, gram = _inner_and_gram_polys(model, target)
    t_sq = Fraction(float(np.sum(np.square(target))))
    reduced = gram.scale(t_sq) - inner * inner
    f_hat = RationalFunction.with_common_factor(reduced, gram, gram)
    return HomogenizedObjective(model, f_hat, float(t_sq))


def _radial(grad: Sequence[float], x: Sequence[float]) -> float:
    return math.fsum(g * xi for g, xi in zip(grad, x))


def euler_check(obj: HomogenizedObjective, x: Sequence[float]) -> float:
    """Radial derivative <grad f_hat(x), x>; zero for a degree-0 objective."""
    _, grad = obj.eval_and_grad(x)
    return _radial(grad, x)


def euler_residual_ok(obj: HomogenizedObjective, x: Sequence[float],
                      tol: float = EULER_TOL) -> bool:
    _, grad = obj.eval_and_grad(x)
    value = _radial(grad, x)
    gnorm = math.sqrt(math.fsum(g * g for g in grad))
    xnorm = math.sqrt(math.fsum(float(v) ** 2 for v in x))
    return abs(value) <= tol * (1.0 + gnorm * xnorm)


def normalized_a1_check(
    trace: DescentTrace,
    obj: HomogenizedObjective,
    tail_start: int = 0,
) -> ConditionReport:
    """Sufficient-decrease report for the normalized iterates u_k = x_k/||x_k||.

    Verifies degree-0 homogeneity at the trace endpoints first; the
    normalized ratio is guaranteed to keep at least half the original sigma.
    """
    for point in (trace.iterates[0], trace.iterates[-1]):
        if not euler_residual_ok(obj, point):
            raise ValueError(
                f"objective is not degree-0 homogeneous at trace point {point}"
            )
    normalized = [normalize(p) for p in trace.iterates]
    ntrace = trace_from_points(obj.f_hat, normalized, stop_reason=trace.stop_reason)
    return check_conditions(ntrace, tail_start)
