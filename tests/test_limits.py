"""Trace diagnostics: cluster points, direction trails, certificates, rates."""

import dataclasses
import functools
import hashlib
import math
import operator
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim.descent import (
    DescentConfig,
    DescentTrace,
    check_conditions,
    optimize,
    trace_from_points,
)
from singulim.limits import (
    CLUSTER_TOL,
    DEFAULT_THETA_GRID,
    MIN_FIT_QUALITY,
    SAFE_MARGIN,
    DirectionTrail,
    RateEstimate,
    _linear_fit,
    cluster_window,
    direction_trail,
    estimate_limit,
    find_cluster_point,
    lojasiewicz_probe,
    rate_classify,
    trail_certifies_safe_approach,
    verify_certificate,
)
from singulim.polyalg import Polynomial, RationalFunction
from singulim.problems import load_bundled
from singulim.singan import LinePencil, analyze_singularity, taylor_line

from descent_helpers import pinch, quadratic_1d


def _alternating_axes():
    """(y^2 - x^2)/(x^2 + y^2) with iterates e1, e2/2, e1/4, ...

    Every iterate is a critical point yet f alternates between -1 and 1.
    """
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = RationalFunction(y * y - x * x, x * x + y * y)
    points = []
    for k in range(12):
        s = 2.0 ** -k
        points.append((s, 0.0) if k % 2 == 0 else (0.0, s))
    return f, trace_from_points(f, points)


@functools.cache
def _fig1_trace():
    """40 steps of fig1 from its reference start: the run short of its last
    five steps, whose last iterate has a zero gradient, so every gradient
    norm here is positive."""
    return optimize(load_bundled("fig1").rational(), (2.0, -0.1), DescentConfig(max_iters=40))


class TestFindClusterPoint:
    def test_converging_trace_snaps_to_lattice(self):
        f = quadratic_1d()
        points = [(2.0 ** -k,) for k in range(40)] + [(0.0,)] * 60
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) == (0.0,)

    def test_snap_to_small_denominator(self):
        f = quadratic_1d()
        points = [(0.5 + 2.0 ** -k,) for k in range(60)]
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) == (0.5,)

    def test_divergent_trace_returns_none(self):
        f = quadratic_1d()
        points = [(float(k),) for k in range(1, 50)]
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) is None

    def test_constant_trace_returns_start(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(0.25,)] * 10)
        assert find_cluster_point(trace) == (0.25,)

    @pytest.mark.parametrize("points, spread", [
        ([(2.0 ** -k,) for k in range(40)] + [(0.0,)] * 60, 0.0),
        # Window of 5: 45, ..., 49 about their mean 47.
        ([(float(k),) for k in range(1, 50)], 2.0),
        # Window of 2, 2e-8 apart: just outside the tolerance.
        ([(1.0,), (1.0 + 2e-8,)], 1e-8),
        # Window of 2 about 1e-8: a spread of CLUSTER_TOL exactly, settled.
        ([(0.0,), (2e-8,)], 1e-8),
    ])
    def test_window_spread_decides_the_cluster_point(self, points, spread):
        trace = trace_from_points(quadratic_1d(), points)
        _, got = cluster_window(trace)
        assert got == pytest.approx(spread, rel=1e-6)
        assert (find_cluster_point(trace) is None) is (got > CLUSTER_TOL)

    @pytest.mark.parametrize("last", [
        [(math.nan, 0.0)],
        [(math.inf, 0.0)],
        [(0.0, -math.inf)],
        # Both infinities in one coordinate: math.fsum raises on their sum.
        [(math.inf, 0.0), (-math.inf, 0.0)],
    ], ids=["nan", "inf", "minus-inf", "both-infinities"])
    def test_non_finite_window_has_no_cluster_point(self, last):
        """Not read as settled (a NaN spread is not above CLUSTER_TOL) and
        snapped, which raised on NaN; the window has no mean and no spread."""
        trace = _points_trace([(1e-9, 0.0)] * 18 + last)
        center, spread = cluster_window(trace)
        assert all(map(math.isnan, center)) and len(center) == 2
        assert math.isnan(spread)
        assert find_cluster_point(trace) is None

    def test_non_finite_point_before_the_window_is_not_read(self):
        trace = _points_trace([(math.nan, 0.0)] + [(0.5, 0.0)] * 19)
        assert cluster_window(trace) == ((0.5, 0.0), 0.0)
        assert find_cluster_point(trace) == (0.5, 0.0)

    def test_empty_trace_has_no_window(self):
        with pytest.raises(ValueError, match="empty trace"):
            cluster_window(DescentTrace((), (), (), (), (), "max_iters"))


class TestDirectionTrail:
    def test_pencil_of_another_dimension_rejected(self):
        pencil = analyze_singularity(quadratic_1d(), (0,))
        with pytest.raises(ValueError, match="pencil base dimension"):
            direction_trail(_fig1_trace(), pencil)

    def test_pinch_trail_pencil_values_are_one(self):
        f = pinch()
        trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=400))
        pencil = analyze_singularity(f, (0, 0))
        trail = direction_trail(trace, pencil)
        # f_2(u) = ||u||^2 = 1 on unit directions.
        for value in trail.pencil_values:
            assert value == pytest.approx(1.0, abs=1e-9)
        assert trail.min_tail_pencil == pytest.approx(1.0, abs=1e-9)
        assert trail_certifies_safe_approach(trail)

    def test_unit_norm_invariant(self):
        f = pinch()
        trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=50))
        pencil = analyze_singularity(f, (0, 0))
        trail = direction_trail(trace, pencil)
        for u in trail.unit_directions:
            assert math.hypot(*u) == pytest.approx(1.0, abs=1e-12)

    def test_alternating_axes_directions_safe_but_f_oscillates(self):
        f, trace = _alternating_axes()
        pencil = analyze_singularity(f, (0, 0))
        trail = direction_trail(trace, pencil)
        assert trail.min_tail_pencil == pytest.approx(1.0, abs=1e-12)
        values = trace.f_values
        assert all(v == pytest.approx((-1.0) ** (k + 1)) for k, v in enumerate(values))

    def test_base_iterate_skipped(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.0,), (0.5,)])
        pencil = analyze_singularity(f, (0,))
        trail = direction_trail(trace, pencil)
        assert trail.skipped == 1
        assert len(trail.unit_directions) == 2

    def test_single_step_trace(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,)])
        pencil = analyze_singularity(f, (0,))
        trail = direction_trail(trace, pencil)
        assert len(trail.unit_directions) == 1

    def test_tail_start_indexes_the_iterates(self):
        """x^2/(x^2 + 2y^2) at the origin: iterates 3 to 5 point along y, x
        and y, and x^2 + 2y^2 over its largest coefficient is 1/2 at (1, 0).
        The two iterates on the base do not shift the tail onto (0, 1)
        alone, whose margin is 1."""
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        f = RationalFunction(x * x, x * x + 2 * y * y)
        points = [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.0, 0.25)]
        pencil = analyze_singularity(f, (0, 0))
        trail = direction_trail(_points_trace(points), pencil, 3)
        assert trail.skipped == 2 and trail.min_tail_pencil == 0.5


def _looped_trail(trace, pencil, tail_start=None):
    """direction_trail as a loop over the iterates, one point at a time, with
    math.fsum norms and eval_float values: the reference for the direction
    kernel's bits."""
    center = tuple(float(v) for v in pencil.base)
    if len(center) != len(trace.iterates[0]):
        raise ValueError("pencil base dimension does not match trace")
    directions = []
    values = []
    tail = []
    skipped = 0
    if tail_start is None:
        tail_start = len(trace.iterates) // 2
    if tail_start >= len(trace.iterates):
        raise ValueError("tail_start beyond the last iterate")
    for k, point in enumerate(trace.iterates):
        delta = list(map(operator.sub, point, center))
        norm = math.sqrt(math.fsum(map(operator.mul, delta, delta)))
        if norm == 0.0:
            skipped += 1
            continue
        unit = tuple([d / norm for d in delta])
        directions.append(unit)
        values.append(pencil.leading.eval_float(unit))
        if k >= tail_start:
            tail.append(values[-1])
    if not directions:
        raise ValueError("every iterate coincides with the pencil base")
    scale = max(abs(float(c)) for c in pencil.leading.terms.values())
    min_tail = min(abs(v) for v in tail or values[-1:]) / scale
    return DirectionTrail(center, tuple(directions), tuple(values), min_tail, skipped)


def _outcome(fn, *args):
    """fn's result, or the type of the ValueError or OverflowError it raised
    (math.fsum overflows on squares that sum past the largest float)."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _trail_bits(trail):
    """A trail's fields with every float as float.hex, and its float types."""
    assert all(type(v) is float for u in trail.unit_directions for v in u)
    assert all(type(v) is float for v in trail.pencil_values)
    return (
        [v.hex() for v in trail.center],
        [[v.hex() for v in u] for u in trail.unit_directions],
        [v.hex() for v in trail.pencil_values],
        trail.min_tail_pencil.hex(),
        trail.skipped,
    )


def _assert_trail_matches_loop(trace, pencil, tail_start):
    """direction_trail against _looped_trail, through a copy of the pencil
    whose direction kernel is new: its first point runs the kernel's loop,
    and each later one its generated code."""
    pencil = dataclasses.replace(pencil)
    got = _outcome(direction_trail, trace, pencil, tail_start)
    want = _outcome(_looped_trail, trace, pencil, tail_start)
    if isinstance(want, type):
        assert got is want
    else:
        assert _trail_bits(got) == _trail_bits(want)
        assert pencil._directions.generated == (len(trace.iterates) > 1)


def _points_trace(points):
    """A trace of the given iterates; direction_trail reads nothing else."""
    m = len(points)
    return DescentTrace(tuple(points), (0.0,) * m, (0.0,) * m, (0.0,) * (m - 1),
                        (0.0,) * (m - 1), "max_iters")


# Offsets from the base: moderate, tiny, huge and non-finite values, so that
# squares underflow, overflow, and sum past the largest float.
_offsets = st.one_of(
    st.floats(-4, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-170, 1e154, 1e200, math.inf,
                     -math.inf, math.nan]),
)
_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def _leading_polynomials(draw, n_vars):
    """Up to 5 terms of degree up to 3 in each variable; constants included."""
    top = draw(st.sampled_from([0, 1, 3]))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = tuple(draw(st.integers(0, top)) for _ in range(n_vars))
        terms[exps] = draw(_small_fractions.filter(bool))
    return Polynomial(n_vars, terms)


@st.composite
def _iterates(draw, base, max_points=12):
    """Points near base: some equal to it, some with one coordinate on it."""
    center = [float(v) for v in base]
    points = []
    for _ in range(draw(st.integers(1, max_points))):
        kind = draw(st.sampled_from(["base", "offset", "offset", "offset"]))
        if kind == "base":
            points.append(tuple(center))
        else:
            points.append(tuple(
                c + draw(st.sampled_from([0.0, 1.0]) | _offsets) for c in center
            ))
    return points


@st.composite
def _trail_cases(draw):
    n_vars = draw(st.sampled_from([1, 2, 3, 4, 12]))
    base = tuple(draw(_small_fractions) for _ in range(n_vars))
    leading = draw(_leading_polynomials(n_vars))
    pencil = LinePencil(base, (leading,), (Polynomial.constant(n_vars, 1),), 0)
    points = draw(_iterates(base))
    tail_start = draw(st.none() | st.integers(-2, len(points) + 2))
    return _points_trace(points), pencil, tail_start


@functools.cache
def _bundled_pencils():
    """The leading pencils of fig1 at the origin and multi3 at its centres."""
    pencils = []
    for name in ("fig1", "multi3"):
        problem = load_bundled(name)
        f = problem.rational()
        pencils += [analyze_singularity(f, c) for c in problem.singular_points]
    return pencils


class TestSafeApproach:
    def test_margin_of_safe_margin_is_not_certified(self):
        """The margin must exceed SAFE_MARGIN; equal to it is not enough."""
        trail = DirectionTrail((0.0,), ((1.0,),), (1.0,), SAFE_MARGIN)
        assert not trail_certifies_safe_approach(trail)
        above = dataclasses.replace(trail, min_tail_pencil=math.nextafter(SAFE_MARGIN, 1.0))
        assert trail_certifies_safe_approach(above)


class TestDirectionTrailBits:
    """The pencil's direction kernel, looped and generated, returns the bits
    of a loop over eval_float at each math.fsum unit direction."""

    @settings(max_examples=100, deadline=None)
    @given(_trail_cases())
    def test_drawn_traces_and_pencils(self, case):
        _assert_trail_matches_loop(*case)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_drawn_traces_on_bundled_pencils(self, data):
        pencils = _bundled_pencils()
        pencil = pencils[data.draw(st.integers(0, len(pencils) - 1))]
        points = data.draw(_iterates(pencil.base))
        tail_start = data.draw(st.none() | st.integers(0, len(points)))
        _assert_trail_matches_loop(_points_trace(points), pencil, tail_start)

    @pytest.mark.parametrize("name, x0", [
        ("fig1", (2.0, -0.1)), ("fig1", (0.5, -2.0)),
        ("multi3", (-0.9, 3.7)), ("multi3", (3.5, 0.4)), ("multi3", (1.0, 1.0)),
    ])
    def test_descent_traces(self, name, x0):
        problem = load_bundled(name)
        f = problem.rational()
        trace = optimize(f, x0, DescentConfig(max_iters=300))
        for centre in problem.singular_points:
            pencil = analyze_singularity(f, centre)
            for tail_start in (None, 0, len(trace) - 1):
                _assert_trail_matches_loop(trace, pencil, tail_start)

    @pytest.mark.parametrize("points", [
        [(1.0, 2.0), (1e154, 1e154)],
        [(1e154, 1e154), (1.0, 2.0)],
        [(1.0, 2.0), (1e200, 1.0), (-3.0, 0.5)],
        [(1e200, 1.0), (-3.0, 0.5)],
        [(1.0, 2.0), (math.inf, 1.0), (-math.inf, math.nan)],
    ], ids=["sum-past-max", "sum-past-max-first", "inf-square", "inf-square-first",
            "non-finite"])
    def test_squared_norms_that_are_not_finite(self, points):
        """Points whose plain sum of squares is inf or NaN, after the first
        point (generated code) and at it (the kernel's loop): fsum raises
        OverflowError where finite squares sum past the largest float and
        returns inf or NaN on the others, as in the reference loop."""
        _assert_trail_matches_loop(_points_trace(points), _bundled_pencils()[0], None)

    def test_constant_leading_polynomial(self):
        pencil = LinePencil((0, 0), (Polynomial.constant(2, Fraction(3, 7)),),
                            (Polynomial.constant(2, 1),), 0)
        trace = _points_trace([(1.0, 2.0), (0.0, 0.0), (math.nan, 1.0), (-3.0, 0.5)])
        trail = direction_trail(trace, pencil)
        assert trail.pencil_values == (3 / 7,) * 3
        assert trail.skipped == 1
        _assert_trail_matches_loop(trace, pencil, None)

    def test_every_iterate_on_the_base_rejected(self):
        pencil = _bundled_pencils()[0]
        trace = _points_trace([(0.0, 0.0), (-0.0, 0.0)])
        with pytest.raises(ValueError, match="coincides"):
            direction_trail(trace, pencil)


def _polyfit_reference(x, y):
    """The line and R^2 from np.polyfit's least-squares solve."""
    slope, intercept = np.polyfit(x, y, 1)
    if np.all(y == y[0]):
        return slope, intercept, 0.0
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot


_fit_values = st.floats(-1e3, 1e3).map(lambda v: round(v, 6))


class TestLinearFit:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_fit_values, _fit_values), min_size=3, max_size=40))
    def test_matches_polyfit(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        # Well-posed: x spread over at least a thousandth of its range.
        span = float(np.ptp(x))
        if span < 1e-3 * (1.0 + float(np.max(np.abs(x)))):
            return
        slope, intercept, r2 = _linear_fit(x, y)
        ref_slope, ref_intercept, ref_r2 = _polyfit_reference(x, y)
        scale = 1.0 + float(np.max(np.abs(y)))
        assert slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-9 * scale / span)
        assert intercept == pytest.approx(
            ref_intercept, rel=1e-9, abs=1e-9 * scale * (1.0 + float(np.max(np.abs(x))) / span)
        )
        assert r2 == pytest.approx(ref_r2, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(3, 40))
    def test_recovers_an_exact_line(self, a, b, n):
        x = np.arange(n, dtype=float) - n // 3
        y = a * x + b
        slope, intercept, r2 = _linear_fit(x, y)
        assert slope == pytest.approx(a, abs=1e-12)
        assert intercept == pytest.approx(b, abs=1e-12)
        assert r2 == (0.0 if a == 0 else pytest.approx(1.0, abs=1e-12))

    def test_constant_y_has_r2_zero(self):
        x = np.log(np.arange(1.0, 12.0))
        slope, _, r2 = _linear_fit(x, np.full(11, math.log(0.1)))
        assert r2 == 0.0
        assert slope == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [[2.0] * 5, [0.1] * 3, [1e-200, 2e-200, 3e-200]])
    def test_x_without_spread_raises_value_error(self, x):
        with pytest.raises(ValueError, match="no spread"):
            _linear_fit(np.array(x), np.arange(len(x), dtype=float))

    def test_plain_lists_give_the_arrays_fit(self):
        """Python floats in lists, as the diagnostics pass them, fit as the
        same values in arrays do, and the fit is Python floats."""
        x = [0.0, 1.0, 2.5, 4.0, 7.0]
        y = [math.log(v) for v in (3.0, 2.2, 1.4, 1.1, 0.3)]
        fit = _linear_fit(x, y)
        assert fit == _linear_fit(np.array(x), np.array(y))
        assert all(type(v) is float for v in fit)
        ref_slope, ref_intercept, ref_r2 = _polyfit_reference(np.array(x), np.array(y))
        assert fit == pytest.approx((ref_slope, ref_intercept, ref_r2), rel=1e-9)


class TestEstimateLimit:
    def test_geometric_tail_extrapolated(self):
        values = [1.0 + 0.5 ** k for k in range(30)]
        limit, method = estimate_limit(values)
        assert method == "geometric_fit"
        assert limit == pytest.approx(1.0, abs=1e-8)

    def test_irregular_tail_falls_back_to_last_value(self):
        rng = random.Random(3)
        values = sorted(rng.uniform(0, 1) for _ in range(30))[::-1]
        limit, method = estimate_limit(values)
        assert method == "last_value"
        assert limit == values[-1]

    @pytest.mark.parametrize("values", [[0.7], [2.0, 1.5]])
    def test_fewer_than_three_values_give_the_last(self, values):
        assert estimate_limit(values) == (values[-1], "last_value")

    def test_no_values_raise_value_error(self):
        with pytest.raises(ValueError, match="empty f_values"):
            estimate_limit([])

    @pytest.mark.parametrize("values", [
        [3.0, 2.0, 1.0, 0.5, 0.25, math.inf],
        [3.0, 2.0, math.nan, 0.5, 0.25, 0.125],
        [3.0, -math.inf, 1.0, 0.5, 0.25, 0.125],
        [1.5e308, -1.5e308, -1.6e308, -1.7e308, -1.75e308],
    ], ids=["inf-last", "nan-middle", "minus-inf", "decrement-overflows"])
    def test_non_finite_window_gives_the_last_value(self, values):
        """log|inf| or log|NaN| has no line to fit: the last value comes
        back, with no numpy warning (an error here)."""
        assert estimate_limit(values) == (values[-1], "last_value")

    def test_non_finite_value_before_the_window_is_not_read(self):
        values = [math.inf] + [1.0 + 0.5 ** k for k in range(30)]
        assert estimate_limit(values) == estimate_limit(values[1:])
        assert estimate_limit(values)[1] == "geometric_fit"

    def test_constant_decrements_fall_back_to_last_value(self):
        # Every log-decrement is log(1/4) exactly: no contraction to fit.
        values = [1.0 - 0.25 * k for k in range(30)]
        limit, method = estimate_limit(values)
        assert method == "last_value"
        assert limit == values[-1]


class TestLojasiewiczProbe:
    def test_halving_trace_certificate_constants(self):
        """x_k = 2^-k on f = x^2: |f|^{1/2} = |x| = c * ||grad|| with c = 1/2."""
        f = quadratic_1d()
        points = [(2.0 ** -k,) for k in range(20)]
        trace = trace_from_points(f, points)
        certs = lojasiewicz_probe(trace, 0, theta_grid=[0.5], L=0.0)
        assert len(certs) == 1
        assert certs[0].feasible
        assert certs[0].c == pytest.approx(0.5)

    def test_certificates_sorted_and_verified(self):
        f = pinch()
        trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=400))
        tail = len(trace) // 2
        certs = lojasiewicz_probe(trace, tail, DEFAULT_THETA_GRID)
        assert [c.theta for c in certs] == sorted(c.theta for c in certs)
        feasible = [c for c in certs if c.feasible]
        assert feasible
        for cert in feasible:
            assert verify_certificate(trace, cert) == 0

    def test_theta_to_c_map_monotone(self):
        """With residuals below 1, larger theta can only raise c."""
        f = pinch()
        trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=400))
        tail = len(trace) // 2
        certs = lojasiewicz_probe(trace, tail, DEFAULT_THETA_GRID)
        cs = [c.c for c in certs if c.feasible]
        assert all(b >= a for a, b in zip(cs, cs[1:]))

    def test_zero_gradient_with_residual_infeasible_everywhere(self):
        f, trace = _alternating_axes()
        certs = lojasiewicz_probe(trace, 0, DEFAULT_THETA_GRID)
        assert all(not c.feasible for c in certs)

    def test_non_monotone_tail_without_obstruction_raises(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.25,), (0.5,)])
        with pytest.raises(ValueError):
            lojasiewicz_probe(trace, 0, [0.5], L=0.0)

    def test_empty_tail_rejected(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.5,)])
        with pytest.raises(ValueError):
            lojasiewicz_probe(trace, 5, [0.5])

    def test_start_outside_the_domain_has_an_empty_tail(self):
        """The one row of such a trace holds no f and no gradient norm."""
        trace = DescentTrace(((3.0, 0.0),), (), (), (), (), "domain_violation")
        with pytest.raises(ValueError, match="empty tail"):
            lojasiewicz_probe(trace, 0)

    def test_nan_gradient_norm_in_the_tail_is_no_certificate(self):
        """One NaN ||grad|| in the tail of fig1's run: the inequality is
        never checked there, so no c is fitted and every certificate that
        held on the clean trace counts that point as its one violation."""
        trace = _fig1_trace()
        tail = len(trace) // 2
        clean = lojasiewicz_probe(trace, tail)
        assert all(c.feasible and verify_certificate(trace, c) == 0 for c in clean)
        grad_norms = list(trace.grad_norms)
        grad_norms[tail + 10] = math.nan
        holed = dataclasses.replace(trace, grad_norms=tuple(grad_norms))
        certs = lojasiewicz_probe(holed, tail)
        assert len(certs) == len(clean)
        assert all(not c.feasible and math.isnan(c.c) for c in certs)
        assert [verify_certificate(holed, c) for c in clean] == [1] * len(clean)

    def test_nan_residual_through_l_is_no_certificate(self):
        """L = NaN makes every residual NaN: no certificate is feasible, and
        each point of the tail violates one fitted with that L."""
        trace = _fig1_trace()
        tail = len(trace) // 2
        certs = lojasiewicz_probe(trace, tail, L=math.nan)
        assert certs and all(not c.feasible and math.isnan(c.c) for c in certs)
        clean = lojasiewicz_probe(trace, tail)
        for cert in clean:
            assert verify_certificate(trace, dataclasses.replace(cert, L=math.nan)) == (
                len(trace) - tail
            )

    def test_negative_tail_start_reads_as_zero(self):
        """Not as a count from the end of the trace: the last points alone
        would fit a much smaller c."""
        trace = _fig1_trace()
        certs = lojasiewicz_probe(trace, 0)
        assert lojasiewicz_probe(trace, -3) == certs
        assert certs[0].tail_start == 0

    def test_theta_outside_unit_interval_rejected(self):
        """f = 1e-100, 1e-200, 0: r ** (1 - 3) would overflow at theta = 3."""
        f = quadratic_1d()
        trace = trace_from_points(f, [(1e-50,), (1e-100,), (0.0,)])
        assert trace.f_values == (1e-100, 1e-200, 0.0)
        with pytest.raises(ValueError, match="theta=3.0"):
            lojasiewicz_probe(trace, 0, theta_grid=(0.5, 3.0), L=0.0)
        (cert,) = lojasiewicz_probe(trace, 0, theta_grid=(0.5,), L=0.0)
        for theta in (3.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="theta"):
                verify_certificate(trace, dataclasses.replace(cert, theta=theta))


def _fit_qualities(radii, k0):
    """rate_classify's two R^2 for distances radii at iterates k0, k0 + 1,
    ...: log r against k, and against log k over k > 0 (-inf with fewer
    than three such k)."""
    ks = list(range(k0, k0 + len(radii)))
    log_r = list(map(math.log, radii))
    positive = [k for k in ks if k > 0]
    sub = -math.inf
    if len(positive) >= 3:
        sub = _linear_fit(list(map(math.log, positive)), log_r[len(ks) - len(positive):])[2]
    return _linear_fit(list(map(float, ks)), log_r)[2], sub


def _float_zero(g, lo, hi):
    """A float t near the sign change of g on [lo, hi], g(lo) > 0 >= g(hi),
    where g(t) == 0 exactly: bisection down to adjacent floats, then the
    64 floats on each side of them.  None where none of those is a zero."""
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    for i in range(65):
        for t in (hi + i * math.ulp(hi), lo - i * math.ulp(lo)):
            if g(t) == 0:
                return t
    return None


class TestRateClassify:
    def _trace_with_radii(self, radii):
        f = quadratic_1d()
        return trace_from_points(f, [(r,) for r in radii])

    def test_iterate_at_the_centre_is_left_out(self):
        """A tail iterate exactly at x* has no log distance: the fits skip
        it, and the halving distances around it fit q = 1/2."""
        radii = [0.5 ** k for k in range(12)]
        radii[6] = 0.0
        est = rate_classify(self._trace_with_radii(radii), (0.0,), 0)
        assert est.regime == "linear"
        assert est.q == pytest.approx(0.5, rel=1e-12)
        assert est.fit_quality == pytest.approx(1.0, abs=1e-12)

    def test_equal_first_and_last_distances_are_no_decrease(self):
        est = rate_classify(self._trace_with_radii([1.0, 0.5, 0.25, 0.5, 1.0]), (0.0,), 0)
        assert est == RateEstimate(
            "inconclusive", detail="distances not decreasing on tail: last 1.0 >= first 1.0")

    def test_fit_at_the_quality_floor_is_accepted(self):
        """Distances 1, m, c at k = 0, 1, 2: too few positive k for the log k
        fit, and m makes the line's R^2 MIN_FIT_QUALITY exactly."""
        for c in (0.25, 0.2, 0.3):
            line_r2 = lambda m: _fit_qualities([1.0, m, c], 0)[0] - MIN_FIT_QUALITY
            m = _float_zero(line_r2, 0.5, 0.99)
            if m is not None:
                break
        assert m is not None
        est = rate_classify(self._trace_with_radii([1.0, m, c]), (0.0,), 0)
        assert est.regime == "linear"
        assert est.fit_quality == MIN_FIT_QUALITY

    def test_equal_fits_read_as_linear(self):
        """Distances r_k = k^-t b^(k (1 - t)) at k = 1, 2, 3: geometric at
        t = 0, a power law at t = 1, and at the t found here the two fits
        have the same R^2 exactly, above the floor."""
        for b in (0.5, 0.25, 0.4):
            radii = lambda t: [k ** -t * b ** (k * (1 - t)) for k in (1, 2, 3)]
            gap = lambda t: operator.sub(*_fit_qualities(radii(t), 1))
            t = _float_zero(gap, 0.0, 1.0)
            if t is not None:
                break
        assert t is not None
        line_r2, power_r2 = _fit_qualities(radii(t), 1)
        assert line_r2 == power_r2 >= MIN_FIT_QUALITY
        est = rate_classify(self._trace_with_radii([1.0, *radii(t)]), (0.0,), 1)
        assert est.regime == "linear"
        assert est.fit_quality == line_r2

    def test_planted_geometric(self):
        trace = self._trace_with_radii([0.8 ** k for k in range(40)])
        est = rate_classify(trace, (0.0,), 0)
        assert est.regime == "linear"
        assert est.q == pytest.approx(0.8, abs=1e-6)

    def test_planted_power_law(self):
        # Index k of the trace carries radius k^-2 (dummy entry at k = 0).
        trace = self._trace_with_radii([1.0] + [float(k) ** -2 for k in range(1, 60)])
        est = rate_classify(trace, (0.0,), 1)
        assert est.regime == "sublinear"
        assert est.p == pytest.approx(2.0, abs=1e-6)
        assert est.theta_from_p == pytest.approx(0.4, abs=1e-6)

    def test_noisy_geometric_within_tolerance(self):
        rng = random.Random(17)
        radii = [0.8 ** k * (1 + rng.uniform(-0.01, 0.01)) for k in range(60)]
        est = rate_classify(self._trace_with_radii(radii), (0.0,), 0)
        assert est.regime == "linear"
        assert abs(est.q - 0.8) <= 0.05 * 0.8

    def test_constant_radii_inconclusive(self):
        trace = self._trace_with_radii([0.3] * 20)
        est = rate_classify(trace, (0.0,), 0)
        assert est == RateEstimate(
            "inconclusive", detail="distances constant on tail: each is 0.3")

    def test_increasing_radii_inconclusive(self):
        trace = self._trace_with_radii([0.1 * (k + 1) for k in range(20)])
        est = rate_classify(trace, (0.0,), 0)
        assert est == RateEstimate(
            "inconclusive", detail="distances not decreasing on tail: last 2.0 >= first 0.1")

    @pytest.mark.parametrize("n_iterates", range(5, 13))
    def test_stuck_after_one_move_not_sublinear(self, n_iterates):
        # One move, then the distance to x* stays 0.5: log r against log k is
        # constant, which fits no power law.
        points = [(1.0, 0.0)] + [(0.5, 0.0)] * (n_iterates - 1)
        trace = trace_from_points(pinch(), points)
        est = rate_classify(trace, (0, 0), 0)
        assert est.regime != "sublinear"

    @pytest.mark.parametrize("tail_start", [-1, -3])
    def test_negative_tail_start_reads_as_zero(self, tail_start):
        """Not as iterates counted from the end, which would put the last
        radii ahead of the first and spoil the fit."""
        for trace in (self._trace_with_radii([0.8 ** k for k in range(40)]), _fig1_trace()):
            est = rate_classify(trace, (0.0,) * len(trace.iterates[0]), tail_start)
            assert est == rate_classify(trace, (0.0,) * len(trace.iterates[0]), 0)

    def test_three_iterates_from_zero_fit_only_the_line(self):
        """k = 0, 1, 2 leaves two positive k, too few for the log k fit, so
        the linear fit alone decides, though its R^2 is below 1."""
        est = rate_classify(self._trace_with_radii([1.0, 0.5, 0.3]), (0.0,), 0)
        assert est.regime == "linear"
        assert est.q == pytest.approx(math.sqrt(0.3), rel=1e-12)
        assert est.fit_quality == pytest.approx(0.99241397, rel=1e-6)

    def test_three_positive_k_fit_the_power_law(self):
        """k = 1, 2, 3 are just enough for the log k fit, which an exact
        k^-2 decay wins."""
        trace = self._trace_with_radii([1.0] + [float(k) ** -2 for k in range(1, 4)])
        est = rate_classify(trace, (0.0,), 1)
        assert est.regime == "sublinear"
        assert est.p == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_distance_inconclusive(self, value):
        """A NaN distance was dropped and an infinite one fitted as log inf,
        which gave a "sublinear" verdict with NaN p and fit quality (and numpy
        warnings, errors here).  Now nothing is fitted, and the detail names
        the distance; a tail that starts after it is read as before."""
        radii = [0.8 ** k for k in range(40)]
        radii[30] = value
        trace = _points_trace([(r,) for r in radii])
        est = rate_classify(trace, (0.0,), 20)
        assert est == RateEstimate(
            "inconclusive", detail=f"distance {abs(value)} to x* at iterate 30 is not finite"
        )
        clean = self._trace_with_radii([0.8 ** k for k in range(40)])
        assert rate_classify(trace, (0.0,), 31) == rate_classify(clean, (0.0,), 31)

    def test_short_tail_inconclusive(self):
        trace = self._trace_with_radii([1.0, 0.5])
        est = rate_classify(trace, (0.0,), 0)
        assert est == RateEstimate(
            "inconclusive", detail="tail too short: 2 non-zero distances to x*, fewer than 3")

    def test_poor_fits_name_the_best_r2_and_the_floor(self):
        """A tail that zigzags down fits neither regime; the detail says how
        well the better fit did and what it missed."""
        radii = [1.0, 0.1, 0.9, 0.1, 0.8, 0.1, 0.7, 0.1, 0.6, 0.1, 0.5, 0.1, 0.4]
        est = rate_classify(self._trace_with_radii(radii), (0.0,), 0)
        assert est.regime == "inconclusive"
        assert 0.0 <= est.fit_quality < MIN_FIT_QUALITY
        assert est.detail == (
            f"both regressions fit poorly: best R^2 {est.fit_quality:.6g} < 0.95"
        )


def test_tail_readers_raise_past_what_they_read():
    """A 40-step fig1 trace from (2, -0.1), iterates 0 to 40.  check_conditions
    reads steps and raises from 40; the other readers read iterates and raise
    from 41, and lojasiewicz_probe without L also at 40, where the tail is
    the one point at which estimate_limit takes L.  A negative tail_start
    reads from 0."""
    f = load_bundled("fig1").rational()
    trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=40))
    assert len(trace.step_norms) == 40
    pencil = analyze_singularity(f, (0, 0))
    # c = 1e-30 is violated at every tail point but the last.
    cert = dataclasses.replace(lojasiewicz_probe(trace, 20)[0], c=1e-30)
    readers = {
        "verify_certificate": lambda k: verify_certificate(
            trace, dataclasses.replace(cert, tail_start=k)
        ),
        "check_conditions": lambda k: check_conditions(trace, k),
        "direction_trail": lambda k: direction_trail(trace, pencil, k),
        "lojasiewicz_probe": lambda k: lojasiewicz_probe(trace, k),
        "lojasiewicz_probe at L": lambda k: lojasiewicz_probe(trace, k, L=-0.5),
        "rate_classify": lambda k: rate_classify(trace, (0.0, 0.0), k),
    }
    raising = {40: {"check_conditions", "lojasiewicz_probe"}, 41: set(readers),
               46: set(readers)}
    for tail_start, names in raising.items():
        for name, read in readers.items():
            if name in names:
                with pytest.raises(ValueError):
                    read(tail_start)
            else:
                read(tail_start)
    last = direction_trail(trace, pencil, 40)
    assert last.min_tail_pencil == direction_trail(_points_trace(trace.iterates[-1:]),
                                                   pencil).min_tail_pencil
    assert rate_classify(trace, (0.0, 0.0), 40).detail == (
        "tail too short: 1 non-zero distances to x*, fewer than 3")
    assert [c.tail_start for c in lojasiewicz_probe(trace, 40, L=-0.5)] == [40] * 10
    assert [readers["verify_certificate"](k) for k in (20, 0, -3)] == [20, 40, 40]


def _diagnose(f, singular_points, trace):
    """The diagnostic pass of singulim diagnose, as the benchmark runs it
    after each solve: conditions and certificates on the second half of
    the steps, the pencil and rate at the declared singular point nearest
    the final iterate, and the Taylor line along the last unit direction."""
    tail = min(len(trace) // 2, len(trace.step_norms) - 1)
    final = trace.iterates[-1]
    centre = min(singular_points, key=lambda c: math.dist(final, [float(v) for v in c]))
    centre_f = [float(v) for v in centre]
    pencil = analyze_singularity(f, centre)
    certificates = lojasiewicz_probe(trace, tail)
    delta = [a - b for a, b in zip(final, centre_f)]
    norm = math.hypot(*delta)
    return (
        check_conditions(trace, tail), find_cluster_point(trace),
        direction_trail(trace, pencil), certificates,
        [verify_certificate(trace, c) for c in certificates if c.feasible],
        rate_classify(trace, centre_f, tail),
        taylor_line(f, centre, tuple(d / norm for d in delta), pencil=pencil),
    )


def _digest(value, digest=None):
    """SHA-256 over a nested result: float.hex of each float, repr of each
    other leaf, with the structure marked."""
    top = digest is None
    digest = hashlib.sha256() if top else digest
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        digest.update(b"(")
        for item in value:
            _digest(item, digest)
        digest.update(b")")
    else:
        leaf = float.hex(value) if isinstance(value, float) else repr(value)
        digest.update(leaf.encode() + b",")
    return digest.hexdigest() if top else None


_X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def _cpu_has(flag):
    """Whether /proc/cpuinfo lists the CPU flag (False without that file)."""
    try:
        with open("/proc/cpuinfo") as info:
            return flag in info.read().split()
    except OSError:
        return False


def _cpu_dispatch():
    """The CPU features numpy's ufuncs dispatch to at run time, or () where
    this numpy does not list them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return ()
    return tuple(__cpu_dispatch__)


_CPU_DISPATCH = _cpu_dispatch()


class TestPinnedDiagnostics:
    """The diagnostic pass over the two pinned descent runs, bit for bit.  A
    change of these digests changes what the diagnostics compute, and is
    made on purpose, not as a side effect of a speed-up."""

    def test_fig1_reference_run(self):
        problem = load_bundled("fig1")
        f = problem.rational()
        trace = optimize(f, (2.0, -0.1), DescentConfig())
        assert _digest(_diagnose(f, problem.singular_points, trace)) == (
            "d67d289ab7ea15366e9f7a708ff498fece18277c7927a042868c432c5a217de2"
        )

    def test_multi3_run_into_the_chart_at_0_3(self):
        problem = load_bundled("multi3")
        f = problem.rational()
        trace = optimize(f, (2.5, 3.5), DescentConfig(max_iters=200))
        assert _digest(_diagnose(f, problem.singular_points, trace)) == (
            "ede28f6d433a577bbe34971fcf2ae8c890599bbcd4cb39898240cd6ed8bfd952"
        )

    @pytest.mark.parametrize("kernel", [
        pytest.param("Prescott", marks=pytest.mark.skipif(
            not _X86_64, reason="Prescott is an x86-64 kernel")),
        pytest.param("Haswell", marks=pytest.mark.skipif(
            not (_X86_64 and _cpu_has("avx2")), reason="Haswell needs AVX2")),
    ])
    def test_pins_hold_on_another_blas_kernel(self, kernel):
        """Both pins in a child process on one of OpenBLAS's kernels:
        Prescott, the SSE3 one that any x86-64 CPU runs, and Haswell, the one
        AVX2-only CPUs get.  Their dot products sum in other orders than each
        other and than an AVX-512 machine's kernel, so a BLAS product that
        reached the descent or the diagnostics, which sum with math.fsum,
        would move a digest in one of them.  OpenBLAS reads
        OPENBLAS_CORETYPE when it loads, hence the child."""
        _assert_pins_hold_in_child({"OPENBLAS_CORETYPE": kernel})

    @pytest.mark.skipif(not _CPU_DISPATCH, reason="numpy dispatches to no CPU feature")
    def test_pins_hold_on_numpy_baseline_simd(self):
        """Both pins in a child process with every CPU feature that numpy
        dispatches to disabled, so its ufuncs run their baseline code.  A
        ufunc in the diagnostics would make them depend on that dispatch:
        on an AVX-512 machine np.log's default and baseline paths differed
        in the last bit on 223 of 200 000 log-uniform inputs in [e^-50,
        e^50], so the diagnostics take math.log.  numpy reads
        NPY_DISABLE_CPU_FEATURES when it loads, hence the child."""
        _assert_pins_hold_in_child({"NPY_DISABLE_CPU_FEATURES": " ".join(_CPU_DISPATCH)})


def _assert_pins_hold_in_child(env):
    """Run both TestPinnedDiagnostics pins in a child pytest with env added
    to the environment."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pinned = f"{__file__}::TestPinnedDiagnostics::"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         pinned + "test_fig1_reference_run",
         pinned + "test_multi3_run_into_the_chart_at_0_3"],
        capture_output=True, text=True, cwd=root, env={**os.environ, **env},
    )
    assert done.returncode == 0, done.stdout
