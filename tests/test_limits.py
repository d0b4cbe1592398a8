"""Trace diagnostics: cluster points, direction trails, certificates, rates."""

import dataclasses
import math
import random

import pytest

from singulim.descent import DescentConfig, optimize, trace_from_points
from singulim.limits import (
    DEFAULT_THETA_GRID,
    direction_trail,
    estimate_limit,
    find_cluster_point,
    lojasiewicz_probe,
    rate_classify,
    trail_certifies_safe_approach,
    verify_certificate,
)
from singulim.polyalg import Polynomial, RationalFunction
from singulim.singan import analyze_singularity


def _pinch():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    r2 = x * x + y * y
    return RationalFunction(x * y, r2 * (1 + r2))


def _quadratic_1d():
    t = Polynomial.variable(1, 0)
    return RationalFunction(t * t, Polynomial.constant(1, 1))


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


class TestFindClusterPoint:
    def test_converging_trace_snaps_to_lattice(self):
        f = _quadratic_1d()
        points = [(2.0 ** -k,) for k in range(40)] + [(0.0,)] * 60
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) == (0.0,)

    def test_snap_to_small_denominator(self):
        f = _quadratic_1d()
        points = [(0.5 + 2.0 ** -k,) for k in range(60)]
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) == (0.5,)

    def test_divergent_trace_returns_none(self):
        f = _quadratic_1d()
        points = [(float(k),) for k in range(1, 50)]
        trace = trace_from_points(f, points)
        assert find_cluster_point(trace) is None

    def test_constant_trace_returns_start(self):
        f = _quadratic_1d()
        trace = trace_from_points(f, [(0.25,)] * 10)
        assert find_cluster_point(trace) == (0.25,)


class TestDirectionTrail:
    def test_pinch_trail_pencil_values_are_one(self):
        f = _pinch()
        trace = optimize(f, (2.0, -0.1), DescentConfig(max_iters=400))
        pencil = analyze_singularity(f, (0, 0))
        trail = direction_trail(trace, pencil)
        # f_2(u) = ||u||^2 = 1 on unit directions.
        for value in trail.pencil_values:
            assert value == pytest.approx(1.0, abs=1e-9)
        assert trail.min_tail_pencil == pytest.approx(1.0, abs=1e-9)
        assert trail_certifies_safe_approach(trail)

    def test_unit_norm_invariant(self):
        f = _pinch()
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
        f = _quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.0,), (0.5,)])
        pencil = analyze_singularity(f, (0,))
        trail = direction_trail(trace, pencil)
        assert trail.skipped == 1
        assert len(trail.unit_directions) == 2

    def test_single_step_trace(self):
        f = _quadratic_1d()
        trace = trace_from_points(f, [(1.0,)])
        pencil = analyze_singularity(f, (0,))
        trail = direction_trail(trace, pencil)
        assert len(trail.unit_directions) == 1


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

    def test_constant_decrements_fall_back_to_last_value(self):
        # Every log-decrement is log(1/4) exactly: no contraction to fit.
        values = [1.0 - 0.25 * k for k in range(30)]
        limit, method = estimate_limit(values)
        assert method == "last_value"
        assert limit == values[-1]


class TestLojasiewiczProbe:
    def test_halving_trace_certificate_constants(self):
        """x_k = 2^-k on f = x^2: |f|^{1/2} = |x| = c * ||grad|| with c = 1/2."""
        f = _quadratic_1d()
        points = [(2.0 ** -k,) for k in range(20)]
        trace = trace_from_points(f, points)
        certs = lojasiewicz_probe(trace, 0, theta_grid=[0.5], L=0.0)
        assert len(certs) == 1
        assert certs[0].feasible
        assert certs[0].c == pytest.approx(0.5)

    def test_certificates_sorted_and_verified(self):
        f = _pinch()
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
        f = _pinch()
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
        f = _quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.25,), (0.5,)])
        with pytest.raises(ValueError):
            lojasiewicz_probe(trace, 0, [0.5], L=0.0)

    def test_empty_tail_rejected(self):
        f = _quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.5,)])
        with pytest.raises(ValueError):
            lojasiewicz_probe(trace, 5, [0.5])

    def test_theta_outside_unit_interval_rejected(self):
        """f = 1e-100, 1e-200, 0: r ** (1 - 3) would overflow at theta = 3."""
        f = _quadratic_1d()
        trace = trace_from_points(f, [(1e-50,), (1e-100,), (0.0,)])
        assert trace.f_values == (1e-100, 1e-200, 0.0)
        with pytest.raises(ValueError, match="theta=3.0"):
            lojasiewicz_probe(trace, 0, theta_grid=(0.5, 3.0), L=0.0)
        (cert,) = lojasiewicz_probe(trace, 0, theta_grid=(0.5,), L=0.0)
        for theta in (3.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="theta"):
                verify_certificate(trace, dataclasses.replace(cert, theta=theta))


class TestRateClassify:
    def _trace_with_radii(self, radii):
        f = _quadratic_1d()
        return trace_from_points(f, [(r,) for r in radii])

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
        assert est.regime == "inconclusive"

    def test_increasing_radii_inconclusive(self):
        trace = self._trace_with_radii([0.1 * (k + 1) for k in range(20)])
        est = rate_classify(trace, (0.0,), 0)
        assert est.regime == "inconclusive"

    @pytest.mark.parametrize("n_iterates", range(5, 13))
    def test_stuck_after_one_move_not_sublinear(self, n_iterates):
        # One move, then the distance to x* stays 0.5: log r against log k is
        # constant, which fits no power law.
        points = [(1.0, 0.0)] + [(0.5, 0.0)] * (n_iterates - 1)
        trace = trace_from_points(_pinch(), points)
        est = rate_classify(trace, (0, 0), 0)
        assert est.regime != "sublinear"

    def test_short_tail_inconclusive(self):
        trace = self._trace_with_radii([1.0, 0.5])
        est = rate_classify(trace, (0.0,), 0)
        assert est.regime == "inconclusive"
