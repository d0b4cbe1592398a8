"""Normalization bound, degree-0 homogeneity, CP tensor objective."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim.descent import DescentConfig, check_conditions, optimize, trace_from_points
from singulim.homog import (
    CPModel,
    build_cp_objective,
    euler_check,
    euler_residual_ok,
    normalization_bound_check,
    normalize,
    normalized_a1_check,
)
from singulim.polyalg import DomainViolation, Polynomial, RationalFunction


def _rank1_2x2(target):
    model = CPModel((2, 2), 1)
    return model, build_cp_objective(model, target)


def _rank1_2x2_polys(target):
    """I = <tau, T> and G = ||tau||^2 for tau = a (x) b, x = (a0, a1, b0, b1),
    built from the outer product directly rather than by the CP builder."""
    a0, a1, b0, b1 = (Polynomial.variable(4, i) for i in range(4))
    a, b = (a0, a1), (b0, b1)
    inner = sum(
        (a[i] * b[j]).scale(Fraction(target[i][j]))
        for i in range(2) for j in range(2)
    )
    gram = (a0 * a0 + a1 * a1) * (b0 * b0 + b1 * b1)
    return inner, gram


def _power_iteration_sigma1(matrix, iters=200):
    """Largest singular value via power iteration on M^T M (oracle)."""
    m = np.asarray(matrix, dtype=float)
    gram = m.T @ m
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(float(v @ gram @ v))


class TestNormalize:
    def test_three_four_five(self):
        assert normalize((3.0, 4.0)) == pytest.approx((0.6, 0.8))

    def test_idempotent_on_unit_vectors(self):
        u = normalize((1.0, 2.0, -2.0))
        assert normalize(u) == pytest.approx(u)
        assert math.sqrt(sum(x * x for x in u)) == pytest.approx(1.0, abs=1e-15)

    def test_tiny_vector_no_underflow(self):
        assert normalize((1e-200, 0.0)) == pytest.approx((1.0, 0.0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize((0.0, 0.0))


class TestNormalizationBound:
    def test_collinear_pair(self):
        lhs, rhs = normalization_bound_check((1.0, 0.0), (2.0, 0.0))
        assert lhs == pytest.approx(0.0)
        assert rhs == pytest.approx(2.0)

    def test_orthogonal_pair(self):
        lhs, rhs = normalization_bound_check((1.0, 0.0), (0.0, 1.0))
        assert lhs == pytest.approx(math.sqrt(2.0))
        assert rhs == pytest.approx(2.0 * math.sqrt(2.0))

    def test_equality_case(self):
        lhs, rhs = normalization_bound_check((1.0, 0.0), (1.0, 0.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_non_unit_u_rejected(self):
        with pytest.raises(ValueError):
            normalization_bound_check((2.0, 0.0), (1.0, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
    def test_bound_holds_randomly(self, dim, seed_u, seed_v):
        rng = random.Random(seed_u * (10 ** 9 + 7) + seed_v)
        u = normalize([rng.gauss(0, 1) for _ in range(dim)])
        v = [rng.gauss(0, 1) * 10 ** rng.randint(-3, 3) for _ in range(dim)]
        if all(x == 0.0 for x in v):
            v[0] = 1.0
        lhs, rhs = normalization_bound_check(u, v)
        assert lhs <= rhs + 1e-12


class TestCPModel:
    def test_parameter_layout(self):
        model = CPModel((2, 3), 2)
        assert model.n_params == 10
        assert model.var_index(0, 0, 1) == 1
        assert model.var_index(0, 1, 2) == 4
        assert model.var_index(1, 0, 0) == 5

    def test_tau_matches_outer_products(self):
        model = CPModel((2, 2), 1)
        tau = model.tau([1.0, 2.0, 3.0, 4.0])
        assert tau == pytest.approx(np.outer([1.0, 2.0], [3.0, 4.0]))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            CPModel((2,), 1)
        with pytest.raises(ValueError):
            CPModel((2, 2), 0)


class TestBuildCPObjective:
    def test_rank1_matrix_closed_form(self):
        """f = 1 - (a1 b1)^2 / ((a1^2+a2^2)(b1^2+b2^2)) for T = e1 (x) e1."""
        _, obj = _rank1_2x2([[1.0, 0.0], [0.0, 0.0]])
        a = (1.0, 0.5, 0.8, -0.2)
        expected = 1.0 - (a[0] * a[2]) ** 2 / (
            (a[0] ** 2 + a[1] ** 2) * (a[2] ** 2 + a[3] ** 2)
        )
        assert obj.eval(a) == pytest.approx(expected)
        assert obj.eval((1.0, 0.0, 1.0, 0.0)) == pytest.approx(0.0)

    def test_denominator_is_gram_squared(self):
        model, obj = _rank1_2x2([[1.0, 2.0], [3.0, 4.0]])
        rng = random.Random(1)
        for _ in range(20):
            x = [rng.gauss(0, 1) for _ in range(4)]
            tau = model.tau(x)
            gram = float(np.sum(tau * tau))
            assert obj.f_hat.denom.eval_float(x) == pytest.approx(gram ** 2, rel=1e-10)

    def test_degree_zero_homogeneity(self):
        _, obj = _rank1_2x2([[1.0, -2.0], [0.5, 3.0]])
        rng = random.Random(9)
        for _ in range(100):
            x = [rng.gauss(0, 1) for _ in range(4)]
            c = 10 ** rng.uniform(-3, 3) * rng.choice([-1, 1])
            fx = obj.eval(x)
            assert abs(obj.eval([c * v for v in x]) - fx) <= 1e-10 * (1 + abs(fx))

    def test_bounded_by_target_norm(self):
        rng = random.Random(4)
        target = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        target[0][0] = target[0][0] or 1
        model, obj = _rank1_2x2(target)
        for _ in range(200):
            x = [rng.gauss(0, 1) for _ in range(4)]
            value = obj.eval(x)
            assert -1e-9 <= value <= obj.target_norm_sq + 1e-9

    def test_extreme_scales_keep_value(self):
        """Criterion 9's target: G^2 under- and overflows at these scales, G does not."""
        rng = random.Random(43)
        model = CPModel((2, 2, 2), 2)
        target = np.array(
            [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
             for _ in range(2)], dtype=float)
        target[0, 0, 0] = target[0, 0, 0] or 1.0
        obj = build_cp_objective(model, target)
        for _ in range(20):
            x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
            fx = obj.eval(x)
            for c in (1e-30, 1e30):
                assert abs(obj.eval([c * v for v in x]) - fx) <= 1e-10 * (1 + abs(fx))
        with pytest.raises(DomainViolation):
            obj.eval([0.0] * model.n_params)

    def test_shape_mismatch_rejected(self):
        model = CPModel((2, 2), 1)
        with pytest.raises(ValueError):
            build_cp_objective(model, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_budget_enforced(self):
        model = CPModel((3, 3, 3), 2)  # 18 params > 12 budget
        with pytest.raises(ValueError):
            build_cp_objective(model, np.zeros((3, 3, 3)))


class TestExactAgreement:
    TARGET = [[1.0, -0.75], [0.5, 3.0]]

    def test_reduced_form_equals_stored_form(self):
        _, obj = _rank1_2x2(self.TARGET)
        inner, gram = _rank1_2x2_polys(self.TARGET)
        t_sq = sum(Fraction(v) ** 2 for row in self.TARGET for v in row)
        assert obj.f_hat == RationalFunction(gram.scale(t_sq) - inner * inner, gram)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_float_matches_exact(self, seed):
        _, obj = _rank1_2x2(self.TARGET)
        numer, denom = obj.f_hat.numer, obj.f_hat.denom
        rng = random.Random(seed)
        x = [rng.gauss(0.0, 1.0) for _ in range(4)]
        exact = obj.f_hat.eval_exact(x)
        assert exact == numer.eval_exact(x) / denom.eval_exact(x)
        value, grad = obj.eval_and_grad(x)
        assert obj.eval(x) == value
        assert abs(value - exact) <= 1e-12 * (1 + abs(exact))
        # grad(p/q) = (q grad p - p grad q) / q^2 of the stored G^2 form.
        p, q = numer.eval_exact(x), denom.eval_exact(x)
        exact_grad = [
            (q * numer.partial(i).eval_exact(x) - p * denom.partial(i).eval_exact(x))
            / (q * q)
            for i in range(4)
        ]
        scale = 1 + math.sqrt(sum(float(g) ** 2 for g in exact_grad))
        for g, e in zip(grad, exact_grad):
            assert abs(g - e) <= 1e-12 * scale


class TestEulerIdentity:
    def test_zero_radial_derivative(self):
        _, obj = _rank1_2x2([[1.0, 0.3], [0.2, -0.7]])
        x = (1.0, 0.3, 0.9, 0.2)
        assert euler_residual_ok(obj, x)
        assert euler_residual_ok(obj, tuple(5.0 * v for v in x))

    def test_gradient_scaling_identity(self):
        """grad at u = x/||x|| equals ||x|| times grad at x."""
        _, obj = _rank1_2x2([[2.0, 1.0], [0.0, -1.0]])
        rng = random.Random(13)
        for _ in range(20):
            x = [rng.gauss(0, 1) for _ in range(4)]
            norm = math.sqrt(sum(v * v for v in x))
            _, gx = obj.eval_and_grad(x)
            _, gu = obj.eval_and_grad([v / norm for v in x])
            for a, b in zip(gu, gx):
                assert a == pytest.approx(norm * b, rel=1e-8, abs=1e-10)


class TestRank1Oracle:
    def test_minimum_matches_largest_singular_value(self):
        rng = random.Random(21)
        for _ in range(3):
            target = [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
            _, obj = _rank1_2x2(target)
            x0 = [rng.gauss(0, 1) for _ in range(4)]
            trace = optimize(obj.f_hat, x0, DescentConfig(max_iters=5000))
            sigma1 = _power_iteration_sigma1(target)
            expected = obj.target_norm_sq - sigma1 ** 2
            assert trace.f_values[-1] == pytest.approx(expected, abs=1e-6)


class TestNormalizedA1:
    def test_normalized_sigma_at_least_half(self):
        _, obj = _rank1_2x2([[1.0, 0.4], [-0.3, 0.8]])
        # Stop while the per-step decrements are still far above roundoff;
        # near the minimum the f-differences at renormalized points drown
        # in floating-point noise.
        trace = optimize(obj.f_hat, (1.0, 0.7, 0.6, -0.4),
                         DescentConfig(max_iters=200, grad_tol=1e-4))
        original = check_conditions(trace, 0)
        normalized = normalized_a1_check(trace, obj)
        if normalized.sigma_hat is not None:
            assert normalized.sigma_hat >= original.sigma_hat / 2 - 1e-12

    def test_already_normalized_trace_unchanged(self):
        _, obj = _rank1_2x2([[1.0, 0.0], [0.0, 1.0]])
        points = [normalize([1.0, t, 1.0, -t]) for t in (0.5, 0.4, 0.3, 0.2)]
        trace = trace_from_points(obj.f_hat, points)
        normalized = normalized_a1_check(trace, obj)
        original = check_conditions(trace, 0)
        assert normalized.sigma_hat == pytest.approx(original.sigma_hat)
        assert normalized.kappa_hat == pytest.approx(original.kappa_hat)

    def test_trace_with_zero_vector_rejected(self):
        t_points = [(1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
        _, obj = _rank1_2x2([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            # The zero vector is outside the objective's domain already.
            normalized_a1_check(trace_from_points(obj.f_hat, t_points), obj)
