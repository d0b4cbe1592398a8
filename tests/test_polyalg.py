"""Exact polynomial/rational algebra: ring laws, calculus, evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim.polyalg import (
    DimensionError,
    DomainViolation,
    Polynomial,
    RationalFunction,
)
from singulim.problems import BUNDLED_NAMES, load_bundled

N_VARS = 3


def _vars(n=2):
    return [Polynomial.variable(n, i) for i in range(n)]


@st.composite
def polynomials(draw, n_vars=N_VARS, max_degree=4, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree // max(1, n_vars - 1)))
            for _ in range(n_vars)
        )
        coeff = draw(st.integers(-9, 9))
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(n_vars, {e: Fraction(c) for e, c in terms.items() if c})


points = st.tuples(*([st.integers(-5, 5)] * N_VARS))


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    def test_difference_of_squares(self):
        x, y = _vars()
        assert (x + y) * (x - y) == x * x - y * y

    def test_multiplication_by_zero_annihilates(self):
        x, y = _vars()
        p = (x + y) ** 3
        assert (p * Polynomial.zero(2)).is_zero()
        assert (p.scale(0)).terms == {}

    def test_quartic_expansion(self):
        x, y = _vars()
        r2 = x * x + y * y
        product = r2 * (1 + r2)
        expected = Polynomial(2, {
            (2, 0): 1, (0, 2): 1, (4, 0): 1, (2, 2): 2, (0, 4): 1,
        })
        assert product == expected

    def test_mismatched_n_vars_rejected(self):
        with pytest.raises(DimensionError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
        with pytest.raises(DimensionError):
            Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


class TestCanonicalForm:
    def test_zero_coefficients_never_stored(self):
        p = Polynomial(2, {(1, 0): Fraction(3), (0, 1): Fraction(0)})
        assert list(p.terms) == [(1, 0)]

    def test_cancellation_is_exact(self):
        x, y = _vars()
        assert (x - x).is_zero()
        assert ((x + y) ** 2 - x * x - 2 * x * y - y * y).is_zero()

    def test_degree(self):
        x, y = _vars()
        assert Polynomial.zero(2).degree() == 0
        assert (x * x * y + y).degree() == 3

    def test_pow_matches_repeated_multiplication(self):
        x, y = _vars()
        p = x + 2 * y + 1
        assert p ** 4 == p * p * p * p
        assert p ** 0 == Polynomial.constant(2, 1)


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), points)
    def test_evaluation_homomorphism_exact(self, a, b, x):
        assert (a * b).eval_exact(x) == a.eval_exact(x) * b.eval_exact(x)
        assert (a + b).eval_exact(x) == a.eval_exact(x) + b.eval_exact(x)

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), points)
    def test_evaluation_homomorphism_float(self, a, b, x):
        lhs = (a * b).eval_float(x)
        rhs = a.eval_float(x) * b.eval_float(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_direct_substitution(self):
        x, y = _vars()
        assert (x * x - y * y).eval_float((3.0, 2.0)) == 5.0
        assert Polynomial.zero(2).eval_float((7.0, -1.0)) == 0.0
        r2 = x * x + y * y
        assert (r2 * (1 + r2)).eval_float((1.0, 1.0)) == 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Polynomial.variable(2, 0).eval_float((1.0,))


class TestCalculus:
    def test_power_rule(self):
        x, y = _vars()
        assert (x * x * y).partial(0) == 2 * x * y
        assert (y ** 3).partial(0).is_zero()

    def test_product_rule_identity(self):
        x, y = _vars()
        r2 = x * x + y * y
        d = (r2 * (1 + r2)).partial(1)
        assert d == 2 * y + 4 * y * r2

    @settings(max_examples=40, deadline=None)
    @given(polynomials(), polynomials())
    def test_product_rule_exact(self, a, b):
        for i in range(N_VARS):
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)

    @settings(max_examples=40, deadline=None)
    @given(polynomials(), polynomials())
    def test_derivative_linearity(self, a, b):
        for i in range(N_VARS):
            assert (a + b).partial(i) == a.partial(i) + b.partial(i)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            Polynomial.variable(2, 0).partial(2)


class TestComposeLine:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(n_vars=2),
           st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * 2),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           st.fractions(min_value=-2, max_value=2, max_denominator=8))
    def test_line_composition_consistency(self, p, base, d, t):
        coeffs = p.compose_line(base)
        shifted = tuple(b + t * di for b, di in zip(base, d))
        direct = p.eval_exact(shifted)
        series = sum(
            (f_n.eval_exact(d) * t ** n for n, f_n in enumerate(coeffs)),
            Fraction(0),
        )
        assert direct == series

    def test_quartic_pencil_at_origin(self):
        x, y = _vars()
        r2 = x * x + y * y
        coeffs = (r2 * (1 + r2)).compose_line((0, 0))
        assert coeffs[0].is_zero() and coeffs[1].is_zero()
        assert coeffs[2] == r2
        assert coeffs[3].is_zero()
        assert coeffs[4] == r2 * r2

    def test_constant_polynomial(self):
        p = Polynomial.constant(2, 5)
        coeffs = p.compose_line((3, -1))
        assert coeffs[0] == Polynomial.constant(2, 5)
        assert all(c.is_zero() for c in coeffs[1:])

    def test_affine_shift(self):
        p = Polynomial.variable(1, 0)
        coeffs = p.compose_line((1,))
        assert coeffs[0] == Polynomial.constant(1, 1)
        assert coeffs[1] == Polynomial.variable(1, 0)


class TestShift:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(n_vars=2),
           st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * 2),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_shift_is_exact_substitution(self, p, offset, d):
        moved = tuple(o + di for o, di in zip(offset, d))
        assert p.shift(offset).eval_exact(d) == p.eval_exact(moved)


class TestLocalCharts:
    """Float evaluation keeps its accuracy near every declared singular point."""

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_eval_matches_exact_near_singular_points(self, name):
        problem = load_bundled(name)
        f = problem.rational()
        for point in problem.singular_points:
            c = [float(v) for v in point]
            with pytest.raises(DomainViolation):
                f.eval(c)
            for k in range(1, 7):
                delta = 10.0 ** -k
                # Eight directions, none along an axis, where f may vanish.
                for j in range(8):
                    angle = 2 * math.pi * (j + 0.3) / 8
                    x = (c[0] + delta * math.cos(angle),
                         c[1] + delta * math.sin(angle))
                    exact = f.eval_exact(x)
                    error = abs(Fraction(f.eval(x)) - exact)
                    assert error <= Fraction(1e-13) * abs(exact), (point, delta, j)

    def test_chart_violation_reports_the_point_itself(self):
        f = load_bundled("multi3").rational()
        with pytest.raises(DomainViolation) as err:
            f.eval((3.0, 0.0))
        assert err.value.point == (3.0, 0.0)


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        x = Polynomial.variable(1, 0)
        with pytest.raises(ValueError):
            RationalFunction(x, Polynomial.zero(1))

    def test_runge_value_and_gradient(self):
        x = Polynomial.variable(1, 0)
        r = RationalFunction(Polynomial.constant(1, 1), 1 + x * x)
        value, grad = r.eval_and_grad((1.0,))
        assert value == pytest.approx(0.5)
        assert grad[0] == pytest.approx(-0.5)

    def test_constant_function(self):
        c = RationalFunction(
            Polynomial.constant(2, Fraction(7, 3)), Polynomial.constant(2, 1)
        )
        value, grad = c.eval_and_grad((0.2, -4.0))
        assert value == pytest.approx(7.0 / 3.0)
        assert grad == [0.0, 0.0]

    def test_pinch_point_value(self):
        x, y = _vars()
        r2 = x * x + y * y
        f = RationalFunction(x * y, r2 * (1 + r2))
        value, grad = f.eval_and_grad((1.0, -1.0))
        assert value == pytest.approx(-1.0 / 6.0)
        assert all(math.isfinite(g) for g in grad)

    def test_domain_violation_carries_point(self):
        x, y = _vars()
        f = RationalFunction(x, x * x + y * y)
        with pytest.raises(DomainViolation) as err:
            f.eval((0.0, 0.0))
        assert err.value.point == (0.0, 0.0)

    def test_cross_multiplied_equality(self):
        x = Polynomial.variable(1, 0)
        a = RationalFunction(x, x * x)  # x / x^2
        b = RationalFunction(Polynomial.constant(1, 1), x)  # 1 / x
        assert a == b

    def test_common_factor_stored_and_cancelled_in_evaluation(self):
        x, y = _vars()
        r2 = x * x + y * y
        f = RationalFunction.with_common_factor(x * y, r2, r2)
        assert f.numer == x * y * r2 and f.denom == r2 * r2
        assert f == RationalFunction(x * y, r2)
        assert f.eval_exact((1, 2)) == Fraction(2, 5)
        # r2^2 underflows below DENOM_FLOOR here, r2 does not.
        assert f.eval((1e-100, 2e-100)) == pytest.approx(0.4, rel=1e-15)
        with pytest.raises(DomainViolation):
            f.eval((0.0, 0.0))

    def test_gradient_matches_finite_differences(self):
        x, y = _vars()
        r2 = x * x + y * y
        f = RationalFunction(x * y, r2 * (1 + r2))
        rng_points = [(0.7, 1.3), (2.0, -0.5), (-1.1, -0.9), (0.3, 2.4)]
        h = 1e-6
        for p in rng_points:
            _, grad = f.eval_and_grad(p)
            for i in range(2):
                hi = [0.0, 0.0]
                hi[i] = h
                fd = (f.eval((p[0] + hi[0], p[1] + hi[1]))
                      - f.eval((p[0] - hi[0], p[1] - hi[1]))) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)
