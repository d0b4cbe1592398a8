"""Exact polynomial/rational algebra: ring laws, calculus, evaluation."""

import ast
import functools
import gc
import math
import random
import re
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singulim import polyalg
from singulim.descent import MAX_BACKTRACKS, DescentConfig, optimize
from singulim.limits import direction_trail
from singulim.polyalg import (
    TERMS_PER_STATEMENT,
    DimensionError,
    DomainViolation,
    Polynomial,
    RationalFunction,
    _as_fraction,
    _exact_numerators,
    _ExactEvaluator,
    _integer_form,
    _nearest,
    _shift_terms,
)
from singulim.problems import BUNDLED_NAMES, MAX_EXPONENT, load_bundled
from singulim.singan import analyze_singularity, taylor_line

from descent_helpers import (
    cp_f_hat,
    float_hex,
    line_search,
    looped,
    reference_search,
    search,
    step_loop,
)

N_VARS = 3


def _vars(n=2):
    return [Polynomial.variable(n, i) for i in range(n)]


@st.composite
def polynomials(draw, n_vars=N_VARS, max_degree=4, max_terms=5,
                coefficients=st.integers(-9, 9)):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree // max(1, n_vars - 1)))
            for _ in range(n_vars)
        )
        coeff = draw(coefficients)
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(n_vars, {e: Fraction(c) for e, c in terms.items() if c})


points = st.tuples(*([st.integers(-5, 5)] * N_VARS))


@st.composite
def chains(draw, n_vars, n_out, **kwargs):
    """A chain of inner levels from n_vars variables to n_out values: one
    level, or two whose first holds 1-3 polynomials.  kwargs go to
    polynomials()."""
    sizes = [n_out]
    if draw(st.booleans()):
        sizes.insert(0, draw(st.integers(1, 3)))
    levels = []
    for size in sizes:
        levels.append([draw(polynomials(n_vars, **kwargs)) for _ in range(size)])
        n_vars = size
    return levels


def _compose_through(poly, levels):
    """poly composed with the last level, that with the one before, and so
    on: a polynomial in the first level's variables."""
    for level in reversed(levels):
        poly = poly.compose(level)
    return poly

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
# Rational coefficients whose products and sums are often integral.
rationals = st.one_of(st.integers(-9, 9), small_fractions)
# Exact coordinates in every accepted form: ints, Fractions, "p/q" strings and
# floats, with subnormals, the extremes of the exponent range and -0.0.
coordinates = st.one_of(
    st.integers(-20, 20),
    small_fractions,
    small_fractions.map(lambda v: f"{v.numerator}/{v.denominator}"),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        5e-324, -2.5e-323, 2.2250738585072009e-308, 1e-300, -1e-300,
        1e300, -1e300, -0.0,
    ]),
)


def _substituted(poly, x):
    """poly at x by plain Fraction arithmetic, term by term."""
    coords = [Fraction(v) for v in x]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for v, e in zip(coords, exps):
            term *= v ** e
        total += term
    return total


def _assert_stored_form(poly):
    """Each coefficient is an int where it is integral, else a Fraction."""
    for coeff in poly.terms.values():
        assert coeff != 0
        assert type(coeff) is (int if Fraction(coeff).denominator == 1 else Fraction)


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


class TestRejectedInputsAndOperators:
    """Checks and operators that the algebra tests above do not reach."""

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="n_vars must be non-negative"):
            Polynomial(-1)

    def test_exponent_tuple_of_the_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="has length 1, expected 2"):
            Polynomial(2, {(1,): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(1, -1): 1})

    @pytest.mark.parametrize("exps", [(2.5, 0), (True, 0)], ids=["float", "bool"])
    def test_exponent_that_is_not_an_integer_rejected(self, exps):
        """int() would truncate 2.5 to 2 and read True as 1."""
        with pytest.raises(ValueError, match="must be integers"):
            Polynomial(2, {exps: 1})

    @pytest.mark.parametrize("n_vars", [2.0, True], ids=["float", "bool"])
    def test_variable_count_that_is_not_an_integer_rejected(self, n_vars):
        with pytest.raises(ValueError, match="must be an integer"):
            Polynomial(n_vars, {})

    def test_numpy_integers_accepted(self):
        poly = Polynomial(np.int64(2), {(np.int32(2), np.uint8(0)): 1})
        assert poly == Polynomial(2, {(2, 0): 1})
        assert type(poly.n_vars) is int
        assert [type(e) for exps in poly.terms for e in exps] == [int, int]

    @pytest.mark.parametrize("index", [-1, 2])
    def test_variable_index_out_of_range(self, index):
        with pytest.raises(IndexError, match="out of range"):
            Polynomial.variable(2, index)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative polynomial power"):
            Polynomial.variable(2, 0) ** -1

    def test_number_minus_polynomial(self):
        x, _ = _vars()
        assert (2 - x).terms == {(0, 0): 2, (1, 0): -1}

    def test_equality_with_a_number_is_false(self):
        one = Polynomial.constant(2, 1)
        assert (one == 1) is False
        assert (RationalFunction(one, one) == 1) is False

    def test_rational_function_repr(self):
        x, y = _vars()
        assert repr(RationalFunction(x, 1 + y)) == (
            "RationalFunction(Polynomial(2, 1*x0), Polynomial(2, 1 + 1*x1))"
        )

    @pytest.mark.parametrize("value, expected", [
        (Fraction(1, 3), Fraction(1, 3)),
        (3, Fraction(3)),
        (True, Fraction(1)),
        (0.5, Fraction(1, 2)),
        ("-2/6", Fraction(-1, 3)),
    ], ids=["fraction", "int", "bool", "float", "str"])
    def test_as_fraction_accepts_rationals_floats_and_strings(self, value, expected):
        assert _as_fraction(value) == expected
        assert type(_as_fraction(value)) is Fraction

    def test_as_fraction_returns_a_fraction_as_it_is(self):
        value = Fraction(2, 7)
        assert _as_fraction(value) is value

    @pytest.mark.parametrize("value", [object(), Decimal("0.5"), None, 1j],
                             ids=["object", "decimal", "none", "complex"])
    def test_as_fraction_rejects_anything_else(self, value):
        with pytest.raises(TypeError, match="as an exact rational"):
            _as_fraction(value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                             ids=["inf", "-inf", "nan", "numpy-inf"])
    def test_as_fraction_rejects_a_non_finite_float_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"{value!r} is not finite")):
            _as_fraction(value)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("call", [
        lambda f, x: f.numer.eval_exact(x),
        lambda f, x: f.eval_exact(x),
        lambda f, x: f.eval_exact_and_grad(x),
    ], ids=["Polynomial.eval_exact", "eval_exact", "eval_exact_and_grad"])
    def test_exact_evaluation_rejects_a_non_finite_coordinate(self, call, value):
        """One ValueError that names the value, at the first (looped) call
        and at a generated one."""
        f = load_bundled("multi3").rational()
        for _ in range(2):
            call(f, (0.5, 0.25))
            with pytest.raises(ValueError, match=f"^{value!r} is not finite"):
                call(f, (value, 0.0))


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


def _fraction_shift_terms(terms, offset):
    """Reference Taylor shift: the Horner recurrence a_j += c * a_{j+1} on
    each variable's coefficient rows, in Fraction arithmetic."""
    for i, value in enumerate(offset):
        c = Fraction(value)
        if c == 0:
            continue
        rows = {}
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
    return {e: int(c) if Fraction(c).denominator == 1 else Fraction(c)
            for e, c in terms.items()}


def _assert_shift_matches_reference(terms, offset):
    """Equal coefficients, of equal type, in the reference's term order (the
    float evaluation order of a chart built from them)."""
    shifted = _shift_terms(terms, offset)
    reference = _fraction_shift_terms(terms, offset)
    assert shifted == reference
    assert list(shifted) == list(reference)
    assert [type(c) for c in shifted.values()] == [type(c) for c in reference.values()]


class TestShift:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(n_vars=2),
           st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * 2),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_shift_is_exact_substitution(self, p, offset, d):
        moved = tuple(o + di for o, di in zip(offset, d))
        assert p.shift(offset).eval_exact(d) == p.eval_exact(moved)

    @settings(max_examples=80, deadline=None)
    @given(polynomials(coefficients=rationals, max_degree=6, max_terms=8),
           st.tuples(*[st.one_of(st.integers(-9, 9), small_fractions,
                                 st.floats(-4, 4))] * N_VARS))
    def test_integer_shift_matches_fraction_reference(self, p, offset):
        _assert_shift_matches_reference(p.terms, offset)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_integer_shift_matches_reference_at_declared_centres(self, name):
        """Exact points and the float centres the charts are built at."""
        problem = load_bundled(name)
        for point in problem.singular_points:
            for offset in (point, tuple(float(v) for v in point)):
                for poly in (problem.numer, problem.denom):
                    _assert_shift_matches_reference(poly.terms, offset)

    def test_integer_shift_matches_reference_on_cp_objective(self):
        half = Fraction(1, 2)
        offset = (1, 2, half, 3, -1, 2, -1, -2, half, 3, -1, 2)
        f = cp_f_hat()
        for poly in (f.numer, f.denom):
            _assert_shift_matches_reference(poly.terms, offset)


class TestCompose:
    @settings(max_examples=40, deadline=None)
    @given(polynomials(n_vars=2, max_degree=3, max_terms=4),
           polynomials(max_degree=2, max_terms=3),
           polynomials(max_degree=2, max_terms=3), points)
    def test_compose_is_exact_substitution(self, p, a, b, x):
        assert p.compose([a, b]).eval_exact(x) == p.eval_exact(
            [a.eval_exact(x), b.eval_exact(x)])

    def test_inner_count_must_match_variables(self):
        x, y = _vars()
        with pytest.raises(DimensionError):
            (x * y).compose([x])


class TestExactLayer:
    """Integer-arithmetic exact layer against plain Fraction substitution."""

    @settings(max_examples=80, deadline=None)
    @given(polynomials(coefficients=rationals), st.tuples(*[coordinates] * N_VARS))
    def test_eval_exact_matches_substitution(self, p, x):
        value = p.eval_exact(x)
        assert type(value) is Fraction
        assert value == _substituted(p, x)

    @settings(max_examples=60, deadline=None)
    @given(polynomials(n_vars=2, max_degree=3, max_terms=4, coefficients=rationals),
           polynomials(n_vars=2, max_degree=2, max_terms=3, coefficients=rationals),
           chains(N_VARS, 2, max_degree=2, max_terms=3, coefficients=rationals),
           st.tuples(*[coordinates] * N_VARS))
    def test_composed_eval_exact_matches_composing_first(self, p, q, inner, x):
        """One- and two-level chains."""
        q = q + 1
        assume(not _compose_through(q, inner).is_zero())
        f = RationalFunction.composed(p, q, inner)
        denom = _substituted(_compose_through(q, inner), x)
        if denom == 0:
            with pytest.raises(DomainViolation):
                f.eval_exact(x)
        else:
            assert f.eval_exact(x) == _substituted(_compose_through(p, inner), x) / denom

    @settings(max_examples=60, deadline=None)
    @given(polynomials(n_vars=2, max_degree=3, max_terms=4, coefficients=rationals),
           polynomials(n_vars=2, max_degree=2, max_terms=3, coefficients=rationals),
           chains(N_VARS, 2, max_degree=2, max_terms=3, coefficients=rationals),
           st.booleans(),
           st.tuples(*[st.one_of(st.integers(-9, 9), small_fractions, st.floats(-4, 4))]
                     * N_VARS))
    @example(p=Polynomial.zero(2), q=Polynomial.constant(2, -1),
             inner=[[Polynomial.zero(N_VARS)] * 2], composed=False, x=(0, 0, 0))
    def test_exact_gradient_is_the_quotient_rule(self, p, q, inner, composed, x):
        """Plain quotients, and quotients through one- and two-level chains,
        against the quotient rule on the pair composed first."""
        q = q + 1
        if composed:
            assume(not _compose_through(q, inner).is_zero())
            f = RationalFunction.composed(p, q, inner)
        elif q.is_zero():
            with pytest.raises(ValueError, match="identically zero"):
                RationalFunction(p, q)
            return
        else:
            f = RationalFunction(p, q)
        numer, denom = f.numer, f.denom
        x = x[:f.n_vars]
        q_value = _substituted(denom, x)
        if q_value == 0:
            with pytest.raises(DomainViolation):
                f.eval_exact_and_grad(x)
            return
        p_value = _substituted(numer, x)
        value, grad = f.eval_exact_and_grad(x)
        assert value == p_value / q_value == f.eval_exact(x)
        assert grad == [
            (q_value * _substituted(numer.partial(i), x)
             - p_value * _substituted(denom.partial(i), x)) / q_value ** 2
            for i in range(f.n_vars)
        ]
        assert all(type(g) is Fraction for g in grad)

    @settings(max_examples=60, deadline=None)
    @given(polynomials(n_vars=2, coefficients=rationals),
           polynomials(n_vars=2, coefficients=rationals),
           rationals,
           st.lists(polynomials(n_vars=2, max_degree=2, max_terms=3,
                                coefficients=rationals), min_size=2, max_size=2),
           st.tuples(small_fractions, small_fractions))
    def test_integral_coefficients_come_back_as_int(self, a, b, k, inner, offset):
        _assert_stored_form(a)
        for result in (
            a * b, a + b, a - b, -a, a.scale(k), a.partial(0), a.partial(1),
            a.compose(inner), a.shift(offset), *a.compose_line(offset),
        ):
            _assert_stored_form(result)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(polynomials(n_vars=n, max_degree=6, max_terms=6, coefficients=rationals),
                 min_size=1, max_size=4),
        st.lists(st.tuples(st.tuples(*[st.integers(-50, 50)] * n), st.integers(1, 30)),
                 min_size=2, max_size=2),
    )))
    @example(((Polynomial.zero(1), Polynomial.constant(1, 7),
               Polynomial(1, {(e,): (-1) ** e * (e + 1) for e in range(1001)})),
              [((3,), 1), ((-2,), 6)]))
    def test_generated_exact_code_agrees_with_the_loop(self, case):
        """An exact evaluator's first call runs _exact_numerators and its
        second generates code that returns the same integers, at any integer
        point and scale: the zero form, a constant and a degree-1000 form
        included."""
        polys, calls = case
        forms = [_integer_form(p.terms) for p in polys]
        exact = _ExactEvaluator(forms)
        for point, s in [calls[0], *calls]:  # looped, generated, reused
            assert exact.evaluate(point, s) == _exact_numerators(forms, point, s)
        assert "evaluate" in vars(exact)

    @pytest.mark.parametrize("label", [*BUNDLED_NAMES, "cp_f_hat"])
    def test_generated_exact_code_agrees_on_every_function(self, label):
        """Each bundled pair with its partials, and f_hat through both of its
        levels, at a float, a Fraction and an integer point: later calls,
        which run generated code, return what the first, looped, gradient
        call returned.  f_hat's value-only evaluators already looped in
        its zero test at construction."""
        make = cp_f_hat if label == "cp_f_hat" else lambda: load_bundled(label).rational()
        rng = random.Random(label)
        n = make().n_vars
        points = [
            tuple(rng.uniform(-2.0, 4.0) for _ in range(n)),
            tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)),
            tuple(rng.randint(-5, 5) for _ in range(n)),
        ]
        for x in points:
            f = make()
            value, grad = f.eval_exact_and_grad(x)  # looped
            for _ in range(2):  # generated, then reused
                assert f.eval_exact(x) == value
                assert f.eval_exact_and_grad(x) == (value, grad)
            evaluators = []
            for pair, levels in f._exact_forms:
                evaluators += [pair, *(exact for exact, _, _ in levels)]
            assert all("evaluate" in vars(exact) for exact in evaluators)

    def test_stored_coefficients_read_as_before(self):
        half = Fraction(1, 2)
        p = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): half, (0, 0): 3.0})
        assert p.terms == {(1, 0): 2, (0, 1): half, (0, 0): 3}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
        assert p == Polynomial(2, {(1, 0): Fraction(2), (0, 1): half, (0, 0): Fraction(3)})
        assert hash(p) == hash(Polynomial(2, {(0, 0): 3, (0, 1): half, (1, 0): 2}))
        assert repr(p) == "Polynomial(2, 3 + 1/2*x1 + 2*x0)"
        assert type((p * p.scale(2)).terms[(1, 1)]) is int


def _rings(point):
    """(delta, j, x): x at distance delta = 1e-1 ... 1e-6 from the point, in
    eight directions j, none along an axis, where f may vanish."""
    c = [float(v) for v in point]
    for k in range(1, 7):
        delta = 10.0 ** -k
        for j in range(8):
            angle = 2 * math.pi * (j + 0.3) / 8
            yield delta, j, (c[0] + delta * math.cos(angle), c[1] + delta * math.sin(angle))


class TestLocalCharts:
    """Float evaluation keeps its accuracy near every declared singular point."""

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_eval_matches_exact_near_singular_points(self, name):
        problem = load_bundled(name)
        f = problem.rational()
        for point in problem.singular_points:
            with pytest.raises(DomainViolation):
                f.eval([float(v) for v in point])
            for delta, j, x in _rings(point):
                exact = f.eval_exact(x)
                error = abs(Fraction(f.eval(x)) - exact)
                assert error <= Fraction(1e-13) * abs(exact), (point, delta, j)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_gradient_matches_exact_near_singular_points(self, name):
        """The largest entry error of eval_and_grad's gradient, over the
        exact ||grad f||, at the points above and, for multi3, at 50 seeded
        points of its sweep square [-1, 4]^2.  Where the gradient is small
        its entries cancel: over 25 seeds of 50 such points the worst error
        is at most 3.2e-13."""
        problem = load_bundled(name)
        f = problem.rational()
        points = [x for point in problem.singular_points for _, _, x in _rings(point)]
        if name == "multi3":
            rng = random.Random("multi3 gradient")
            points += [(rng.uniform(-1, 4), rng.uniform(-1, 4)) for _ in range(50)]
        for x in points:
            _, gradient = f.eval_and_grad(x)
            _, exact = f.eval_exact_and_grad(x)
            error = max(abs(Fraction(g) - e) for g, e in zip(gradient, exact))
            assert error ** 2 <= Fraction(1e-12) ** 2 * sum(e * e for e in exact), x

    def test_chart_violation_reports_the_point_itself(self):
        f = load_bundled("multi3").rational()
        with pytest.raises(DomainViolation) as err:
            f.eval((3.0, 0.0))
        assert err.value.point == (3.0, 0.0)

    def test_chart_is_the_first_nearest_centre(self):
        """The dispatch loop picks the centre a keyed min() over the float
        coordinates picks: the first of equally near centres, and the origin
        at a NaN coordinate."""
        f = load_bundled("multi3").rational()
        centres = f._centres
        points = [(1.5, 0.0), (0.0, 1.5), (1.5, 1.5), (math.nan, 1.0), (1.0, math.nan)]
        for c in centres:
            points += [c, (c[0] + 1e-300, c[1]), (c[0], c[1] + 1e-300),
                       (Fraction(c[0]) + Fraction(1, 10**300), Fraction(c[1]))]
        rng = random.Random(8)
        points += [(rng.uniform(-1, 4), rng.uniform(-1, 4)) for _ in range(500)]
        for x in points:
            coords = [float(v) for v in x]
            expected = min(range(len(centres)), key=lambda j: math.dist(coords, centres[j]))
            assert f._chart(x) is f._charts[expected], x

    @pytest.mark.parametrize("points, n_centres", [
        ((), 1),
        (((0, 0),), 1),
        (((Fraction(1, 2), -1),), 2),
        (((Fraction(1, 2), -1), (0.5, -1.0)), 2),
        (None, 3),
    ], ids=["no-point", "origin", "off-origin", "declared-twice", "multi3"])
    def test_one_centre_table(self, points, n_centres):
        """The origin is centre 0, then each distinct declared point; chart
        j is about centre j; the pencil slots are the origin and the points
        as given; descend looks for the nearest centre only where there are
        two or more."""
        if points is None:
            problem = load_bundled("multi3")
            f, points = problem.rational(), problem.singular_points
        else:
            x, y = _vars()
            f = RationalFunction(x * y, 1 + x * x + y * y, points)
        assert len(f._centres) == n_centres and f._centres[0] == (0.0, 0.0)
        assert len(f._charts) == len(f._centres)
        for j, centre in enumerate(f._centres):
            chart = f._chart_at(j)
            assert chart.centre == centre
            descend = chart.generate("descend")
            assert ("nearest" in descend.__code__.co_names) == (n_centres > 1)
            assert "dist" not in descend.__code__.co_names
        assert f._pencils.keys() == {(0.0, 0.0), *map(tuple, points)}


def _domain_decision(evaluate, x):
    """None where evaluate(x) returns, else the rejected denominator's hex."""
    try:
        evaluate(x)
    except DomainViolation as err:
        assert err.point == x
        return err.denom_value.hex()
    return None


def _bundled(name):
    return lambda: load_bundled(name).rational()


# (label, function factory, chart centre); multi3 has one chart per centre.
CHARTS = [
    ("fig1", _bundled("fig1"), (0.0, 0.0)),
    ("counterex", _bundled("counterex"), (0.0, 0.0)),
    ("multi3@(0,0)", _bundled("multi3"), (0.0, 0.0)),
    ("multi3@(3,0)", _bundled("multi3"), (3.0, 0.0)),
    ("multi3@(0,3)", _bundled("multi3"), (0.0, 3.0)),
    ("cp_f_hat", cp_f_hat, (0.0,) * 12),
]


# ast.Mult nodes in each chart's generated (evaluate, descend).
MULTS = {
    "fig1": (28, 43),
    "counterex": (14, 29),
    "multi3@(0,0)": (461, 476),
    "multi3@(3,0)": (465, 480),
    "multi3@(0,3)": (465, 480),
    "cp_f_hat": (155, 220),
}


def _points_near(centre, seed):
    """Points at distance 1e-1 ... 1e-6 from centre, a few per distance."""
    rng = random.Random(seed)
    points = []
    for k in range(1, 7):
        for _ in range(4):
            u = [rng.gauss(0.0, 1.0) for _ in centre]
            norm = math.hypot(*u)
            points.append(tuple(c + 10.0 ** -k * v / norm for c, v in zip(centre, u)))
    return points


@functools.cache
def _multi3_charts():
    """multi3's charts, one per centre, shared by the dispatch tests."""
    f = load_bundled("multi3").rational()
    return [f._chart_at(j) for j in range(len(f._centres))]


def _dispatch_agrees(chart, target, step=(0.25, 0.25)):
    """One trial of chart.descend with budget 1: t = x - 1.0*step from x =
    target + step.  It hands off to _nearest(t, chart.centres), or keeps t
    (and stops) where that is the chart's own centre.  Returns t and where
    descend went: the index handed off to, or "stop"."""
    x = tuple(v + g for v, g in zip(target, step))
    t = tuple(a - 1.0 * g for a, g in zip(x, step))  # descend's trial
    rows = [(x, 1.0, 1.0)]
    to, _ = chart.descend(step, 1.0, 1.0, 1, 1, rows, 1e-4, 0.5, 1.0, 0.0, 1)
    want = _nearest(t, chart.centres)
    assert (to == want) if want != chart.index else isinstance(to, str), target
    return t, "stop" if isinstance(to, str) else to


class TestEvaluator:
    """Straight-line code from the second call on has the loop's bits."""

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_first_and_later_calls_agree(self, label, make, centre):
        points = _points_near(centre, label)
        for method in ("eval", "eval_and_grad"):
            f = make()
            first = getattr(f, method)(points[0])  # looped
            for _ in range(2):  # compiled, then reused
                # A call at another point first: eval_and_grad returns its
                # kept result for the point of its last call.
                getattr(f, method)(points[1])
                assert float_hex(getattr(f, method)(points[0])) == float_hex(first)
        chart = f._chart(points[0])
        assert chart.generated
        for x in points:
            assert f._chart(x) is chart
            for grad in (False, True):
                assert float_hex(chart.evaluate(x, grad)) == float_hex(chart.loop(x, grad)), x

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_chart_test_before_dist_keeps_the_nearest_centre(self, index):
        """multi3's descend in the chart about centre index, from one trial
        each: just inside and just outside r, half the least distance to
        another centre shrunk by 2^-20, on the way to each other centre and
        away from them, at each midpoint (equidistant: the first centre),
        past the float range for squares, and at inf and NaN.  descend
        hands off to _nearest's index, or keeps the trial (and stops, with
        budget 1) where that index is its own."""
        chart = _multi3_charts()[index]
        centres = chart.centres
        c = centres[index]
        r = min(math.dist(c, o) for o in centres if o != c) / 2 * (1 - 2.0 ** -20)
        targets = []
        for o in centres:
            if o != c:
                u = [(b - a) / math.dist(c, o) for a, b in zip(c, o)]
                for k in (1 - 1e-9, 1 + 1e-9):
                    targets.append(tuple(a + k * r * v for a, v in zip(c, u)))
                    targets.append(tuple(a - k * r * v for a, v in zip(c, u)))
                targets.append(tuple((a + b) / 2 for a, b in zip(c, o)))
        targets += [(c[0] + 1e200, c[1]), (math.inf, 0.5), (math.nan, 0.5)]
        distances = {True: 0, False: 0}
        for target in targets:
            t, _ = _dispatch_agrees(chart, target)
            if math.isfinite(math.dist(t, c)) and abs(math.dist(t, c) / r - 1) < 1e-6:
                distances[math.dist(t, c) < r] += 1
        # Trials on both sides of r.
        assert distances[True] >= 2 and distances[False] >= 2

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, 1, 2]), st.data())
    def test_chart_test_before_dist_keeps_the_nearest_centre_drawn(self, index, data):
        """As above, from drawn trials: about centre index within 4, near r
        from it, or equidistant from two centres of multi3's (0, 0), (3, 0)
        and (0, 3), on x = 1.5, y = 1.5 or x = y, with coordinates of few
        bits so that the trial keeps them."""
        chart = _multi3_charts()[index]
        c = chart.centre
        r = min(math.dist(c, o) for o in chart.centres if o != c) / 2 * (1 - 2.0 ** -20)
        kind = data.draw(st.sampled_from(["around", "near r", "equidistant"]))
        if kind == "around":
            offset = st.floats(-4.0, 4.0)
            target = tuple(a + data.draw(offset) for a in c)
        elif kind == "near r":
            angle = data.draw(st.floats(0.0, 2 * math.pi))
            radius = r * data.draw(st.floats(1 - 1e-6, 1 + 1e-6))
            target = (c[0] + radius * math.cos(angle), c[1] + radius * math.sin(angle))
        else:
            v = data.draw(st.integers(-4096, 4096)) / 1024
            target = data.draw(st.sampled_from([(1.5, v), (v, 1.5), (v, v)]))
        _dispatch_agrees(chart, target)

    def test_centres_too_close_for_the_chart_test_search_every_trial(self):
        """Centres (0, 0) and (1e-160, 0): r^2 is below the normal range, so
        descend searches the nearest centre with no test first.  From each
        chart, trials at either centre, between them, beside them and at inf
        and NaN hand off exactly where _nearest, which descend calls, points,
        both ways."""
        x, y = _vars()
        f = RationalFunction(x * y, 1 + x * x + y * y, [(1e-160, 0)])
        assert f._centres == ((0.0, 0.0), (1e-160, 0.0))
        targets = [
            (0.0, 0.0), (1e-160, 0.0), (5e-161, 0.0), (4.9e-161, 0.0), (5.1e-161, 0.0),
            (-1e-160, 0.0), (2e-160, 0.0), (1e-160, 3e-161), (5e-161, 1e-170),
            (0.5, 0.0), (math.inf, 0.0), (math.nan, 0.0),
        ]
        # A step that the second coordinate, 0.0, keeps: the trial is not x.
        step = (2.0 ** -560, 2.0 ** -560)
        for index in (0, 1):
            chart = f._chart_at(index)
            ends = {_dispatch_agrees(chart, target, step)[1] for target in targets}
            assert ends == {1 - index, "stop"}
            assert "nearest" in chart.descend.__code__.co_names

    def test_each_function_generated_on_its_own_first_use(self):
        """A chart evaluated twice holds a generated evaluate and no
        descend.  multi3 from a start near (3, 0) hands off to other charts,
        which descend only and hold a generated descend and no evaluate."""
        generated = lambda chart: {"evaluate", "descend"} & set(vars(chart))
        f = _bundled("multi3")()
        for _ in range(2):
            f.eval((0.3, -0.2))
        assert generated(f._chart((0.3, -0.2))) == {"evaluate"}

        f = _bundled("multi3")()
        x0 = (3.577794807801203, 1.2956586595533417)
        optimize(f, x0, DescentConfig(max_iters=300))
        start = f._chart(x0)
        assert generated(start) == {"descend"}  # evaluated once, looped
        handed = [chart for chart in f._charts if chart is not None and chart is not start]
        assert handed and all(generated(chart) == {"descend"} for chart in handed)
        assert not any(chart._used for chart in handed)

    def test_composed_chart_sums_each_jacobian_entry_once(self):
        """(2,2,2) rank 2, through u = tau(x) and w = (G(u), I(u)).  The tau
        level's 48 nonzero du_k/dx_i are 24 distinct products, each
        appearing twice (du0/dx0 = du4/dx1 = x2*x4).  The w level sums 8 + 8
        terms for G and I, p and q 2 + 1 in w, and its 16 partials
        dG/du_k = 2 u_k and dI/du_k = T_k are distinct."""
        f = cp_f_hat()
        x = (0.3,) * 12
        f.eval_and_grad(x)
        chart = f._chart(x)
        chart.evaluate(x, True)  # generated
        assert [len(compiled) for compiled in chart.levels[1]] == [8, 8]
        assert [len(compiled) for compiled in chart.values] == [2, 1]
        assert [sum(len(row) for row in j) for j in chart.jacobians] == [48, 16]
        local_names = chart.evaluate.__code__.co_varnames
        assert sum(name.startswith("du0_") for name in local_names) == 24
        assert sum(name.startswith("du1_") for name in local_names) == 16

    @pytest.mark.parametrize("name", ["evaluate", "descend"])
    @pytest.mark.parametrize("label, make, centre", CHARTS, ids=[c[0] for c in CHARTS])
    def test_composed_chart_sums_in_one_statement_each(
        self, monkeypatch, label, make, centre, name
    ):
        """Each chart's generated evaluate and descend, as generate compiles
        them: each name is assigned once in the function body, so each sum is
        one statement, 0.0 + at most TERMS_PER_STATEMENT terms, and no
        constant partial is added to its name on a line of its own: the sum
        0.0 + c is one literal to the compiler.  Each power, monomial m... and
        Jacobian sum du... is assigned once, on a line before every line that
        reads it, and the count of multiplications is pinned (MULTS)."""
        sources = []

        def capture(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(polyalg, "compile", capture, raising=False)
        make()._chart(centre).generate(name)
        monkeypatch.undo()
        (source,) = sources
        assert re.search(r"^ *(\w+) = \1 \+ [-+.\de]+$", source, re.MULTILINE) is None
        (function,) = ast.parse(source).body
        assigned = [
            statement.targets[0].id for statement in function.body
            if isinstance(statement, ast.Assign) and isinstance(statement.targets[0], ast.Name)
        ]
        assert len(assigned) == len(set(assigned))
        sums = [line for line in source.splitlines() if " = 0.0 + " in line]
        assert sums and all(line.count(" + ") <= TERMS_PER_STATEMENT for line in sums)
        shared = re.compile(r"x\d+_\d+|u\d+_\d+_\d+|m\d+|du\d+_\d+_\d+")
        formed, reads = {}, []
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and shared.fullmatch(node.id):
                if isinstance(node.ctx, ast.Store):
                    assert node.id not in formed, node.id
                    formed[node.id] = node.lineno
                else:
                    reads.append(node)
        assert reads
        for node in reads:
            assert formed[node.id] < node.lineno, node.id
        mults = sum(isinstance(node, ast.Mult) for node in ast.walk(function))
        assert mults == MULTS[label][name == "descend"]

    @pytest.mark.parametrize("norm", [1e-80, 1e60, 1e80])
    def test_gradient_fallback_first_and_later_calls_agree(self, norm):
        """fig1 where q*q is subnormal (1e-80) or infinite (1e60, 1e80)."""
        points = [(norm * math.cos(a), norm * math.sin(a)) for a in (0.3, 2.0, 4.0, 5.5)]
        f = _bundled("fig1")()
        for x in points:
            q = f.denom.eval_float(x)
            assert not sys.float_info.min <= q * q < math.inf
        first = f.eval_and_grad(points[0])  # looped
        for _ in range(2):  # generated, then reused
            f.eval_and_grad(points[1])  # not the kept point
            assert float_hex(f.eval_and_grad(points[0])) == float_hex(first)
        chart = f._chart(points[0])
        assert chart.generated
        for x in points:
            assert float_hex(chart.evaluate(x, True)) == float_hex(chart.loop(x, True)), x

    def test_eval_and_eval_and_grad_share_the_domain_decision(self):
        """Near fig1's floor, ||x|| from 1e-149 to 1e-151, where q ~ ||x||^2.

        A fresh function per method and point makes call 1 the looped one;
        calls 2 and 3 go to its chart, which runs generated code (where call
        1 returned, eval_and_grad would return its kept result).
        """
        rng = random.Random(149)
        points = []
        for k in range(41):
            norm = 10.0 ** -(149 + k / 20)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            points.append((norm * math.cos(angle), norm * math.sin(angle)))
        outcomes = set()
        for x in points:
            calls = {}
            for method in ("eval", "eval_and_grad"):
                f = _bundled("fig1")()
                grad = method == "eval_and_grad"
                in_chart = lambda x: f._chart(x).evaluate(x, grad)
                calls[method] = [
                    _domain_decision(evaluate, x)
                    for evaluate in (getattr(f, method), in_chart, in_chart)
                ]
            assert calls["eval"] == calls["eval_and_grad"], x
            assert len(set(calls["eval"])) == 1, x
            outcomes.update(calls["eval"])
        assert None in outcomes and len(outcomes) > 1  # both sides of the floor

    @pytest.mark.parametrize("method", ["eval", "eval_and_grad"])
    @pytest.mark.parametrize("label, make, centre", CHARTS[:5],
                             ids=[c[0] for c in CHARTS[:5]])
    def test_domain_violation_same_on_every_call(self, label, make, centre, method):
        evaluate = getattr(make(), method)
        raised = []
        for _ in range(3):
            with pytest.raises(DomainViolation) as err:
                evaluate(centre)
            raised.append((err.value.point, err.value.denom_value.hex()))
        assert raised[0] == raised[1] == raised[2]

    def test_evaluators_are_freed_without_the_cycle_collector(self):
        """Freed by reference counting: no weak reference outlives its del,
        and the cycle collector finds nothing left of a function whose
        kernels ran generated code: a chart's evaluate and descend, the
        exact kernels of both _exact_forms tiers, and a pencil's series and
        direction kernels."""
        gc.disable()
        try:
            gc.collect()
            f = _bundled("fig1")()
            pencil = analyze_singularity(f, (0, 0))
            for _ in range(3):
                f.eval((0.3, -0.2))
                f.eval_exact((0.3, -0.2))
                f.eval_exact_and_grad((0.3, -0.2))
                taylor_line(f, (0, 0), (1, -1), 8, pencil)
                trace = optimize(f, (0.3, -0.2), DescentConfig(max_iters=5))
                direction_trail(trace, pencil)
            chart = f._chart((0.3, -0.2))
            kernels = [chart, *(kept[0] for kept in f._exact_forms), pencil._series,
                       pencil._directions]
            assert all(kernel.generated for kernel in kernels)
            assert "descend" in vars(chart)
            refs = [weakref.ref(kernel) for kernel in kernels]
            del chart, kernels, pencil
            first = _bundled("fig1")()
            first.eval((0.3, -0.2))  # looped only
            refs.append(weakref.ref(first._chart((0.3, -0.2))))
            gc.collect()
            del f
            assert [ref() for ref in refs[:-1]] == [None] * 5
            assert gc.collect() == 0
            del first
            assert [ref() for ref in refs] == [None] * 6
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ten_thousand_terms_compile_and_match(self):
        """One sum longer than compile() can nest: the chunking guards it."""
        rng = random.Random(7)
        terms = {(i, j): Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
                 for i in range(141) for j in range(141 - i)}
        assert len(terms) >= 10_000
        x, y = _vars()
        f = RationalFunction(Polynomial(2, terms), 1 + x * x + y * y)
        self._assert_generated_matches_loop(f, rng)

    def test_twelve_variables_compile_and_match(self):
        rng = random.Random(12)
        terms = {tuple(rng.randint(0, 3) for _ in range(12)): rng.randint(-9, 9) or 1
                 for _ in range(2000)}
        xs = [Polynomial.variable(12, i) for i in range(12)]
        f = RationalFunction(Polynomial(12, terms), 1 + sum(v * v for v in xs))
        self._assert_generated_matches_loop(f, rng)

    @staticmethod
    def _assert_generated_matches_loop(f, rng):
        points = [[rng.uniform(-1.1, 1.1) for _ in range(f.n_vars)] for _ in range(5)]
        chart = f._chart(points[0])
        assert float_hex(f.eval_and_grad(points[0])) == float_hex(chart.evaluate(points[0], True))
        assert chart.generated
        for x in points:
            for grad in (False, True):
                assert float_hex(chart.evaluate(x, grad)) == float_hex(chart.loop(x, grad))


def _coefficient_first(terms, x):
    """The float sum of a term map at x, left to right from 0.0 in dict
    order, each term (c*a)*b*... from its coefficient over the powers a, b,
    ... of x in variable order, each power formed left to right from 1.0."""
    total = 0.0
    for exps, coeff in terms.items():
        term = float(coeff)
        for v, e in zip(x, exps):
            if e:
                power = 1.0
                for _ in range(e):
                    power *= v
                term *= power
        total += term
    return total


def _partial_terms(terms, i):
    """The term map of the partial derivative in x_i, in the order of the
    terms it comes from."""
    return {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coeff * exps[i]
            for exps, coeff in terms.items() if exps[i]}


@st.composite
def power_of_two_polynomials(draw, n_vars, min_terms=0):
    """Coefficients +-2^j, |j| <= 30, and exponents 0, 1, 2 or 4, so that
    every partial derivative's coefficient is +-2^j too."""
    exponents = st.tuples(*[st.sampled_from((0, 1, 2, 4))] * n_vars)
    coefficients = st.builds(lambda sign, j: sign * Fraction(2) ** j,
                             st.sampled_from((1, -1)), st.integers(-30, 30))
    return Polynomial(n_vars, draw(st.dictionaries(
        exponents, coefficients, min_size=min_terms, max_size=6)))


class TestPowerOfTwoCoefficients:
    """A term is its coefficient times its monomial, c*(a*b*...).  Where c
    is +-2^j that has the bits of (c*a)*b*..., short of under- and
    overflow, so p, q and their partials, and so f and its gradient, are
    those of the coefficient-first products."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        power_of_two_polynomials(n), power_of_two_polynomials(n, min_terms=1),
        st.lists(st.floats(-4, 4).filter(lambda v: v == 0 or abs(v) >= 2 ** -8),
                 min_size=n, max_size=n))))
    def test_values_and_gradients_have_the_coefficient_first_bits(self, case):
        p, q, x = case
        n = len(x)
        assert p.eval_float(x).hex() == _coefficient_first(p.terms, x).hex()
        value_p, value_q = _coefficient_first(p.terms, x), _coefficient_first(q.terms, x)
        # q away from 0, and q^2 normal: the quotient rule's first form.
        assume(2 ** -10 <= abs(value_q))
        f = value_p / value_q
        q_sq = value_q * value_q
        expected = f, [
            (value_q * _coefficient_first(_partial_terms(p.terms, i), x)
             - value_p * _coefficient_first(_partial_terms(q.terms, i), x)) / q_sq
            for i in range(n)
        ]
        chart = polyalg._Evaluator(((0.0,) * n,), 0, p.terms, q.terms)
        evaluate = chart.generate("evaluate")
        for run in (chart.loop, evaluate):
            assert float_hex(run(x, False)) == float_hex(f)
            assert float_hex(run(x, True)) == float_hex(expected)


def _outcome(evaluate, x):
    """evaluate(x) as float.hex strings, or the DomainViolation it raised."""
    try:
        return float_hex(evaluate(x))
    except DomainViolation as err:
        return "DomainViolation", err.point, err.denom_value.hex()


def _search_args(a):
    """(x, fx, grad, gnorm, alpha) of a search whose first trial is a, bit
    for bit.

    alpha = 1 and, per coordinate, x = 2a and grad = a (2a - a is a exactly),
    x = grad = 1.0 where a is 0.0 and x = -0.0, grad = 0.0 where a is -0.0;
    fx = inf accepts the first finite trial that passes the floor test.
    """
    x, grad = [], []
    for v in map(float, a):
        if v:
            x_i, g_i = 2.0 * v, v
        elif math.copysign(1.0, v) > 0:
            x_i, g_i = 1.0, 1.0
        else:
            x_i, g_i = -0.0, 0.0
        x.append(x_i)
        grad.append(g_i)
    return tuple(x), math.inf, grad, 1.0, 1.0


def _search_to(f, a, max_trials=MAX_BACKTRACKS):
    """One search through f.descend whose first trial is a (_search_args)."""
    return search(f, *_search_args(a), max_trials)


class TestValueReuse:
    """A search accepts a, then eval_and_grad(b): the result has the bits of
    a fresh function's eval_and_grad(b), whatever a was."""

    @staticmethod
    def _assert_fresh_bits(f, make, b):
        assert _outcome(f.eval_and_grad, b) == _outcome(make().eval_and_grad, b), b

    @staticmethod
    def _accept(f, make, a):
        """Search to a; the accepted trial is a, with the bits of
        eval_and_grad(a)."""
        trial, f_trial, _, grad = _search_to(f, a)
        assert float_hex(list(trial)) == float_hex([float(v) for v in a])
        assert float_hex([f_trial, grad]) == float_hex(make().eval_and_grad(a))

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_same_coordinates(self, label, make, centre):
        """b is a itself, an equal new tuple, and an equal list, after a
        value-only eval in between."""
        points = _points_near(centre, label)
        f = make()
        for a, other in zip(points[1:7], points[7:]):
            self._accept(f, make, a)
            assert _outcome(f.eval, other) == _outcome(make().eval, other)
            for b in (a, tuple(list(a)), list(a)):
                self._assert_fresh_bits(f, make, b)

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_list_changed_in_place(self, label, make, centre):
        points = _points_near(centre, label)
        f = make()
        x = list(points[1])
        self._accept(f, make, x)
        x[-1] = points[2][-1]
        self._assert_fresh_bits(f, make, x)
        self._accept(f, make, x)
        x[:] = points[3]
        self._assert_fresh_bits(f, make, x)

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_signed_zero_coordinates(self, label, make, centre):
        """A search to a, then b, with -0.0 and 0.0 swapped at one
        coordinate."""
        point = list(_points_near(centre, label)[0])
        zero_at = centre.index(0.0)
        for a_zero, b_zero in ((-0.0, 0.0), (0.0, -0.0)):
            a, b = list(point), list(point)
            a[zero_at], b[zero_at] = a_zero, b_zero
            f = make()
            self._accept(f, make, tuple(a))
            self._assert_fresh_bits(f, make, tuple(b))

    def test_another_chart_of_multi3(self):
        make = _bundled("multi3")
        near = [_points_near(c, "multi3")[1] for c in ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))]
        f = make()
        for a in near:
            for b in near:
                self._accept(f, make, a)
                self._assert_fresh_bits(f, make, b)

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_domain_violation_keeps_no_entry(self, label, make, centre):
        """Each chart's centre is a point where its denominator vanishes: a
        search whose one trial is the centre backtracks at the floor test,
        and eval raises DomainViolation there."""
        points = _points_near(centre, label)
        f = make()
        self._accept(f, make, points[1])
        assert _search_to(f, centre, max_trials=1) is None
        with pytest.raises(DomainViolation):
            f.eval(centre)
        self._assert_fresh_bits(f, make, centre)
        self._assert_fresh_bits(f, make, points[1])


# Dyadic rationals: exact as floats, so a quotient built to vanish at one
# has q = 0.0 there in the chart about it.
dyadics = st.builds(Fraction, st.integers(-16, 16), st.sampled_from([1, 2, 4, 8]))


@st.composite
def quotients(draw):
    """(f, zero): a random quotient in 1-3 variables whose denominator is 0
    at the point zero.

    Declared centres: p/q with q = r * sum_i (x_i - zero_i)^2, zero declared
    first, up to two random rational centres after it and, in 2-3
    variables, one centre with a zero and a non-zero coordinate, as multi3's
    (3, 0), whose charts' generated code subtracts the non-zero ones only.
    Composed:
    composed(p, q, levels), a chain of one or two levels
    of 1-3 polynomials each that vanish at the origin, zero, and q = r *
    sum_k y_k^2 in the last level's variables y.
    """
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        zero = tuple(draw(dyadics) for _ in range(n))
        s = sum((v - z) ** 2 for v, z in zip(_vars(n), zero))
        r = 1 + draw(polynomials(n, max_degree=2, max_terms=3))
        assume(not r.is_zero())
        centres = draw(st.lists(st.tuples(*[rationals] * n), max_size=2))
        if n > 1:
            mixed = [draw(rationals) for _ in range(n)]
            i, j = draw(st.permutations(range(n)))[:2]
            mixed[i], mixed[j] = 0, draw(rationals.filter(bool))
            centres.append(tuple(mixed))
        return RationalFunction(draw(polynomials(n)), r * s, [zero] + centres), zero
    levels = []
    m = n
    for _ in range(draw(st.integers(1, 2))):
        level = []
        for _ in range(draw(st.integers(1, 3))):
            u = draw(polynomials(m, max_degree=2, max_terms=3))
            level.append(u - u.terms.get((0,) * m, 0))
        levels.append(level)
        m = len(level)
    r = 1 + draw(polynomials(m, max_degree=2, max_terms=3))
    q = r * sum(y * y for y in _vars(m))
    zero = (0,) * n
    try:
        f = RationalFunction.composed(draw(polynomials(m)), q, levels)
    except ValueError:  # q(u(x)) is identically zero
        assume(False)
    return f, zero


class TestGeneratedCode:
    """Over random quotients, generated evaluate and descend return the bits
    of loop and of the Python search and step loops over it: values,
    DomainViolations, trials, steps and gradients, and whole runs."""

    @settings(max_examples=80, deadline=None)
    @given(quotients(), st.data())
    def test_generated_code_returns_the_loops_bits(self, case, data):
        f, zero = case
        zero_point = tuple(map(float, zero))
        with pytest.raises(DomainViolation):
            f._chart(zero).loop(zero, False)
        # The first search's first trial is zero: a floor rejection.  Each
        # search from zero to a declared centre's float is handed off to
        # that centre's chart where it is another.
        searches = [_search_args(zero)]
        norm = lambda grad: math.sqrt(math.fsum(g * g for g in grad))
        for c in f._centres[1:]:
            grad = [a - b for a, b in zip(zero_point, c)]
            searches.append((zero_point, math.inf, grad, norm(grad), 1.0))
        # Sixteenths in [-4, 4], and -0.0 about one draw in nine.
        steps = st.integers(-64, 80).map(lambda k: k / 16 if k <= 64 else -0.0)
        for _ in range(4):
            x = tuple(data.draw(steps) for _ in range(f.n_vars))
            grad = [data.draw(steps) for _ in range(f.n_vars)]
            fx = math.inf
            if data.draw(st.booleans()):
                try:
                    fx, grad = f._chart(x).loop(x, True)
                except DomainViolation:
                    pass
            alpha = 2.0 ** data.draw(st.integers(-4, 6))
            searches.append((x, fx, grad, norm(grad), alpha))
        reference = looped(f)
        points = [zero]
        for args in searches:
            expected = reference_search(reference, *args)
            assert float_hex(search(f, *args)) == float_hex(expected), args
            x = args[0]
            points += [x] if expected is None else [x, expected[0]]
        for x in points:
            chart = f._chart(x)
            for grad in (False, True):
                for _ in range(2):  # generated by the second call at the latest
                    outcome = _outcome(functools.partial(chart.evaluate, grad=grad), x)
                assert chart.generated
                expected = _outcome(functools.partial(chart.loop, grad=grad), x)
                assert outcome == expected, x

    @settings(max_examples=40, deadline=None)
    @given(quotients(), st.data())
    def test_descend_returns_the_step_loops_bits(self, case, data):
        """Whole runs from drawn starts, with drawn caps and initial steps,
        give the same outcome three ways (_assert_same_runs)."""
        f, _ = case
        sixteenths = st.integers(-64, 64).map(lambda k: k / 16)
        x0 = tuple(data.draw(sixteenths) for _ in range(f.n_vars))
        cfg = DescentConfig(
            max_iters=data.draw(st.integers(1, 40)),
            initial_step=2.0 ** data.draw(st.integers(-3, 3)),
        )
        self._assert_same_runs(f, x0, cfg)

    @pytest.mark.parametrize("case", ["centred", "composed"])
    def test_a_run_that_retries(self, case):
        """Two quotients() cases whose run retries one search from
        initial_step, so that RationalFunction.descend's retry branch runs
        on every test run: x^3 / (-3 (x + 1/4)^2) with the centre -1/4, and
        1 / (y0^2 + y1^2) at y = (0, x - x^2)."""
        x = Polynomial.variable(1, 0)
        if case == "centred":
            f = RationalFunction(x ** 3, -3 * (x + Fraction(1, 4)) ** 2,
                                 [(Fraction(-1, 4),)])
            x0 = (-0.6875,)
        else:
            y0, y1 = _vars(2)
            f = RationalFunction.composed(
                Polynomial.constant(2, 1), y0 * y0 + y1 * y1,
                [[Polynomial.zero(1), x - x * x]],
            )
            x0 = (0.0625,)
        assert self._assert_same_runs(f, x0, DescentConfig(max_iters=8)) == 1

    def test_a_chart_at_max_exponent(self):
        """x^1000 / (1 + x^1000), MAX_EXPONENT's degree: generated evaluate
        forms the thousand powers in a chain and returns the loop's bits,
        and whole runs the step loops' bits."""
        x = Polynomial.variable(1, 0)
        f = RationalFunction(x ** MAX_EXPONENT, 1 + x ** MAX_EXPONENT)
        chart = f._chart((0.0,))
        for _ in range(2):
            chart.evaluate((0.5,), True)
        assert chart.generated
        for point in [(0.5,), (0.999,), (1.0,), (-1.0,), (1.001,), (2.0,)]:
            for grad in (False, True):
                expected = chart.loop(point, grad)
                assert float_hex(chart.evaluate(point, grad)) == float_hex(expected), point
        for x0 in [(1.0,), (-1.002,), (0.99,)]:
            self._assert_same_runs(f, x0, DescentConfig(max_iters=30))

    @staticmethod
    def _assert_same_runs(f, x0, cfg):
        """optimize through the generated descend, and the Python step loop
        over line_search, over the charts' term loops and over generated
        code, give the same trace, float.hex of every entry, or raise the
        same error.  Returns the step loop's retries: each failed search but
        the last is searched again from initial_step."""
        searches = []

        def ladder(*args):
            accepted = line_search(*args)
            searches.append(accepted is not None)
            return accepted

        def outcome(run, g, *args):
            try:
                trace = run(g, x0, cfg, *args)
            except (ValueError, OverflowError) as err:
                return type(err).__name__
            return float_hex([trace.iterates, trace.f_values, trace.grad_norms,
                         trace.step_norms, trace.alphas]), trace.stop_reason

        generated = outcome(optimize, f)
        assert outcome(step_loop, looped(f)) == generated
        assert outcome(step_loop, f, ladder) == generated
        return searches[:-1].count(False)


def _checked_call(f, make, x, kept):
    """f.eval_and_grad(x), or the DomainViolation it raised, with the bits
    of a fresh function's first call, make().eval_and_grad(x).  It chooses
    no chart where tuple(x) equals kept[0], the point of the last call that
    returned, and one otherwise; a call that returns sets kept[0]."""
    hit = tuple(x) == kept[0]
    with mock.patch.object(
        RationalFunction, "_chart", autospec=True, side_effect=RationalFunction._chart
    ) as chart:
        try:
            result = f.eval_and_grad(x)
        except DomainViolation as err:
            result = err
    assert chart.call_count == (0 if hit else 1), x
    fresh = _outcome(make().eval_and_grad, x)
    if isinstance(result, DomainViolation):
        assert ("DomainViolation", result.point, result.denom_value.hex()) == fresh, x
    else:
        assert float_hex(result) == fresh, x
        kept[0] = tuple(x)
    return result


def _assert_kept_result(f, make, a, other, zero_at, raising):
    """A scripted sequence of eval_and_grad calls on f, each one checked
    by _checked_call: a point a, where f returns, and equal copies of it, a
    list changed in place, -0.0 for 0.0 at coordinate zero_at and back,
    another point in between, a point that raises DomainViolation, a NaN
    coordinate, and gradient lists that the caller changes."""
    kept = [None]
    call = functools.partial(_checked_call, f, make, kept=kept)
    _, grad = call(a)
    grad[:] = [math.nan] * len(grad) + [1.0]  # the list of a call that evaluated
    for b in (a, tuple(list(a)), list(a)):
        call(b)[1].clear()  # and of calls that did not
    x = list(a)
    x[-1] = other[-1]
    call(x)
    x[:] = a
    call(x)
    signed = list(a)
    for zero in (0.0, -0.0, 0.0):
        signed[zero_at] = zero
        call(tuple(signed))
    for b in (other, a, a):
        call(b)
    for _ in range(3):
        assert isinstance(call(raising), DomainViolation)
    call(a)
    nan = [math.nan, *a[1:]]
    for b in (nan, tuple(nan), [float("nan"), *a[1:]]):
        call(b)


class TestKeptResult:
    """eval_and_grad keeps its last result: whatever calls came before, a
    call returns the bits of a fresh function's first call, and evaluates
    only where its point differs from that of the last call that returned."""

    @pytest.mark.parametrize("label, make, centre", CHARTS,
                             ids=[c[0] for c in CHARTS])
    def test_bundled_charts(self, label, make, centre):
        """Points near the chart's centre, whose denominator vanishes."""
        points = _points_near(centre, label)
        _assert_kept_result(make(), make, points[1], points[2], centre.index(0.0), centre)

    @settings(max_examples=40, deadline=None)
    @given(quotients(), st.data())
    def test_quotients(self, case, data):
        """Drawn points in sixteenths; the fresh function is a looped copy,
        whose every call runs the term loop as a first call does."""
        f, zero = case
        sixteenths = st.integers(-64, 64).map(lambda k: k / 16)
        a, other = (tuple(data.draw(sixteenths) for _ in range(f.n_vars)) for _ in range(2))
        zero_at = data.draw(st.integers(0, f.n_vars - 1))
        assume(_outcome(looped(f).eval_and_grad, a)[0] != "DomainViolation")
        _assert_kept_result(f, lambda: looped(f), a, other, zero_at, zero)


class TestRationalFunction:
    @pytest.mark.parametrize("make", [_bundled("fig1"), _bundled("multi3"), cp_f_hat],
                             ids=["fig1", "multi3", "cp-f-hat"])
    def test_wrong_length_point_raises_dimension_error(self, make):
        """One chart (fig1), three centres (multi3) and two inner levels
        (f_hat), each at a point one coordinate short and one too long."""
        f = make()
        for n in (f.n_vars - 1, f.n_vars + 1):
            x = (0.25,) * n
            for call in (f.eval, f.eval_and_grad, f.eval_exact,
                         functools.partial(optimize, f, cfg=DescentConfig(max_iters=5))):
                with pytest.raises(DimensionError):
                    call(x)

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

    def test_exact_domain_violation_reports_string_point(self):
        x, y = _vars()
        f = RationalFunction(x, x * x + y * y)
        for evaluate in (f.eval_exact, f.eval_exact_and_grad):
            with pytest.raises(DomainViolation) as err:
                evaluate(("0/1", 0))
            assert err.value.point == (0.0, 0.0)

    def test_cross_multiplied_equality(self):
        x = Polynomial.variable(1, 0)
        a = RationalFunction(x, x * x)  # x / x^2
        b = RationalFunction(Polynomial.constant(1, 1), x)  # 1 / x
        assert a == b

    def test_equality_across_variable_counts_is_false(self):
        """As for Polynomial: functions in different variable counts differ."""
        x = Polynomial.variable(1, 0)
        big_x = Polynomial.variable(2, 0)
        f = RationalFunction(x, x * x + 1)
        g = RationalFunction(big_x, big_x * big_x + 1)
        assert not f == g and not g == f
        assert f != g and g != f

    def test_common_factor_equality_compares_the_pairs(self):
        """A common factor cancels in the cross-multiplied comparison."""
        x, y = _vars()
        r2 = x * x + y * y
        f = RationalFunction(x * y, r2)
        assert f == RationalFunction(x * y * r2, r2 * r2)
        assert not f == RationalFunction(x, r2)

    def test_composed_accepts_a_q_zero_at_the_test_point(self, monkeypatch):
        """q = u0 - 2 through the level [x] is 0 at the integer point 2 that
        decides most cases, and only its composition x - 2 shows that it is
        not identically zero.  That composition is the one denom reads."""
        x = Polynomial.variable(1, 0)
        u0 = Polynomial.variable(1, 0)
        q = u0 - 2
        assert q.eval_exact([2]) == 0
        composes = []
        compose = Polynomial.compose

        def counted(self, inner):
            composes.append(self)
            return compose(self, inner)

        monkeypatch.setattr(Polynomial, "compose", counted)
        f = RationalFunction.composed(Polynomial.constant(1, 1), q, [[x]])
        assert len(composes) == 1
        assert f.denom == x - 2
        assert len(composes) == 1
        monkeypatch.undo()
        assert f.eval_exact((3,)) == 1
        assert f.eval_exact_and_grad((Fraction(5, 2),)) == (2, [-4])
        assert f.eval((3.0,)) == 1.0
        assert f.eval_and_grad((2.5,)) == (2.0, [-4.0])
        with pytest.raises(DomainViolation):
            f.eval((2.0,))

    def test_composed_common_factor_evaluates_through_inner(self):
        """p(u)/q(u) with u = (x^2 - y, x*y^3, 2): powers of both x and u, and
        du_k/dx_i that vanish identically."""
        x, y = _vars()
        inner = [x * x - y, x * y ** 3, Polynomial.constant(2, 2)]
        u0, u1, u2 = _vars(3)
        p, q = u0 ** 3 * u2 - u1, 1 + u0 * u0 + u1 ** 2
        f = RationalFunction.composed(p, q, [inner])
        expanded = RationalFunction(p.compose(inner), q.compose(inner))
        assert (f.numer, f.denom) == (expanded.numer, expanded.denom)
        assert f == expanded
        rng = random.Random(3)
        points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        first = f.eval_and_grad(points[0])  # looped
        f.eval_and_grad(points[1])  # generated: points[0] would be the kept point
        assert float_hex(f.eval_and_grad(points[0])) == float_hex(first)
        chart = f._chart(points[0])
        assert chart.generated
        for pt in points:
            assert f.eval_exact(pt) == expanded.eval_exact(pt)
            for grad in (False, True):
                assert float_hex(chart.evaluate(pt, grad)) == float_hex(chart.loop(pt, grad))
            value, gradient = f.eval_and_grad(pt)
            ref_value, ref_gradient = expanded.eval_and_grad(pt)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
            assert gradient == pytest.approx(ref_gradient, rel=1e-10, abs=1e-10)

    def test_common_factor_forms_built_on_first_read(self, products):
        """Construction, float and exact evaluation multiply nothing; numer
        and denom are built when first read, each composing only its own
        factor, then kept, and == reads them."""
        x, y = _vars()
        inner = [x * x - y, x * y ** 3, Polynomial.constant(2, 2)]
        u0, u1, u2 = _vars(3)
        p, q = u0 ** 3 * u2 - u1, 1 + u0 * u0 + u1 ** 2
        plain_q = x * x + y * y
        products.clear()
        composed = RationalFunction.composed(p, q, [inner])
        plain = RationalFunction(x * y, plain_q)
        products.clear()  # x * y above is the caller's
        for f in (composed, plain):
            for _ in range(3):  # looped, generated, reused
                f.eval((0.7, -1.3))
                f.eval_and_grad((0.7, -1.3))
        assert products == []
        assert composed.eval_exact((3, -2)) == Fraction(1343, 349)
        assert composed.eval_exact(("1/2", 5)) == Fraction(-2953, 41918)
        assert products == []  # each u_k evaluated, nothing composed
        denom = composed.denom
        assert products.count("compose") == 1  # q alone
        numer = composed.numer
        assert composed.numer is numer and composed.denom is denom
        assert composed == RationalFunction(numer, denom)
        assert products.count("compose") == 2  # == reads the kept pair
        assert numer == p.compose(inner) and denom == q.compose(inner)
        assert plain.numer == x * y and plain.denom == plain_q
        assert plain.numer is plain.numer and plain.denom is plain.denom

    @pytest.mark.parametrize("case, error", [
        ("p and q variable counts", DimensionError),
        ("inner count", DimensionError),
        ("first level variable counts", DimensionError),
        ("second level count", DimensionError),
        ("empty level", DimensionError),
        ("zero q", ValueError),
        ("q zero after composition", ValueError),
    ])
    def test_common_factor_rejected_at_construction(self, case, error):
        x, y = _vars()
        u0, u1, u2 = _vars(3)
        p, q = u0 ** 3 * u2 - u1, 1 + u0 * u0 + u1 ** 2
        inner = [x * x - y, x * y ** 3, Polynomial.constant(2, 2)]
        args = {
            "p and q variable counts": (x, u0 + 1, []),
            "inner count": (p, q, [inner[:2]]),
            "first level variable counts":
                (p, q, [inner[:2] + [Polynomial.constant(3, 2)]]),
            "second level count": (p, q, [inner, inner]),
            "empty level": (p, q, [inner, []]),
            "zero q": (x, Polynomial.zero(2), []),
            "q zero after composition": (u0, u0 - u1, [[x, x, y]]),
        }[case]
        with pytest.raises(error):
            RationalFunction.composed(*args)

    def test_plain_pair_in_different_variable_counts_rejected(self):
        x, _ = _vars()
        with pytest.raises(DimensionError):
            RationalFunction(x, Polynomial.variable(3, 0) + 1)

    def test_singular_point_of_the_wrong_length_rejected(self):
        x, y = _vars()
        with pytest.raises(DimensionError, match="singular point"):
            RationalFunction(x * y, x * x + y * y, [(1, 0), (1, 2, 3)])

    @pytest.mark.parametrize("value", [math.nan, -math.inf, Fraction(10**400)],
                             ids=["nan", "inf", "past the float range"])
    def test_singular_point_that_is_no_finite_float_rejected(self, value):
        """Each declared point is a chart centre that generated code writes
        as a float literal: one ValueError names the point and coordinate."""
        x, y = _vars()
        r2 = x * x + y * y
        with pytest.raises(ValueError, match=r"^point \(0\.0, .*\): coordinate 1, "):
            RationalFunction(x * y, r2 * (1 + r2), [(1, 0), (0.0, value)])

    @pytest.mark.parametrize("composed", [False, True], ids=["plain", "composed"])
    def test_function_of_no_variables_rejected(self, composed):
        """x with no coordinate: generated code would have no gradient."""
        with pytest.raises(DimensionError, match="at least one variable"):
            if composed:
                level = [Polynomial.constant(0, 1)]
                RationalFunction.composed(
                    Polynomial.constant(1, 3), Polynomial.constant(1, 2), [level]
                )
            else:
                RationalFunction(Polynomial.constant(0, 3), Polynomial.constant(0, 2))

    @pytest.mark.parametrize("make", [_bundled("multi3"), cp_f_hat],
                             ids=["multi3", "cp_f_hat"])
    def test_exact_forms_built_once(self, make, monkeypatch):
        """The integer forms of p, q, the levels and their partials are built
        on first use and kept: later exact calls build none and give the
        same values."""
        f = make()
        x = (Fraction(5, 2), Fraction(-1, 3)) + (Fraction(3, 4),) * (f.n_vars - 2)
        first = f.eval_exact_and_grad(x)
        built = []
        for name in ("_integer_form", "_partial_form"):
            def counted(*args, _original=getattr(polyalg, name), _name=name):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(polyalg, name, counted)
        assert f.eval_exact_and_grad(x) == first
        assert f.eval_exact(x) == first[0]
        y = (2.5,) * f.n_vars
        assert f.eval_exact_and_grad(y)[0] == f.eval_exact(y)
        assert built == []

    @pytest.mark.parametrize("make, integer_forms, partial_forms", [
        # p and q in 2 variables, no levels: their forms wait for eval_exact.
        (_bundled("multi3"), 2, 4),
        # p and q in w = (G, I), G and I in the 8 entries of tau, and those
        # in 12 parameters: the zero test at construction built all 12
        # integer forms, and 2*2 + 2*8 + 8*12 partials remain.
        (cp_f_hat, 0, 116),
    ], ids=["multi3", "cp_f_hat"])
    def test_partial_forms_wait_for_the_first_gradient(
        self, make, integer_forms, partial_forms, monkeypatch
    ):
        """Construction, its zero test included, and eval_exact build no
        partial form; the first eval_exact_and_grad builds each partial form
        once and no integer form again."""
        built = []
        for name in ("_integer_form", "_partial_form"):
            def counted(*args, _original=getattr(polyalg, name), _name=name):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(polyalg, name, counted)
        f = make()
        assert "_partial_form" not in built
        built.clear()
        x = (Fraction(5, 2), Fraction(-1, 3)) + (Fraction(3, 4),) * (f.n_vars - 2)
        value = f.eval_exact(x)
        assert built == ["_integer_form"] * integer_forms
        built.clear()
        assert f.eval_exact_and_grad(x)[0] == value
        assert built == ["_partial_form"] * partial_forms

    def test_composed_composes_nothing_where_the_test_value_is_nonzero(self, products):
        """Through a two-level chain, q's exact value at (2, 3) is not 0:
        construction composes nothing and keeps no denom."""
        x, y = _vars()
        u0, u1 = _vars()
        levels = [[x * x - y, x * y + 1], [u0 + u1, u0 * u1 - 1]]
        p, q = u0 - u1, 1 + u0 * u0 + u1 * u1
        products.clear()
        f = RationalFunction.composed(p, q, levels)
        assert products == [] and f._numer is None and f._denom is None
        denom = _compose_through(q, levels)
        assert denom.eval_exact((2, 3)) != 0
        assert f == RationalFunction(_compose_through(p, levels), denom)

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
