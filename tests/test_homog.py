"""Normalization bound, degree-0 homogeneity, CP tensor objective."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim.descent import DescentConfig, check_conditions, optimize, trace_from_points
from singulim import homog
from singulim.homog import (
    CPModel,
    HomogenizedObjective,
    build_cp_objective,
    euler_check,
    euler_residual_ok,
    normalization_bound_check,
    normalize,
    normalized_a1_check,
)
from singulim.polyalg import DomainViolation, Polynomial, RationalFunction
from singulim.singan import analyze_singularity, direction_verdict, taylor_line

from descent_helpers import criterion_9_objective, power_iteration_sigma1


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


def _arithmetic_cp_parts(model, target):
    """(p, q) and the two inner levels of f_hat as Polynomial arithmetic forms
    them: the reference for the term maps that build_cp_objective writes."""
    n = model.n_params
    entries = []
    for idx in itertools.product(*(range(d) for d in model.dims)):
        entry = Polynomial.zero(n)
        for l in range(model.rank):
            term = Polynomial.constant(n, 1)
            for mode, coord in enumerate(idx):
                term = term * Polynomial.variable(n, model.var_index(l, mode, coord))
            entry = entry + term
        entries.append(entry)
    t = [Fraction(float(v)) for v in np.asarray(target, dtype=float).flat]
    m = len(entries)
    u = [Polynomial.variable(m, k) for k in range(m)]
    gram_u = sum((u_k * u_k for u_k in u), Polynomial.zero(m))
    inner_u = sum((u_k.scale(t_k) for u_k, t_k in zip(u, t)), Polynomial.zero(m))
    t_sq = sum(t_k * t_k for t_k in t)
    w0, w1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return (w0.scale(t_sq) - w1 * w1, w0), [entries, [gram_u, inner_u]], t_sq


def _term_list(poly):
    """Variable count and (exponents, coefficient, coefficient type) per term,
    in insertion order: equal lists mean equal term maps, bit for bit."""
    return poly.n_vars, [(e, c, type(c)) for e, c in poly.terms.items()]


def _target(model, kind, rng):
    values = {
        "gaussian": lambda: rng.gauss(0.0, 1.0),
        "integers-with-zeros": lambda: float(rng.randint(-2, 2)),
        "halves": lambda: rng.randint(-3, 3) / 2,
        "zeros": lambda: 0.0,
    }[kind]
    target = np.array([values() for _ in range(math.prod(model.dims))])
    if kind == "integers-with-zeros":
        target[rng.randrange(len(target))] = 0.0
    return target.reshape(model.dims)


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

    @pytest.mark.parametrize("v", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0)],
                             ids=["inf", "minus-inf", "nan"])
    def test_non_finite_entry_rejected(self, v):
        """Not returned as (nan, nan): inf / inf is NaN."""
        with pytest.raises(ValueError, match="non-finite"):
            normalize(v)


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

    @pytest.mark.parametrize("u", [(math.nan, 0.0), (0.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_u_rejected(self, u):
        """Not (nan, nan): a NaN norm passed the test |norm - 1| > 1e-12."""
        with pytest.raises(ValueError, match="u must be a unit vector"):
            normalization_bound_check(u, (1.0, 0.0))

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

    @pytest.mark.parametrize("dims, rank", [
        ((2, 2.5), 1), ((2, True), 1), ((2, 2.0), 1), ((2, "2"), 1), ((2, 2), 1.5),
        ((2, 2), True),
    ], ids=["float-dim", "bool-dim", "integral-float-dim", "str-dim", "float-rank",
            "bool-rank"])
    def test_non_integer_dims_and_rank_rejected(self, dims, rank):
        """Not truncated by int(): (2, 2.5) read as (2, 2), True as 1."""
        with pytest.raises(ValueError, match="must be integers"):
            CPModel(dims, rank)

    def test_numpy_integers_read_as_ints(self):
        model = CPModel(np.array([2, 3]), np.int64(2))
        assert model == CPModel((2, 3), 2)
        assert type(model.n_params) is int and model.n_params == 10

    @pytest.mark.parametrize("term, mode, coord", [
        (2, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -1, 0), (0, 1, 3), (0, 0, -1),
    ])
    def test_var_index_out_of_range(self, term, mode, coord):
        model = CPModel((2, 3), 2)
        with pytest.raises(IndexError, match="out of range"):
            model.var_index(term, mode, coord)

    def test_factors_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="has 3 entries, expected 4"):
            CPModel((2, 2), 1).factors([1.0, 2.0, 3.0])


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
            denom = obj.stored_form()[1]
            assert denom.eval_float(x) == pytest.approx(gram ** 2, rel=1e-10)

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
        rng, obj = criterion_9_objective()
        model = obj.model
        for _ in range(20):
            x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
            fx = obj.eval(x)
            for c in (1e-30, 1e30):
                assert abs(obj.eval([c * v for v in x]) - fx) <= 1e-10 * (1 + abs(fx))
        with pytest.raises(DomainViolation):
            obj.eval([0.0] * model.n_params)

    def test_extreme_scales_keep_gradient(self):
        """Degree-0 homogeneity: grad f(c x) = grad f(x) / c, where G^2 under-
        and overflows although G does not."""
        rng, obj = criterion_9_objective()
        model = obj.model
        for _ in range(20):
            x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
            _, grad = obj.eval_and_grad(x)
            scale = 1 + math.hypot(*grad)
            for c in (1e-30, 1e30):
                _, grad_c = obj.eval_and_grad([c * v for v in x])
                for g, g_c in zip(grad, grad_c):
                    assert abs(c * g_c - g) <= 1e-12 * scale

    def test_exact_value_nonnegative_at_rank_one_targets(self):
        """f_hat >= 0 in exact arithmetic (Cauchy-Schwarz) only with the exact
        ||T||^2: at x = (a, b) and T = fl(a b^T), <tau, T>^2 / ||tau||^2 is
        within rounding of ||T||^2, and a rounded ||T||^2 can fall below it."""
        rng = random.Random(5)
        model = CPModel((2, 2), 1)
        for _ in range(40):
            a = [rng.uniform(-2.0, 2.0) for _ in range(2)]
            b = [rng.uniform(-2.0, 2.0) for _ in range(2)]
            target = np.outer(a, b)
            obj = build_cp_objective(model, target)
            assert obj.f_hat.eval_exact(a + b) >= 0
            t_sq = sum(Fraction(v) ** 2 for v in target.flat)
            assert obj.target_norm_sq == float(t_sq)

    @pytest.mark.parametrize("dims, rank", [
        ((2, 2), 1), ((2, 2), 2), ((2, 3), 2), ((2, 2, 2), 2), ((3, 2, 2), 1),
    ])
    @pytest.mark.parametrize("kind", ["gaussian", "integers-with-zeros", "halves", "zeros"])
    def test_term_maps_are_those_of_polynomial_arithmetic(self, dims, rank, kind):
        """p, q and the levels hold the keys, order, values and coefficient
        types that Polynomial arithmetic gives them, so every chart and every
        float bit follows."""
        model = CPModel(dims, rank)
        rng = random.Random(f"{dims}:{rank}:{kind}")
        for _ in range(3):
            target = _target(model, kind, rng)
            obj = build_cp_objective(model, target)
            (p, q), levels, t_sq = _arithmetic_cp_parts(model, target)
            f_hat = obj.f_hat
            assert list(map(_term_list, f_hat._factors)) == [_term_list(p), _term_list(q)]
            assert [list(map(_term_list, level)) for level in f_hat._levels] == [
                list(map(_term_list, level)) for level in levels
            ]
            assert obj.target_norm_sq == float(t_sq)

    @pytest.mark.parametrize("target, message", [
        ([[math.nan, 1.0], [1.0, 1.0]], "target entry [0, 0] is nan, not a finite number"),
        ([[1.0, 1.0], [math.inf, 1.0]], "target entry [1, 0] is inf, not a finite number"),
        ([[1.0, -math.inf], [1.0, 1.0]], "target entry [0, 1] is -inf, not a finite number"),
        ([[1e200, 1.0], [1.0, 1.0]], "target ||T||^2 is beyond the float range"),
        ([[10 ** 400, 1], [1, 1]], "target has an entry beyond the float range"),
    ], ids=["nan", "inf", "minus-inf", "norm-overflow", "wide-int"])
    def test_bad_target_rejected_before_any_polynomial(self, target, message, monkeypatch):
        """One ValueError that names the entry or ||T||^2, where NaN and inf
        entries raised the integer-ratio errors of Fraction and 1e200 the
        OverflowError of float(||T||^2)."""
        def refused(model):
            raise AssertionError("tau's entries built for a bad target")

        monkeypatch.setattr(homog, "_tau_entries", refused)
        with pytest.raises(ValueError) as info:
            build_cp_objective(CPModel((2, 2), 1), target)
        assert str(info.value) == message

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

    def test_evaluation_pair_is_the_reduced_form(self):
        _, obj = _rank1_2x2(self.TARGET)
        inner, gram = _rank1_2x2_polys(self.TARGET)
        t_sq = sum(Fraction(v) ** 2 for row in self.TARGET for v in row)
        assert obj.f_hat.numer == gram.scale(t_sq) - inner * inner
        assert obj.f_hat.denom == gram
        numer, denom = obj.stored_form()
        assert numer == (gram.scale(t_sq) - inner * inner) * gram
        assert denom == gram * gram

    def test_reduced_form_equals_stored_form(self):
        _, obj = _rank1_2x2(self.TARGET)
        inner, gram = _rank1_2x2_polys(self.TARGET)
        t_sq = sum(Fraction(v) ** 2 for row in self.TARGET for v in row)
        assert obj.f_hat == RationalFunction(gram.scale(t_sq) - inner * inner, gram)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_float_matches_exact(self, seed):
        _, obj = _rank1_2x2(self.TARGET)
        numer, denom = obj.stored_form()
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


class TestOnDemandForms:
    """Building and evaluating f_hat composes nothing.  r and G in x are
    composed when first read and then kept; stored_form multiplies them out."""

    def test_build_composes_nothing(self, products):
        model = CPModel((2, 2, 2), 2)
        obj = build_cp_objective(model, [[[1, 2], [0, -1]], [[3, 0], [1, 1]]])
        assert products.count("compose") == 0
        products.clear()
        rng = random.Random(10)
        for _ in range(3):  # looped, generated, reused
            x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
            obj.eval(x)
            obj.eval_and_grad(x)
            euler_check(obj, x)
        assert products == []

    def test_forms_on_first_read(self):
        target = TestExactAgreement.TARGET
        _, obj = _rank1_2x2(target)
        assert obj.f_hat.eval_exact((1, 2, -1, 3)) == Fraction(225, 32)
        inner, gram = _rank1_2x2_polys(target)
        t_sq = sum(Fraction(v) ** 2 for row in target for v in row)
        numer, denom = obj.f_hat.numer, obj.f_hat.denom
        assert numer == gram.scale(t_sq) - inner * inner and denom == gram
        assert obj.f_hat.numer is numer and obj.f_hat.denom is denom
        assert obj.stored_form() == (numer * gram, gram * gram)


class TestPairAnalysis:
    """The pencil of f_hat is that of its pair r/G; the stored form
    (r G)/G^2 has the same safe set and limits at twice the order."""

    MODEL = CPModel((2, 2), 2)
    TARGET = [[1, 2], [3, 4]]
    # Term 2 is (-a) (x) b for term 1's a (x) b, so tau = 0 there.
    CONE = (1, 2, Fraction(1, 2), 3, -1, -2, Fraction(1, 2), 3)
    ORIGIN = (0,) * 8
    DIRECTIONS = [
        (1, 0, 0, 0, -1, 0, 0, 0),  # tau stays 0 along the line: unsafe
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 1, 0),
        (1, -1, 2, 0, 1, 1, -1, 2),
    ]

    @pytest.mark.parametrize("base, pair_order, stored_order", [
        (CONE, 2, 4), (ORIGIN, 4, 8),
    ], ids=["cone", "origin"])
    def test_pair_and_stored_pencils_agree(self, base, pair_order, stored_order):
        obj = build_cp_objective(self.MODEL, self.TARGET)
        f = obj.f_hat
        pair = analyze_singularity(f, base)
        assert f == build_cp_objective(self.MODEL, self.TARGET).f_hat
        stored = analyze_singularity(RationalFunction(*obj.stored_form()), base)
        assert (pair.n_min, stored.n_min) == (pair_order, stored_order)
        safe = []
        for d in self.DIRECTIONS:
            ours, theirs = direction_verdict(pair, d), direction_verdict(stored, d)
            assert ours.in_safe_set == theirs.in_safe_set, d
            assert ours.limit_value == theirs.limit_value, d
            if ours.in_safe_set:
                safe.append(d)
                lines = [taylor_line(f, base, d, n_terms=6, pencil=p)
                         for p in (pair, stored)]
                assert lines[0].coeffs == lines[1].coeffs, d
        assert self.DIRECTIONS[0] not in safe and len(safe) >= 2

    @pytest.mark.parametrize("base", [CONE, ORIGIN], ids=["cone", "origin"])
    def test_common_factor_scales_the_leading_pencil(self, base):
        """A factor h with h(base) != 0 keeps n_min and scales the leading
        pencil polynomial of (p h)/(q h) by h(base)."""
        f = build_cp_objective(self.MODEL, self.TARGET).f_hat
        p, q = f.numer, f.denom
        x0, x5 = Polynomial.variable(8, 0), Polynomial.variable(8, 5)
        h = 1 + x0 * x0 + x5 * x5
        pair = analyze_singularity(RationalFunction(p, q), base)
        stored = analyze_singularity(RationalFunction(p * h, q * h), base)
        assert stored.n_min == pair.n_min
        assert stored.leading == pair.leading.scale(h.eval_exact(base))

    @pytest.mark.parametrize("model, target", [
        (MODEL, TARGET),
        (MODEL, [[1, 2], [3, 5]]),
        (CPModel((2, 2, 2), 2), [[[1, 2], [0, -1]], [[3, 0], [1, 1]]]),
    ], ids=["2x2", "2x2-apart", "2x2x2"])
    def test_stored_form_is_the_same_function(self, model, target):
        obj = build_cp_objective(model, target)
        assert RationalFunction(*obj.stored_form()) == obj.f_hat

    def test_equality_tells_targets_apart(self):
        f = build_cp_objective(self.MODEL, self.TARGET).f_hat
        g = build_cp_objective(self.MODEL, [[1, 2], [3, 5]]).f_hat
        assert not f == g


class TestNearCone:
    def test_float_value_keeps_relative_accuracy(self):
        """Points whose two rank-1 terms cancel to about 1e-5, as CP iterates
        approaching the singular cone tau = 0 do: a' = -a, b' = b, c' = c up
        to 1e-5.  Both the looped first call and the generated code."""
        rng = random.Random(2008)
        model = CPModel((2, 2, 2), 2)
        target = [[[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)]
                  for _ in range(2)]
        obj = build_cp_objective(model, target)
        for _ in range(50):
            first = [rng.gauss(0.0, 1.0) for _ in range(6)]
            second = [v + 1e-5 * rng.gauss(0.0, 1.0) for v in first]
            second[0], second[1] = -second[0], -second[1]
            x = first + second
            assert np.abs(model.tau(x)).max() < 1e-3
            exact = obj.f_hat.eval_exact(x)
            for value in (obj.eval(x), obj.eval(x), obj.eval_and_grad(x)[0]):
                assert abs(Fraction(value) - exact) <= Fraction(1e-9) * abs(exact)


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
            sigma1 = power_iteration_sigma1(target)
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

    def test_objective_not_of_degree_zero_rejected(self):
        """x0^2 + x1^2 + x2^2 + x3^2 in place of f_hat: its radial derivative
        2 f(x) is not zero at the trace's endpoints."""
        model, obj = _rank1_2x2([[1.0, 0.0], [0.0, 1.0]])
        x = [Polynomial.variable(4, i) for i in range(4)]
        square = RationalFunction(sum((v * v for v in x), Polynomial.zero(4)),
                                  Polynomial.constant(4, 1))
        wrong = HomogenizedObjective(model, square, obj.target_norm_sq)
        trace = trace_from_points(square, [(1.0, 0.5, 0.6, -0.4), (0.5, 0.25, 0.3, -0.2)])
        with pytest.raises(ValueError, match="not degree-0 homogeneous"):
            normalized_a1_check(trace, wrong)

    def test_trace_with_zero_vector_rejected(self):
        t_points = [(1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
        _, obj = _rank1_2x2([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            # The zero vector is outside the objective's domain already.
            normalized_a1_check(trace_from_points(obj.f_hat, t_points), obj)
