"""Line-pencil analysis, Taylor series along directions, radius bounds."""

import math
import random
from fractions import Fraction

import pytest

from singulim.descent import DescentConfig, optimize
from singulim.limits import direction_trail, trail_certifies_safe_approach
from singulim.polyalg import DimensionError, Polynomial, RationalFunction, _fsum
from singulim import singan
from singulim.problems import load_bundled
from singulim.singan import (
    UnboundedFunctionError,
    UnsafeDirectionError,
    analyze_singularity,
    companion_radius_bound,
    direction_verdict,
    extend_by_recurrence,
    recurrence_weights,
    series_divide,
    series_eval,
    taylor_line,
)

from descent_helpers import float_hex, pinch


def _univariate(numer_coeffs, denom_coeffs):
    t = Polynomial.variable(1, 0)
    build = lambda cs: sum(
        (Polynomial.constant(1, c) * t ** k for k, c in enumerate(cs)),
        Polynomial.zero(1),
    )
    return RationalFunction(build(numer_coeffs), build(denom_coeffs))


def _series_divide_loop(numer, denom, n_terms):
    """series_divide as one loop over every term, the reference for its
    generated loops."""
    g0, rest = denom[0], denom[1:]
    coeffs = []
    for n in range(n_terms):
        s = numer[n] if n < len(numer) else 0
        for g, c in zip(rest, reversed(coeffs)):
            s -= g * c
        coeffs.append(s / g0)
    return coeffs


class TestAnalyzeSingularity:
    def test_pinch_point_pencil(self):
        pencil = analyze_singularity(pinch(), (0, 0))
        assert pencil.n_min == 2
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        assert pencil.leading == x * x + y * y

    def test_regular_point_has_n_min_zero(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(Polynomial.constant(2, 1), 1 + x * x + y * y)
        pencil = analyze_singularity(f, (0, 0))
        assert pencil.n_min == 0
        verdict = direction_verdict(pencil, (3, -7))
        assert verdict.in_safe_set

    def test_matched_vanishing_order_is_bounded(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(x * x, x * x + y * y)
        pencil = analyze_singularity(f, (0, 0))
        assert pencil.n_min == 2
        assert direction_verdict(pencil, (1, 1)).limit_value == pytest.approx(0.5)

    def test_unbounded_function_reported(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(x, x * x + y * y)  # numerator order 1 < 2
        with pytest.raises(UnboundedFunctionError) as err:
            analyze_singularity(f, (0, 0))
        assert err.value.numer_order == 1
        assert err.value.n_min == 2

    @pytest.mark.parametrize("base", [(0, 0), (1, 2)])
    def test_zero_numerator_is_bounded(self, base):
        """f = 0 is bounded wherever q is not identically zero: its pencil
        has zero numerator coefficients as far as the denominator's, so
        every limit and every series coefficient is 0."""
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(Polynomial.zero(2), x * x + y * y)
        pencil = analyze_singularity(f, base)
        assert pencil.n_min == (2 if base == (0, 0) else 0)
        assert len(pencil.numer_coeffs) == len(pencil.denom_coeffs)
        assert all(poly.is_zero() for poly in pencil.numer_coeffs)
        for d in [(1, 0), (3, -7), (0.6, 0.8)]:
            verdict = direction_verdict(pencil, d)
            assert verdict.in_safe_set and verdict.limit_value == 0.0
            line = taylor_line(f, base, d, n_terms=6, pencil=pencil)
            assert line.coeffs == (0.0,) * 6

    def test_point_of_the_wrong_length_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            analyze_singularity(pinch(), (0, 0, 0))


class TestDirectionVerdict:
    def test_directional_limits_of_pinch(self):
        pencil = analyze_singularity(pinch(), (0, 0))
        assert direction_verdict(pencil, (1, -1)).limit_value == pytest.approx(-0.5)
        assert direction_verdict(pencil, (1, 0)).limit_value == pytest.approx(0.0)

    def test_directional_discontinuity_witnessed(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(x * x, x * x + y * y)
        pencil = analyze_singularity(f, (0, 0))
        assert direction_verdict(pencil, (0, 1)).limit_value == pytest.approx(0.0)
        assert direction_verdict(pencil, (1, 0)).limit_value == pytest.approx(1.0)

    def test_limits_match_numeric_limits(self):
        f = pinch()
        pencil = analyze_singularity(f, (0, 0))
        rng = random.Random(11)
        for _ in range(10):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            d = (math.cos(phi), math.sin(phi))
            verdict = direction_verdict(pencil, d)
            numeric = f.eval((1e-7 * d[0], 1e-7 * d[1]))
            assert verdict.limit_value == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("name, centre", [
        ("fig1", (0, 0)), ("multi3", (3, 0)), ("counterex", (0, 0)),
    ])
    def test_values_are_the_exact_values_at_the_unit_direction(self, name, centre):
        """pencil_value and limit_value are f_{n_min} and the limit exactly
        at d/||d||_inf, each rounded once."""
        pencil = analyze_singularity(load_bundled(name).rational(), centre)
        lead = pencil.leading
        numer = pencil.numer_coeffs[pencil.n_min]
        directions = [(1, 0), (0, 1), (1, -1), (Fraction(1, 3), 7), (1e200, -3.5),
                      (5e-324, 1.0)] + _float_units(50, 5)
        for d in directions:
            exact = [Fraction(v) for v in d]
            unit = [v / max(map(abs, exact)) for v in exact]
            value = lead.eval_exact(unit)
            verdict = direction_verdict(pencil, d)
            assert verdict.in_safe_set == (value != 0)
            assert verdict.pencil_value.hex() == float(value).hex(), d
            expected = float(numer.eval_exact(unit) / value) if value else None
            assert verdict.limit_value == expected, d
            if value:
                assert verdict.limit_value.hex() == expected.hex()

    def test_zero_direction_rejected(self):
        pencil = analyze_singularity(pinch(), (0, 0))
        with pytest.raises(ValueError):
            direction_verdict(pencil, (0, 0))

    def test_safe_set_scale_invariance(self):
        """Leading pencil value is homogeneous: f(t*d) = t^deg * f(d)."""
        pencil = analyze_singularity(pinch(), (0, 0))
        leading = pencil.leading
        deg = leading.degree()
        rng = random.Random(5)
        for _ in range(50):
            d = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if d == (0, 0):
                continue
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = tuple(t * v for v in d)
            assert leading.eval_exact(scaled) == t ** deg * leading.eval_exact(d)

    def test_random_sphere_directions_all_safe(self):
        """The unsafe set of the pinch pencil is exactly {0}."""
        pencil = analyze_singularity(pinch(), (0, 0))
        rng = random.Random(7)
        for _ in range(1000):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            verdict = direction_verdict(pencil, (math.cos(phi), math.sin(phi)))
            assert verdict.in_safe_set


class TestSeriesAndRecurrence:
    def test_geometric_series(self):
        f = _univariate([1], [1, -1])  # 1 / (1 - t)
        line = taylor_line(f, (0,), (1,), n_terms=10)
        assert line.coeffs == (1.0,) * 10
        assert line.recurrence_weights == (1.0,)
        assert line.radius_lower_bound == pytest.approx(0.5)

    def test_fibonacci_series(self):
        f = _univariate([1], [1, -1, -1])  # 1 / (1 - t - t^2)
        line = taylor_line(f, (0,), (1,), n_terms=8)
        assert line.coeffs == (1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
        assert line.recurrence_weights == (1.0, 1.0)
        assert line.radius_lower_bound == pytest.approx(0.25)

    def test_recurrence_matches_division_exactly(self):
        rng = random.Random(23)
        for _ in range(20):
            numer = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            denom = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 5))]
            if denom[0] == 0:
                denom[0] = Fraction(1)
            divided = series_divide(numer, denom, 51)
            weights = recurrence_weights(denom)
            seed_len = max(len(numer), len(denom))
            recurred = extend_by_recurrence(divided[:seed_len], weights, 51)
            assert divided == recurred

    def test_pinch_series_along_diagonal(self):
        f = pinch()
        line = taylor_line(f, (0, 0), (1, -1), n_terms=32)
        assert line.coeffs[0] == pytest.approx(-0.5)
        t = 0.01
        direct = f.eval((t, -t))
        assert series_eval(line.coeffs, t) == pytest.approx(direct, abs=1e-10)

    def test_unsafe_direction_raises(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(x * y, x * y + y * y)  # leading pencil d1*d2 + d2^2
        with pytest.raises(UnsafeDirectionError):
            taylor_line(f, (0, 0), (1, 0))

    @pytest.mark.parametrize("name, centre", [
        ("fig1", (0, 0)), ("multi3", (0, 0)), ("multi3", (3, 0)), ("multi3", (0, 3)),
    ])
    def test_float_direction_weights_are_the_exact_ratios_rounded(self, name, centre):
        """At a float direction each weight is -g_j/g_0 of the exact pencil
        values, rounded once."""
        f = load_bundled(name).rational()
        pencil = analyze_singularity(f, centre)
        direction = (0.6, -0.8)
        line = taylor_line(f, centre, direction, pencil=pencil)
        g = [p.eval_exact(direction) for p in pencil.denom_coeffs[pencil.n_min:]]
        while g[-1] == 0:
            g.pop()
        assert line.recurrence_weights == tuple(float(-v / g[0]) for v in g[1:])

    def test_series_divide_rejects_zero_leading_coefficient(self):
        with pytest.raises(ZeroDivisionError):
            series_divide([1], [0, 1], 4)

    def test_series_divide_rejects_an_empty_denominator(self):
        with pytest.raises(ZeroDivisionError, match="leading denominator"):
            series_divide([1], [], 4)

    @pytest.mark.parametrize("order", [*range(13), 450])
    def test_series_divide_has_the_loop_bits(self, order):
        """Recurrences of each order against the term-by-term loop, by repr:
        30 of floats drawn with +-0.0, +-inf and NaN among them (3 at order
        450), then as many of ints, and up to order 12 of Fractions, each
        with n_terms below, at and above the order.  Order 450 spreads each
        term's products over three statements.  Each order's tail is
        generated once and then read from the cache."""
        rng = random.Random(order)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
        draws = {
            "float": lambda: (
                rng.choice(specials) if rng.random() < 0.1 else rng.uniform(-3.0, 3.0)
            ),
            "int": lambda: rng.randint(-3, 3),
            "Fraction": lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        }
        kinds = list(draws)[:2] if order > 12 else list(draws)
        singan._series_tail.cache_clear()
        for kind in kinds:
            draw = draws[kind]
            for _ in range(3 if order > 12 else 30):
                denom = [draw() for _ in range(order + 1)]
                if denom[0] == 0:
                    denom[0] = rng.uniform(0.5, 2.0) if kind == "float" else 1
                numer = [draw() for _ in range(rng.randint(0, order + 3))]
                for n_terms in {1, max(order - 1, 1), order + 1, 2 * order + 5}:
                    assert repr(series_divide(numer, denom, n_terms)) == repr(
                        _series_divide_loop(numer, denom, n_terms)
                    )
        info = singan._series_tail.cache_info()
        assert (info.misses, info.currsize) == ((1, 1) if order else (0, 0))
        assert (info.hits > 0) == (order > 0)

    def test_recurrence_weights_reject_zero_leading_coefficient(self):
        with pytest.raises(ZeroDivisionError, match="leading denominator"):
            recurrence_weights([0, 1])

    def test_float_recurrence_sums_left_to_right(self):
        """c_3 = 1.0*1e16 + 1.0*1.0 + 1.0*1.0, summed from 0 in weight
        order: each 1.0 rounds away at 1e16, where a compensated sum (the
        builtin sum() of Python 3.12 and later) gives 1e16 + 2."""
        coeffs = extend_by_recurrence([1.0, 1.0, 1e16], [1.0, 1.0, 1.0], 4)
        assert coeffs[3] == (0 + 1e16 + 1.0) + 1.0 == 1e16

    def test_recurrence_needs_a_seed_as_long_as_its_order(self):
        with pytest.raises(ValueError, match="seed shorter than recurrence order"):
            extend_by_recurrence([1], [1, 1], 5)

    @pytest.mark.parametrize("n_terms", [0, -2])
    def test_fewer_than_one_term_rejected(self, n_terms):
        """Not an empty series: the CLI's --n-terms check, in the library."""
        with pytest.raises(ValueError, match="at least 1"):
            taylor_line(pinch(), (0, 0), (1, -1), n_terms=n_terms)


class TestRadiusBound:
    def test_companion_norm_formula(self):
        assert companion_radius_bound([1.0]) == pytest.approx(0.5)
        assert companion_radius_bound([1.0, 1.0]) == pytest.approx(0.25)
        assert companion_radius_bound([]) == pytest.approx(0.5)
        assert companion_radius_bound([0.25]) == pytest.approx(0.5)

    def test_weight_sum_is_correctly_rounded(self):
        """1 + 2e-16 rounds to the float above 1, though either 1e-16 added
        to 1.0 alone rounds away: the bound is the same on every Python
        version, whose builtin sum() is plain before 3.12."""
        weights = [1.0, 1e-16, 1e-16]
        assert _fsum(weights) > 1.0
        assert companion_radius_bound(weights) == 0.5 / _fsum(weights)

    def test_weight_sum_past_the_float_range(self):
        assert companion_radius_bound([1e308, 1e308, -1e308]) == 0.0

    def test_partial_sums_converge_inside_bound(self):
        f = pinch()
        line = taylor_line(f, (0, 0), (1, -1), n_terms=64)
        t = line.radius_lower_bound / 2.0
        tail = sum(abs(c) * t ** n for n, c in enumerate(line.coeffs) if n >= 48)
        assert tail < 1e-9

    def test_random_lines_tails_below_tolerance(self):
        rng = random.Random(31)
        for _ in range(10):
            numer = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            denom = [Fraction(rng.randint(1, 5))] + [
                Fraction(rng.randint(-5, 5)) for _ in range(3)
            ]
            f = _univariate(numer, denom)
            line = taylor_line(f, (0,), (1,), n_terms=64)
            t = line.radius_lower_bound / 2.0
            tail = sum(abs(c) * t ** n for n, c in enumerate(line.coeffs) if n >= 48)
            assert tail < 1e-9


class TestGeneratedPencilCode:
    """The pencil's exact evaluators loop on their first call and run
    generated code from the second, with the same results."""

    @pytest.mark.parametrize("name", ["fig1", "multi3", "counterex"])
    def test_lines_and_verdicts_equal_before_and_after_generation(self, name):
        """At each declared centre, a float, a Fraction and an integer
        direction (s a power of two, 35, and 1): each TaylorLine and
        DirectionVerdict, compared by repr, as the first call on a fresh
        pencil gave it, a line first on one pencil and a verdict first on
        another, so that each is compared looped and generated."""
        problem = load_bundled(name)
        centres = [(0,) * problem.n_vars, *problem.singular_points]
        directions = [(0.6, -0.8), (Fraction(3, 5), Fraction(-1, 7)), (2, -1)]
        for centre in centres:
            for d in directions:
                line_first, verdict_first = (
                    analyze_singularity(problem.rational(), centre) for _ in range(2)
                )
                first = [repr(taylor_line(None, centre, d, 16, line_first)),
                         repr(direction_verdict(verdict_first, d))]
                for pencil in (line_first, verdict_first):
                    for _ in range(2):
                        assert [repr(taylor_line(None, centre, d, 16, pencil)),
                                repr(direction_verdict(pencil, d))] == first
                    assert pencil._series.generated

    def test_a_verdict_builds_the_pencils_one_kernel(self, monkeypatch):
        """direction_verdict evaluates the series kernel that taylor_line
        reads: it builds that one kernel, and no call builds another."""
        pencil = analyze_singularity(load_bundled("multi3").rational(), (0, 0))
        built = []

        class Counted(singan._ExactEvaluator):
            def __init__(self, forms):
                built.append(len(forms))
                super().__init__(forms)

        monkeypatch.setattr(singan, "_ExactEvaluator", Counted)
        direction_verdict(pencil, (1, 2))
        direction_verdict(pencil, (3, -1))
        taylor_line(None, (0, 0), (1, 2), 16, pencil)
        n_min = pencil.n_min
        assert built == [len(pencil.denom_coeffs) + len(pencil.numer_coeffs) - 2 * n_min]
        assert [k for k in vars(pencil) if k.startswith("_")] == ["_series"]
        assert pencil._series.generated


class TestNonFiniteDirection:
    """An infinite or NaN coordinate raises one ValueError naming it."""

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("call", [
        lambda f, v: analyze_singularity(f, (v, 0)),
        lambda f, v: direction_verdict(analyze_singularity(f, (0, 0)), (v, 1.0)),
        lambda f, v: taylor_line(f, (0, 0), (v, 1.0)),
    ], ids=["analyze_singularity", "direction_verdict", "taylor_line"])
    def test_rejected_by_name(self, call, value):
        f = load_bundled("multi3").rational()
        with pytest.raises(ValueError, match=f"^{value!r} is not finite"):
            call(f, value)


class TestPencilMemo:
    """The pencil at a declared centre is built once per function."""

    @pytest.mark.parametrize("name, centre", [
        ("fig1", (0, 0)), ("multi3", (0, 0)), ("multi3", (3, 0)), ("multi3", (0, 3)),
    ])
    def test_declared_centre_returns_the_same_pencil(self, name, centre):
        f = load_bundled(name).rational()
        pencil = analyze_singularity(f, centre)
        assert analyze_singularity(f, centre) is pencil
        as_floats = tuple(float(v) for v in centre)
        assert analyze_singularity(f, as_floats) is pencil
        assert pencil.base == tuple(Fraction(v) for v in centre)

    def test_other_base_builds_a_fresh_pencil_and_keeps_none(self):
        f = load_bundled("multi3").rational()
        slots = dict(f._pencils)
        first = analyze_singularity(f, (1, 1))
        second = analyze_singularity(f, (1, 1))
        assert first == second and first is not second
        assert f._pencils == slots

    @pytest.mark.parametrize("name, centre, x0", [
        ("fig1", (0, 0), (2.0, -0.1)),
        ("multi3", (3, 0), (3.4, -0.3)),
        ("multi3", (0, 3), (0.3, 2.6)),
    ])
    def test_memoized_pencil_gives_the_same_bits(self, name, centre, x0):
        """A kept pencil, used again, gives a fresh pencil's bits."""
        f = load_bundled(name).rational()
        trace = optimize(f, x0, DescentConfig(max_iters=60))
        direction = (0.6, -0.8)
        for _ in range(3):
            pencil = analyze_singularity(f, centre)
            trail = direction_trail(trace, pencil)
            line = taylor_line(f, centre, direction, pencil=pencil)
        fresh = analyze_singularity(load_bundled(name).rational(), centre)
        fresh_line = taylor_line(f, centre, direction, pencil=fresh)
        fresh_trail = direction_trail(trace, fresh)
        assert float_hex(trail.pencil_values) == float_hex(fresh_trail.pencil_values)
        assert float_hex(trail.unit_directions) == float_hex(fresh_trail.unit_directions)
        assert trail.min_tail_pencil.hex() == fresh_trail.min_tail_pencil.hex()
        assert float_hex(line.coeffs) == float_hex(fresh_line.coeffs)
        assert float_hex(line.recurrence_weights) == float_hex(fresh_line.recurrence_weights)
        assert line.radius_lower_bound.hex() == fresh_line.radius_lower_bound.hex()


    @pytest.mark.parametrize("name, centre", [("fig1", (0, 0)), ("multi3", (3, 0))])
    def test_taylor_line_keeps_the_integer_forms(self, name, centre, monkeypatch):
        """The pencil's integer forms are formed on the first Taylor line at
        a declared centre and read from the kept pencil after.  At exact
        directions, integer and fractional, each line is the exact series of
        the pencil values, each coefficient rounded once."""
        f = load_bundled(name).rational()
        pencil = analyze_singularity(f, centre)
        calls = []
        original = singan._integer_form
        monkeypatch.setattr(
            singan, "_integer_form", lambda terms: calls.append(1) or original(terms)
        )
        directions = [(3, 1), (Fraction(1, 3), Fraction(-2, 7)), (Fraction(3, 4), 1)]
        for direction in directions:
            line = taylor_line(f, centre, direction, n_terms=12,
                               pencil=analyze_singularity(f, centre))
            g = [p.eval_exact(direction) for p in pencil.denom_coeffs[pencil.n_min:]]
            a = [p.eval_exact(direction) for p in pencil.numer_coeffs[pencil.n_min:]]
            while g[-1] == 0:
                g.pop()
            assert line.coeffs == tuple(float(c) for c in series_divide(a, g, 12))
        n_polys = len(pencil.denom_coeffs) + len(pencil.numer_coeffs) - 2 * pencil.n_min
        assert len(calls) == n_polys


def _float_units(count, seed):
    """count seeded unit directions in the plane, as float pairs."""
    rng = random.Random(seed)
    units = []
    for _ in range(count):
        raw = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.hypot(*raw)
        units.append((raw[0] / norm, raw[1] / norm))
    return units


def _verdict_bits(pencil, d):
    """Safe-set membership and the limit's bits at d."""
    verdict = direction_verdict(pencil, d)
    limit = verdict.limit_value
    return verdict.in_safe_set, None if limit is None else limit.hex()


def _line_bits(f, centre, d, pencil):
    """The bits of the Taylor line along d, or "unsafe" where it raises."""
    try:
        line = taylor_line(f, centre, d, n_terms=4, pencil=pencil)
    except UnsafeDirectionError:
        return "unsafe"
    return (float_hex(line.coeffs), float_hex(line.recurrence_weights),
            line.radius_lower_bound.hex())


class TestRepresentationInvariance:
    """c*p / c*q is the same function as p/q, for any rational c != 0, so it
    has the same safe set, directional limits, Taylor lines and trail
    verdict: none of them may depend on the sign or scale of the pair."""

    SCALES = [-1, Fraction(1, 10 ** 12), 10 ** 12, Fraction(-3, 7)]
    DIRECTIONS = [(1, 0), (0, 1), (1, -1), (3, -7)] + _float_units(200, 18)

    @staticmethod
    def _scaled(problem, c):
        f = problem.rational()
        g = RationalFunction(problem.numer.scale(c), problem.denom.scale(c),
                             problem.singular_points)
        assert g == f
        return f, g

    @pytest.mark.parametrize("c", SCALES, ids=str)
    @pytest.mark.parametrize("name, centre", [
        ("fig1", (0, 0)), ("multi3", (0, 0)), ("multi3", (3, 0)),
        ("multi3", (0, 3)), ("counterex", (0, 0)),
    ])
    def test_verdicts_and_taylor_lines(self, name, centre, c):
        f, g = self._scaled(load_bundled(name), c)
        ours, theirs = analyze_singularity(f, centre), analyze_singularity(g, centre)
        for d in self.DIRECTIONS:
            assert _verdict_bits(ours, d) == _verdict_bits(theirs, d), d
            assert (_line_bits(f, centre, d, ours)
                    == _line_bits(g, centre, d, theirs)), d

    @pytest.mark.parametrize("c", SCALES, ids=str)
    def test_trail_of_the_fig1_reference_run(self, c):
        f, g = self._scaled(load_bundled("fig1"), c)
        trace = optimize(f, (2.0, -0.1), DescentConfig())
        ours = direction_trail(trace, analyze_singularity(f, (0, 0)))
        theirs = direction_trail(trace, analyze_singularity(g, (0, 0)))
        assert trail_certifies_safe_approach(ours) is True
        assert trail_certifies_safe_approach(theirs) is True
        assert theirs.min_tail_pencil == pytest.approx(ours.min_tail_pencil, rel=1e-15)
