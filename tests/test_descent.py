"""Armijo descent, condition certification, trace persistence."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim.descent import (
    MAX_BACKTRACKS,
    STOP_MAX_ITERS,
    ConditionReport,
    DescentConfig,
    DescentTrace,
    check_conditions,
    optimize,
    read_trace_csv,
    read_trace_meta,
    trace_from_points,
    write_trace_csv,
)
from singulim.polyalg import DomainViolation, Polynomial, RationalFunction
from singulim.problems import load_bundled

from descent_helpers import (
    FACTOR,
    SIGMA,
    cp_f_hat,
    criterion_9_objective,
    float_hex,
    full_ladder,
    line_search,
    looped,
    pinch,
    quadratic_1d,
    reference_search,
    search,
    step_loop,
)


# sigma, factor and max_trials as optimize passes them by default.
_ARGS = (SIGMA, FACTOR, MAX_BACKTRACKS)


class _Counted:
    """f.eval, counting its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f.eval(x)


def _log_visits(f):
    """Wrap each chart's generated descend to log (its centre, the state it
    was called with, what it returned to the driver: a centre index or the
    stop reason, and the state it returned)."""
    log = []
    for j, centre in enumerate(f._centres):
        chart = f._chart_at(j)

        def logged(*args, _centre=centre, _descend=chart.generate("descend")):
            to, state = _descend(*args)
            log.append((_centre, args[:5], to, state))
            return to, state

        vars(chart)["descend"] = logged
    return log


class TestConfig:
    def test_defaults_valid(self):
        cfg = DescentConfig()
        assert cfg.sigma_armijo == 0.1
        assert cfg.max_iters == 100_000

    @pytest.mark.parametrize("kwargs", [
        {"sigma_armijo": 0.0},
        {"sigma_armijo": 1.0},
        {"backtrack_factor": 1.0},
        {"initial_step": 0.0},
        {"max_iters": 0},
        {"grad_tol": -1.0},
        {"initial_step": math.nan},
        {"initial_step": math.inf},
        {"grad_tol": math.nan},
        {"max_iters": 2.5},
        {"max_iters": math.nan},
        {"max_iters": True},
        {"max_iters": 100.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DescentConfig(**kwargs)

    def test_infinite_grad_tol_stops_at_once(self):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(grad_tol=math.inf))
        assert len(trace) == 1 and trace.stop_reason == "grad_tol"


class TestOptimize:
    def test_monotone_decrease_and_armijo(self):
        f = pinch()
        cfg = DescentConfig(max_iters=300)
        trace = optimize(f, (2.0, -0.1), cfg)
        # Strict decrease on every step.
        for a, b in zip(trace.f_values, trace.f_values[1:]):
            assert b < a
        # Recompute the Armijo acceptance from the recorded trace.
        for k in range(len(trace.step_norms)):
            decrease = trace.f_values[k] - trace.f_values[k + 1]
            required = (cfg.sigma_armijo * trace.alphas[k]
                        * trace.grad_norms[k] ** 2)
            assert decrease >= required * (1 - 1e-12)

    def test_sigma_hat_at_least_configured(self):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=300))
        report = check_conditions(trace, 0)
        assert report.sigma_hat >= 0.1

    @pytest.mark.parametrize("x0", [
        (2.315167012333845, -1.8743817402629241),
        (1.0453078611082531, -0.8124589664396993),
    ])
    def test_armijo_decrease_holds_without_rounding_slack(self, x0):
        # From these starts the iterates reach f near -1/2, where a required
        # decrease below one ulp of f is lost when it is subtracted from f.
        cfg = DescentConfig(max_iters=300)
        trace = optimize(load_bundled("fig1").rational(), x0, cfg)
        assert check_conditions(trace, 0).sigma_hat >= cfg.sigma_armijo
        for k in range(len(trace.step_norms)):
            decrease = trace.f_values[k] - trace.f_values[k + 1]
            assert decrease >= (cfg.sigma_armijo * trace.alphas[k]
                                * trace.grad_norms[k] ** 2)

    def test_stationary_start_stops_immediately(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        numer = (x - 1) ** 2 + (y - 1) ** 2
        f = RationalFunction(numer, 1 + x * x + y * y)
        trace = optimize(f, (1.0, 1.0))
        assert trace.stop_reason == "grad_tol"
        assert len(trace) == 1

    def test_divergent_run_hits_iteration_cap(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(Polynomial.constant(2, 1), 1 + x * x + y * y)
        trace = optimize(f, (1.0, 1.0), DescentConfig(max_iters=500))
        assert trace.stop_reason == "max_iters"
        norms = [math.hypot(*p) for p in trace.iterates]
        assert norms[-1] > norms[0]
        assert trace.f_values[-1] < trace.f_values[0]

    def test_domain_violation_start(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f = RationalFunction(x, x * x + y * y)
        trace = optimize(f, (0.0, 0.0))
        assert trace.stop_reason == "domain_violation"
        assert len(trace.f_values) == 0

    def test_determinism(self):
        f = pinch()
        t1 = optimize(f, (2.0, -0.1), DescentConfig(max_iters=200))
        t2 = optimize(f, (2.0, -0.1), DescentConfig(max_iters=200))
        assert t1 == t2

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            optimize(pinch(), (float("nan"), 0.0))

    def test_start_past_the_float_range_rejected(self):
        """The ValueError of a non-finite start, not float()'s OverflowError."""
        with pytest.raises(ValueError, match=r"^point .*: coordinate 0, .* not a finite float"):
            optimize(pinch(), (Fraction(10**400), 0.0))


def _trace_digest(trace):
    """SHA-256 over float.hex of the iterates, f values and gradient norms."""
    digest = hashlib.sha256()
    for values in (trace.iterates, trace.f_values, trace.grad_norms):
        for value in values:
            for v in value if isinstance(value, tuple) else (value,):
                digest.update(float.hex(v).encode() + b",")
        digest.update(b";")
    return digest.hexdigest()


class TestPinnedBits:
    """Three runs pinned bit for bit.  A change of these digests changes what
    optimize computes, and is made on purpose, not as a side effect of a
    speed-up."""

    def test_fig1_reference_run(self):
        trace = optimize(load_bundled("fig1").rational(), (2.0, -0.1), DescentConfig())
        assert (len(trace) - 1, trace.stop_reason) == (45, "grad_tol")
        assert _trace_digest(trace) == (
            "4fe0a334acb3bfdd6417a0b933733eaace9c6b486871d32b396d9a9c4e2a93c3"
        )

    def test_multi3_run_into_the_chart_at_0_3(self):
        trace = optimize(
            load_bundled("multi3").rational(), (2.5, 3.5), DescentConfig(max_iters=200)
        )
        assert (len(trace) - 1, trace.stop_reason) == (67, "f_stationary")
        assert _trace_digest(trace) == (
            "a3d9be0ba6e0009849823a3e49d87b8d9779c33774f1d95e50a3d375a6fe47bb"
        )

    def test_cp_f_hat_run_through_the_composed_chart(self):
        """Criterion 9's (2,2,2) rank-2 f_hat, whose one chart sums two inner
        levels before p and q."""
        f = criterion_9_objective()[1].f_hat
        rng = random.Random(9)
        x0 = [rng.gauss(0.0, 1.0) for _ in range(12)]
        trace = optimize(f, x0, DescentConfig(max_iters=50))
        assert (len(trace) - 1, trace.stop_reason) == (50, "max_iters")
        assert _trace_digest(trace) == (
            "94d97e18d2bcdbc32e7c30b938d67b47bc5847a5199729ebbaee573547426e38"
        )


def _fig1_times(c):
    """fig1 written as c*p / c*q."""
    problem = load_bundled("fig1")
    return RationalFunction(problem.numer.scale(c), problem.denom.scale(c),
                            problem.singular_points)


class TestScaledPair:
    """A chart scales p and q by the power of two that brings q's largest
    coefficient into [1, 2), so the scale of the written pair does not reach
    the floats."""

    @pytest.mark.parametrize("c", [Fraction(1, 2 ** 1100), 2 ** 1100],
                             ids=["2^-1100", "2^1100"])
    def test_power_of_two_scale_keeps_the_reference_run(self, c):
        reference = optimize(load_bundled("fig1").rational(), (2.0, -0.1), DescentConfig())
        trace = optimize(_fig1_times(c), (2.0, -0.1), DescentConfig())
        assert (len(trace), trace.stop_reason) == (len(reference), reference.stop_reason)
        assert _trace_digest(trace) == _trace_digest(reference)

    def test_coefficients_below_the_float_range_still_descend(self):
        """Each coefficient of 10^-400 * p rounds to 0.0 as a float.  The
        chart's coefficients, 10^-400 * 2^k times fig1's, are not +-2^j, so
        the run is not the reference run."""
        trace = optimize(_fig1_times(Fraction(1, 10 ** 400)), (2.0, -0.1), DescentConfig())
        assert (len(trace) - 1, trace.stop_reason) == (52, "grad_tol")
        assert trace.f_values[-1] == pytest.approx(-0.5, abs=1e-8)


class TestLineSearch:
    def test_search_that_rounds_back_to_x_stops_there(self):
        """counterex from this start stops on f_stationary after 4 steps: its
        last searches halve alpha until x - alpha*g rounds back to x."""
        x0, cfg = (0.2967700716400383, 0.17165480523348187), DescentConfig()
        f = load_bundled("counterex").rational()
        trace = optimize(f, x0, cfg)
        assert trace.stop_reason == "f_stationary"
        counted = _Counted(load_bundled("counterex").rational())
        assert step_loop(counted.f, x0, cfg, evaluate=counted) == trace
        run_calls = counted.calls

        x, fx = trace.iterates[-1], trace.f_values[-1]
        _, grad = f.eval_and_grad(x)
        g_sq = trace.grad_norms[-1] ** 2
        counted.calls = 0
        assert line_search(counted, x, fx, grad, g_sq, 1.0, *_ARGS) is None
        assert 0 < counted.calls < MAX_BACKTRACKS
        counted.calls = 0
        assert full_ladder(counted, x, fx, grad, g_sq, 1.0, *_ARGS) is None
        assert counted.calls == MAX_BACKTRACKS

        full = _Counted(load_bundled("counterex").rational())
        assert step_loop(full.f, x0, cfg, full_ladder, full) == trace
        assert full.calls > run_calls

    @pytest.mark.parametrize("name, x0, max_iters", [
        ("fig1", (-0.8838368497005282, -2.11323333490786), 100_000),
        ("counterex", (0.2967700716400383, 0.17165480523348187), 100),
        ("multi3", (1.6, 1.4), 300),
        ("multi3", (3.577794807801203, 1.2956586595533417), 300),
    ])
    def test_one_descend_call_per_chart_visit(self, name, x0, max_iters, monkeypatch):
        """optimize calls eval_and_grad at x0 only, eval never, and the
        charts' descend 1 + hand-offs + retries times.  Every call but the
        last hands on to the chart of the centre nearest its trial, or stops
        on f_stationary and is followed by a call on the same chart, the
        retry, with first_step = alpha = initial_step.  The hand-offs are
        the changes of chart along the trials of the Python step loop (none
        on the one-chart problems and from (1.6, 1.4), several from the
        other multi3 start), and the retries its failed searches that are
        searched again: fig1's run from its start retries."""
        cfg = DescentConfig(max_iters=max_iters)
        f = load_bundled(name).rational()
        visits = _log_visits(f)
        calls = []
        for method in ("eval", "eval_and_grad"):
            def logged(self, x, _method=method, _original=getattr(RationalFunction, method)):
                calls.append((_method, x))
                return _original(self, x)

            monkeypatch.setattr(RationalFunction, method, logged)
        trace = optimize(f, x0, cfg)
        monkeypatch.undo()
        assert calls == [("eval_and_grad", x0)]
        assert visits[0][0] == f._chart(x0).centre
        assert visits[-1][2] == trace.stop_reason
        for (centre, _, to, state), (next_centre, args, _, _) in zip(visits, visits[1:]):
            if to == "f_stationary":
                step = cfg.initial_step
                assert state[1] != step and next_centre == centre
                assert args == (state[0], step, step, MAX_BACKTRACKS, state[4])
            else:
                assert f._centres[to] == next_centre and args == state

        charts = [f._chart(x0)]
        searches = []

        def evaluate(t):
            charts.append(f._chart(t))
            return f.eval(t)

        def ladder(evaluate, x, fx, grad, g_sq, alpha, *args):
            accepted = line_search(evaluate, x, fx, grad, g_sq, alpha, *args)
            searches.append(accepted is not None)
            return accepted

        assert step_loop(f, x0, cfg, ladder, evaluate) == trace
        hand_offs = sum(a is not b for a, b in zip(charts, charts[1:]))
        retries = searches[:-1].count(False)
        assert len(visits) == 1 + hand_offs + retries
        assert (hand_offs > 0) == (x0[0] > 3.0)
        assert retries > 0 or name != "fig1"


def _trace_hex(trace):
    """Every float of a trace as float.hex, with its stop reason."""
    return [float_hex(list(field)) for field in (
        trace.iterates, trace.f_values, trace.grad_norms, trace.step_norms, trace.alphas
    )] + [trace.stop_reason]


def _polynomial_objective(numer):
    """numer(x, y) over 1, numer given as a function of the variables."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return RationalFunction(numer(x, y), Polynomial.constant(2, 1))


class TestGeneratedSearch:
    """One search through RationalFunction.descend gives the bits of
    line_search(f.eval, ...) and eval_and_grad at the accepted trial, over
    generated code and over the charts' term loops, ladder by ladder; whole
    runs give the bits of the Python step loop over both."""

    @staticmethod
    def _assert_same(make, x, alpha, fx=None, grad=None, loop=None):
        """One ladder from x on a fresh function against the reference on
        another, and against reference_search over the term loops on a
        third, or on loop where given: the term loops keep nothing from one
        call to the next."""
        f, reference = make(), make()
        fx_x, grad_x = reference.eval_and_grad(x)
        fx = fx_x if fx is None else fx
        grad = grad_x if grad is None else grad
        gnorm = math.sqrt(math.fsum(g * g for g in grad))
        expected = line_search(reference.eval, x, fx, grad, gnorm * gnorm, alpha, *_ARGS)
        result = search(f, x, fx, grad, gnorm, alpha)
        loop = looped(make()) if loop is None else loop
        expected_loop = reference_search(loop, x, fx, grad, gnorm, alpha)
        assert float_hex(expected_loop) == float_hex(result), (x, alpha)
        if result is None:
            assert expected is None, (x, alpha)
        else:
            assert float_hex(result[:3]) == float_hex(expected), (x, alpha)
            assert float_hex(result[3]) == float_hex(reference.eval_and_grad(result[0])[1])
        return expected

    @pytest.mark.parametrize("name", ["fig1", "counterex", "multi3"])
    def test_bundled_ladders(self, name):
        """Starts over [-1, 4]^2, where multi3's ladders cross between its
        three charts, with alpha up to 2^12."""
        make = lambda: load_bundled(name).rational()
        f, loop = make(), looped(make())
        rng = random.Random(name)
        crossings = accepted_elsewhere = 0
        for _ in range(150):
            x = (rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0))
            alpha = 2.0 ** rng.randint(-4, 12)
            result = self._assert_same(make, x, alpha, loop=loop)
            _, grad = f.eval_and_grad(x)
            first = tuple(xi - alpha * gi for xi, gi in zip(x, grad))
            crossings += f._chart(first) is not f._chart(x)
            accepted_elsewhere += (
                result is not None and f._chart(result[0]) is not f._chart(x)
            )
        if name == "multi3":
            assert crossings > 20 and accepted_elsewhere > 20

    def test_cp_f_hat_ladders(self):
        """The composed chart of the (2,2,2) rank-2 f_hat."""
        rng = random.Random(222)
        for _ in range(20):
            x = tuple(rng.gauss(0.0, 1.0) for _ in range(12))
            self._assert_same(cp_f_hat, x, 2.0 ** rng.randint(-3, 3))

    @pytest.mark.parametrize("fx", [None, 1.0])
    def test_trial_at_the_floor_backtracks(self, fx):
        """pinch from (1, 1) along (1, 1): the first trial is the origin,
        where q = 0, and the second is (0.5, 0.5)."""
        with pytest.raises(DomainViolation):
            pinch().eval((0.0, 0.0))
        expected = self._assert_same(pinch, (1.0, 1.0), 1.0, fx, (1.0, 1.0))
        if fx is not None:
            assert expected[0] == (0.5, 0.5)
        assert search(pinch(), (1.0, 1.0), 1.0, (1.0, 1.0), math.sqrt(2.0), 1.0, 1) is None

    @pytest.mark.parametrize("numer", [
        lambda x, y: -x ** 4 - y ** 4,  # -inf
        lambda x, y: x ** 4 - y ** 4 - x,  # inf - inf = nan
    ], ids=["-inf", "nan"])
    def test_non_finite_trials_backtrack(self, numer):
        """From (1, 1) along (1, 1) with alpha = 2^300, f is not finite
        until the trials fall below 2^256."""
        make = lambda: _polynomial_objective(numer)
        f = make()
        assert not math.isfinite(f.eval((2.0 ** 300, 2.0 ** 300)))
        expected = self._assert_same(make, (1.0, 1.0), 2.0 ** 300, grad=(-1.0, -1.0))
        assert 2.0 ** 250 < expected[0][0] < 2.0 ** 256

    def test_trial_that_rounds_back_to_x(self):
        """counterex at the last iterate of the run in TestLineSearch, and
        fig1 far out with a step below half an ulp of x."""
        x0 = (0.2967700716400383, 0.17165480523348187)
        make = lambda: load_bundled("counterex").rational()
        trace = optimize(make(), x0, DescentConfig())
        assert self._assert_same(make, trace.iterates[-1], 1.0) is None
        fig1 = lambda: load_bundled("fig1").rational()
        assert self._assert_same(fig1, (1e10, -1e10), 1e-17, grad=(1.0, 1.0)) is None

    @pytest.mark.parametrize("name, x, alpha", [
        ("fig1", (0.7, -0.4), 1.0),
        ("multi3", (3.5797240586549055, 1.3702676827356326), 64.0),
    ])
    def test_ladder_of_max_backtracks_trials(self, name, x, alpha):
        """alpha0 = 2^60 times the accepted alpha of a search from x: the
        reference rejects all MAX_BACKTRACKS trials, and trial 61 would be
        accepted.  On multi3, x is in the chart at (3, 0), the ladder starts
        in the one at the origin and trial 61 lies in the one at (0, 3)."""
        make = lambda: load_bundled(name).rational()
        f = make()
        fx, grad = f.eval_and_grad(x)
        gnorm = math.sqrt(math.fsum(g * g for g in grad))
        accepted = line_search(f.eval, x, fx, grad, gnorm * gnorm, alpha, *_ARGS)
        alpha0 = accepted[2] * 2.0 ** MAX_BACKTRACKS
        assert self._assert_same(make, x, alpha0) is None
        assert float_hex(search(f, x, fx, grad, gnorm, alpha0, MAX_BACKTRACKS + 1)[:3]) == (
            float_hex(accepted)
        )
        if name == "multi3":
            first = tuple(xi - alpha0 * gi for xi, gi in zip(x, grad))
            assert f._chart(first) is f._charts[0]
            assert f._chart(x) is f._charts[1]
            assert f._chart(accepted[0]) is f._charts[2]

    def test_decrease_compared_not_the_rounded_threshold(self):
        """t^2 from 1 with alpha*grad = 2: the first trial, -1, has f = fx and
        the decrease 0, below the required 0.1 * 2^-51, although
        fx - required rounds to fx.  The second trial, 0, is accepted."""
        t = Polynomial.variable(1, 0)
        make = lambda: RationalFunction(t * t, Polynomial.constant(1, 1))
        expected = self._assert_same(make, (1.0,), 2.0 ** 53, 1.0, (2.0 ** -52,))
        assert expected == ((0.0,), 0.0, 2.0 ** 52)

    @staticmethod
    def _assert_same_run(make, x0, cfg):
        """optimize through descend against the Python step loop over
        line_search, over the charts' term loops and over generated code,
        float.hex of every entry; returns the trace."""
        trace = optimize(make(), x0, cfg)
        loop = step_loop(looped(make()), x0, cfg)
        reference = step_loop(make(), x0, cfg)
        assert _trace_hex(trace) == _trace_hex(loop) == _trace_hex(reference)
        return trace

    @pytest.mark.parametrize("name, x0, max_iters", [
        ("fig1", (2.0, -0.1), 100_000),
        ("fig1", (1.0453078611082531, -0.8124589664396993), 300),
        ("counterex", (0.2967700716400383, 0.17165480523348187), 100),
        ("multi3", (2.5, 3.5), 300),
        ("multi3", (-0.9, 3.7), 300),
        ("multi3", (1.6, 1.4), 300),
        ("cp_f_hat", (1.0, 0.5, 0.8, -0.2, 0.3, 1.1, -0.7, 0.4, 0.9, 0.2, -0.5, 1.3), 50),
    ])
    def test_optimize_matches_the_reference_path(self, name, x0, max_iters):
        """optimize through descend against the Python step loop over
        line_search and eval_and_grad, over generated code and over the
        charts' term loops."""
        make = cp_f_hat if name == "cp_f_hat" else lambda: load_bundled(name).rational()
        cfg = DescentConfig(max_iters=max_iters)
        trace = optimize(make(), x0, cfg)
        reference = step_loop(make(), x0, cfg)
        loop = step_loop(looped(make()), x0, cfg)
        assert _trace_digest(trace) == _trace_digest(reference) == _trace_digest(loop)
        assert trace == reference == loop
        assert _trace_hex(trace) == _trace_hex(reference) == _trace_hex(loop)

    def test_hand_off_mid_ladder(self):
        """multi3 from a point in the chart at (3, 0): a search hands on to
        the origin's chart at its first trial, and one there hands back
        after trials of its own, with the budget left."""
        make = lambda: load_bundled("multi3").rational()
        x0 = (3.577794807801203, 1.2956586595533417)
        self._assert_same_run(make, x0, DescentConfig(max_iters=300))
        f = make()
        visits = _log_visits(f)
        optimize(f, x0, DescentConfig(max_iters=300))
        budgets = [state[3] for _, _, to, state in visits if type(to) is int]
        assert any(0 < budget < MAX_BACKTRACKS for budget in budgets)

    def test_the_reference_runs_no_generated_code(self):
        """The step loop over looped(multi3) from the start above tries
        points in more than one chart, and every chart of the copy still
        evaluates by its term loop and holds no descend: the comparisons
        with the reference never compare generated code with itself."""
        f = looped(load_bundled("multi3").rational())
        visited = set()

        def evaluate(t):
            visited.add(f._chart(t).centre)
            return f.eval(t)

        x0 = (3.577794807801203, 1.2956586595533417)
        step_loop(f, x0, DescentConfig(max_iters=300), evaluate=evaluate)
        assert len(visited) >= 2
        for chart in f._charts:
            assert vars(chart)["evaluate"] == chart.loop
            assert "descend" not in vars(chart)

    def test_short_step_where_y_y_underflows(self):
        """2^-500 x + 2^-41 x^2 over 1 from 2^-499: step 2 changes the
        gradient by about 2^-540, whose square underflows to 0 although
        s'y > 0.  The short step that follows starts from initial_step in
        descend and in the step loop, not from a division by 0."""
        x = Polynomial.variable(1, 0)
        numer = x.scale(Fraction(1, 2 ** 500)) + (x * x).scale(Fraction(1, 2 ** 41))
        make = lambda: RationalFunction(numer, Polynomial.constant(1, 1))
        cfg = DescentConfig(grad_tol=0.0, max_iters=6)
        trace = self._assert_same_run(make, (2.0 ** -499,), cfg)
        assert (len(trace) - 1, trace.stop_reason) == (6, "max_iters")
        f = make()
        (x1,), (x2,) = trace.iterates[1:3]
        y = f.eval_and_grad((x2,))[1][0] - f.eval_and_grad((x1,))[1][0]
        assert (x2 - x1) * y > 0.0 and y * y == 0.0

    def test_retry_from_initial_step(self):
        """fig1 from this start: searches whose two-point start fails are
        retried from initial_step, and the run goes on to stop on grad_tol."""
        x0, cfg = (-0.8838368497005282, -2.11323333490786), DescentConfig(max_iters=300)
        make = lambda: load_bundled("fig1").rational()
        trace = self._assert_same_run(make, x0, cfg)
        log = []

        def ladder(evaluate, x, fx, grad, g_sq, alpha, *args):
            accepted = line_search(evaluate, x, fx, grad, g_sq, alpha, *args)
            log.append((x, alpha, accepted is not None))
            return accepted

        assert step_loop(make(), x0, cfg, ladder) == trace
        retries = [i for i, (x, _, ok) in enumerate(log[:-1]) if not ok]
        assert retries and trace.stop_reason == "grad_tol"
        for i in retries:
            assert log[i + 1][:2] == (log[i][0], cfg.initial_step) and log[i + 1][2]

    def test_floor_rejection_in_a_run(self):
        """pinch from (1, -1) with initial_step 9: the first trial is the
        origin, where q = 0, and the run backtracks past it."""
        cfg = DescentConfig(max_iters=50, initial_step=9.0)
        rejected = []

        def evaluate(t):
            try:
                return f.eval(t)
            except DomainViolation:
                rejected.append(t)
                raise

        f = pinch()
        trace = self._assert_same_run(pinch, (1.0, -1.0), cfg)
        assert step_loop(f, (1.0, -1.0), cfg, evaluate=evaluate) == trace
        assert rejected[0] == (0.0, 0.0) and len(trace) > 2

    @pytest.mark.parametrize("cfg, stop, steps", [
        (DescentConfig(grad_tol=math.inf), "grad_tol", 0),
        (DescentConfig(max_iters=1), "max_iters", 1),
    ], ids=["grad_tol=inf", "max_iters=1"])
    def test_first_pass_stops(self, cfg, stop, steps):
        for name, x0 in (("fig1", (2.0, -0.1)), ("multi3", (1.6, 1.4))):
            make = lambda: load_bundled(name).rational()
            trace = self._assert_same_run(make, x0, cfg)
            assert (trace.stop_reason, len(trace.step_norms)) == (stop, steps)

    @pytest.mark.parametrize("numer, x0, initial_step, iterates, stop", [
        (lambda x, y: x * x + y * y, (6e153, 6e153), 1.0, 1, "f_stationary"),
        (lambda x, y: -x - y, (0.0, 0.0), 1e154, 4, "max_iters"),
        (lambda x, y: -x ** 4 - y ** 4, (1.0, 1.0), 3.5e50, 2, "f_stationary"),
    ], ids=["start", "s_s", "g_g"])
    def test_step_sums_past_the_largest_float_are_inf(
        self, numer, x0, initial_step, iterates, stop
    ):
        """Finite squares that sum past the largest float: ||grad f||^2 at
        the start from a gradient of (1.2e154, 1.2e154), ||s||^2 from
        s = (1e154, 1e154), ||grad f||^2 from a gradient of about
        (-1.1e154, -1.1e154) at the trial.  fsum raises OverflowError there;
        the sums are the plain sums' inf instead, in the step loop as in
        optimize, and the run stops as any run with that norm does."""
        cfg = DescentConfig(max_iters=3, initial_step=initial_step)
        make = lambda: _polynomial_objective(numer)
        trace = self._assert_same_run(make, x0, cfg)
        assert (len(trace.iterates), trace.stop_reason) == (iterates, stop)
        assert math.inf in trace.grad_norms + trace.step_norms

    @pytest.mark.parametrize("make, x0, initial_step", [
        (lambda: _polynomial_objective(lambda x, y: -x - y), (0.0, 0.0), 1e200),
        (lambda: _polynomial_objective(lambda x, y: -x ** 3 - y), (1.0, 0.0), 3e99),
        (lambda: RationalFunction(-Polynomial.variable(1, 0) ** 3,
                                  Polynomial.constant(1, 1)), (1.0,), 3e99),
    ], ids=["s*s=inf", "g*g=inf", "one-variable"])
    def test_step_sums_with_an_inf_product(self, make, x0, initial_step):
        """A product is inf: s0*s0 from s0 = 1e200, or g0*g0 from a gradient
        of about -2.4e200 at the trial.  The plain sum is not finite, and
        fsum's inf (or NaN) goes into the rows as in the step loop."""
        cfg = DescentConfig(max_iters=3, initial_step=initial_step)
        trace = self._assert_same_run(make, x0, cfg)
        norms = trace.step_norms + trace.grad_norms
        assert math.inf in norms and len(trace.step_norms) >= 1


class TestCheckConditions:
    def test_synthetic_halving_trace(self):
        """x_k = 2^-k on f = x^2: sigma_hat = 3/4, kappa_hat = 1/4.

        f_k - f_{k+1} = 3*4^{-k-1}, ||grad|| = 2^{1-k}, step = 2^{-k-1}.
        """
        f = quadratic_1d()
        points = [(2.0 ** -k,) for k in range(10)]
        trace = trace_from_points(f, points)
        report = check_conditions(trace, 0)
        assert report.sigma_hat == pytest.approx(0.75)
        assert report.kappa_hat == pytest.approx(0.25)
        assert report.a2_violations == 0

    def test_no_points_no_trace(self):
        with pytest.raises(ValueError, match="empty point sequence"):
            trace_from_points(quadratic_1d(), [])

    def test_single_point_trace_reports_none(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,)])
        report = check_conditions(trace, 0)
        assert report.sigma_hat is None
        assert report.kappa_hat is None

    def test_degenerate_steps_counted_not_fatal(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (1.0,), (0.5,)])
        report = check_conditions(trace, 0)
        assert report.degenerate_steps == 1
        assert report.sigma_hat is not None

    def test_tail_start_beyond_last_step_rejected(self):
        f = quadratic_1d()
        trace = trace_from_points(f, [(1.0,), (0.5,)])
        with pytest.raises(ValueError):
            check_conditions(trace, 1)

    def test_zero_progress_step_counts_a2_violation(self):
        f = pinch()
        # Symmetric points with identical f-value but nonzero step.
        trace = trace_from_points(f, [(1.0, 1.0), (-1.0, -1.0)])
        report = check_conditions(trace, 0)
        assert report.a2_violations == 1


def _looped_conditions(trace, tail_start):
    """check_conditions as a loop over the steps with a running minimum: the
    reference for its bits.  Where g*s underflows to a signed zero, Python's
    division raises, so the quotient is numpy's IEEE division by that zero:
    inf of the sign of df*(g*s), or NaN at df = 0."""
    n_steps = len(trace.step_norms)
    if n_steps and tail_start >= n_steps:
        raise ValueError(f"tail_start {tail_start} beyond last step {n_steps - 1}")
    sigma_hat = None
    kappa_hat = None
    a2_violations = 0
    degenerate = 0
    for k in range(max(tail_start, 0), n_steps):
        df = trace.f_values[k] - trace.f_values[k + 1]
        g = trace.grad_norms[k]
        s = trace.step_norms[k]
        if df == 0.0 and s > 0.0:
            a2_violations += 1
        if s == 0.0:
            if g > 0.0:
                degenerate += 1
            continue
        if g > 0.0:
            gs = g * s
            if gs == 0.0:
                with np.errstate(all="ignore"):
                    sigma = float(np.float64(df) / np.float64(gs))
            else:
                sigma = df / gs
            kappa = s / g
            sigma_hat = sigma if sigma_hat is None else min(sigma_hat, sigma)
            kappa_hat = kappa if kappa_hat is None else min(kappa_hat, kappa)
    return ConditionReport(
        sigma_hat, kappa_hat, a2_violations, max(tail_start, 0), degenerate
    )


def _report_bits(report):
    hexed = lambda v: None if v is None else (type(v), v.hex())
    return (hexed(report.sigma_hat), hexed(report.kappa_hat), report.a2_violations,
            report.tail_start, report.degenerate_steps)


def _assert_conditions_match_loop(trace, tail_start):
    try:
        want = _looped_conditions(trace, tail_start)
    except ValueError:
        with pytest.raises(ValueError, match="beyond last step"):
            check_conditions(trace, tail_start)
        return
    assert _report_bits(check_conditions(trace, tail_start)) == _report_bits(want)


# Values with ties (df = 0), zeros of both signs, tiny products that
# underflow, huge ones that overflow, and non-finite entries.
_trace_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, 1e-170, 5e-324, 1e200,
                     math.inf, -math.inf, math.nan]),
    st.floats(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _condition_cases(draw):
    n_steps = draw(st.integers(0, 12))
    f_values = tuple(draw(_trace_values) for _ in range(n_steps + 1))
    grad_norms = tuple(draw(_trace_values) for _ in range(n_steps + 1))
    step_norms = tuple(draw(_trace_values) for _ in range(n_steps))
    trace = DescentTrace(((0.0,),) * (n_steps + 1), f_values, grad_norms,
                         step_norms, (1.0,) * n_steps, STOP_MAX_ITERS)
    return trace, draw(st.integers(-2, n_steps + 1))


class TestCheckConditionsBits:
    """check_conditions returns the reference step loop's bits and counts."""

    @settings(max_examples=250, deadline=None)
    @given(_condition_cases())
    def test_drawn_traces(self, case):
        _assert_conditions_match_loop(*case)

    @pytest.mark.parametrize("name, x0", [
        ("fig1", (2.0, -0.1)), ("fig1", (0.5, -2.0)),
        ("multi3", (-0.9, 3.7)), ("multi3", (3.5, 0.4)),
    ])
    def test_descent_traces(self, name, x0):
        trace = optimize(load_bundled(name).rational(), x0, DescentConfig(max_iters=300))
        for tail_start in (0, len(trace.step_norms) // 2, len(trace.step_norms) - 1):
            _assert_conditions_match_loop(trace, tail_start)

    @pytest.mark.parametrize("df, s, sigma", [
        (1.0, 0.5, math.inf), (1.0, -0.5, -math.inf), (-1.0, 0.5, -math.inf),
        (0.0, 0.5, math.nan),
    ])
    def test_underflowing_product_divides_by_its_signed_zero(self, df, s, sigma):
        """g*s = 5e-324 * 0.5 rounds to 0.0 (to -0.0 for a negative step)."""
        trace = DescentTrace(((0.0,),) * 2, (df, 0.0), (5e-324, 1.0), (s,), (1.0,),
                             STOP_MAX_ITERS)
        got = check_conditions(trace, 0).sigma_hat
        assert got == sigma or (math.isnan(got) and math.isnan(sigma))
        _assert_conditions_match_loop(trace, 0)

    def test_nan_ratio_first_in_the_tail_is_the_minimum(self):
        """min keeps its first argument unless a later one is smaller, and
        nothing compares smaller than NaN."""
        trace = DescentTrace(((0.0,),) * 3, (math.inf, math.inf, 0.0), (1.0, 1.0, 1.0),
                             (1.0, 1.0), (1.0, 1.0), STOP_MAX_ITERS)
        report = check_conditions(trace, 0)
        assert math.isnan(report.sigma_hat)
        _assert_conditions_match_loop(trace, 0)


class TestTracePersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=50))
        path = tmp_path / "run.trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back == trace

    def test_round_trip_write_is_byte_identical(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=50))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace_csv(trace, p1)
        write_trace_csv(read_trace_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reingested_trace_reproduces_conditions(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=80))
        path = tmp_path / "run.trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert check_conditions(back, 10) == check_conditions(trace, 10)

    def test_metadata_round_trip(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=20))
        path = tmp_path / "run.trace.csv"
        metadata = {"config": {"max_iters": 20}, "singulim_version": "0.1.0"}
        write_trace_csv(trace, path, metadata)
        assert read_trace_meta(path) == {"stop_reason": trace.stop_reason, **metadata}
        assert read_trace_csv(path) == trace

    def test_sidecar_with_stop_reason_only_still_read(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=20))
        path = tmp_path / "run.trace.csv"
        write_trace_csv(trace, path)
        assert json.loads((tmp_path / "run.trace.csv.meta.json").read_text()) == {
            "stop_reason": trace.stop_reason
        }
        assert read_trace_csv(path) == trace
        (tmp_path / "run.trace.csv.meta.json").unlink()
        assert read_trace_meta(path) == {}
        assert read_trace_csv(path).stop_reason == STOP_MAX_ITERS

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_malformed_sidecar_rejected(self, tmp_path):
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=5))
        path = tmp_path / "run.trace.csv"
        write_trace_csv(trace, path)
        for text in ("{not json", '{"stop_reason": "done"}', "[]",
                     '{"problem_sha256": "00"}'):
            (tmp_path / "run.trace.csv.meta.json").write_text(text)
            with pytest.raises(ValueError):
                read_trace_csv(path)

    @pytest.mark.parametrize("trace", [
        DescentTrace(((3.0, 0.0),), (), (), (), (), "domain_violation"),
        DescentTrace(((2.0, -0.1),), (0.5,), (1.0,), (), (), "grad_tol"),
    ], ids=["start-outside-domain", "stop-at-start"])
    def test_one_row_traces_round_trip(self, tmp_path, trace):
        path = tmp_path / "one.trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    @pytest.mark.parametrize("row, columns, value", [
        (10, (3, 4), ""),
        (20, (5, 6), "1"),
        (10, (5, 6), ""),
        (0, (3, 4), ""),
        (20, (3, 4), ""),
    ], ids=["blank-f-middle", "step-on-last-row", "blank-step-middle",
            "blank-f-first", "blank-f-last"])
    def test_rows_off_the_writers_layout_rejected(self, tmp_path, row, columns, value):
        """f and grad_norm belong on every row, step_norm and alpha on
        every row but the last; a row without them would misalign the
        columns against the iterates."""
        trace = optimize(pinch(), (2.0, -0.1), DescentConfig(max_iters=20))
        assert len(trace) == 21
        path = tmp_path / "run.trace.csv"
        write_trace_csv(trace, path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        for column in columns:
            lines[1 + row][column] = value
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"row {row}:"):
            read_trace_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("k,f,grad_norm,step_norm,alpha\n0,1,1,,\n", "malformed trace header"),
        ("k,x_1,f,grad_norm,step_norm,alpha\n", "empty trace"),
        ("k,x_1,f,grad_norm,step_norm,alpha\n0,1,1,1,1,1\n1,0.5,1,1\n",
         "row length mismatch"),
        ("k,x_1,x_2,grad_norm,f,step_norm,alpha\n0,1,1,2,0.5,,\n",
         "malformed trace header"),
        ("k,a,b,c,d,e,g\n0,1,1,0.5,2,,\n", "malformed trace header"),
        ("k,x_1,f,grad_norm,step_norm,alpha\n1,0.5,0.5,1,,\n0,1,1,1,0.5,1\n",
         "row 0: k is '1', expected 0"),
    ], ids=["no-coordinates", "empty-body", "ragged-row", "f-and-grad_norm-swapped",
            "unnamed-columns", "rows-out-of-order"])
    def test_malformed_csv_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace_csv(path)
