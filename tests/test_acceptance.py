"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line before asserting, so the outcome is visible in the
captured output even when a criterion fails.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from singulim.descent import DescentConfig, check_conditions, optimize, trace_from_points
from singulim.homog import CPModel, build_cp_objective, euler_check
from singulim.limits import (
    DEFAULT_THETA_GRID,
    direction_trail,
    find_cluster_point,
    lojasiewicz_probe,
    rate_classify,
    verify_certificate,
)
from singulim.polyalg import Polynomial, RationalFunction
from singulim.problems import bundled_examples, load_bundled
from singulim.singan import (
    analyze_singularity,
    extend_by_recurrence,
    recurrence_weights,
    series_divide,
    taylor_line,
)

from descent_helpers import criterion_9_objective, power_iteration_sigma1

FIG1_START = (2.0, -0.1)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def fig1():
    return load_bundled("fig1").rational()


@pytest.fixture(scope="module")
def fig1_run(fig1):
    """Full default-configuration run from the reference start point."""
    t0 = time.perf_counter()
    trace = optimize(fig1, FIG1_START, DescentConfig())
    return trace, time.perf_counter() - t0


def test_criterion_01_reference_run_reaches_origin(fig1_run):
    trace, elapsed = fig1_run
    final = trace.iterates[-1]
    norm = math.hypot(*final)
    f_err = abs(trace.f_values[-1] - (-0.5))
    iters = len(trace) - 1
    ok = norm < 1e-6 and f_err < 1e-4 and iters <= 100_000 and elapsed < 10.0
    _report(1, ok, f"|x|={norm:.3e} (need <1e-6), |f+1/2|={f_err:.3e} "
                   f"(need <1e-4), iters={iters}, {elapsed:.1f}s")
    assert f_err < 1e-4
    assert iters <= 100_000
    assert elapsed < 10.0
    assert norm < 1e-6


def test_fig1_starts_reach_the_origin_in_300_steps(fig1):
    """100 fourth-quadrant fig1 starts, 300 steps each: at least 70 end at
    the essential singularity, by criterion 1's tolerances.  Alternating
    the long and short two-point steps gets there; the long step alone
    reaches 28."""
    rng = random.Random(71)
    reached = 0
    for _ in range(100):
        x0 = (rng.uniform(0.2, 3.0), rng.uniform(-3.0, -0.02))
        trace = optimize(fig1, x0, DescentConfig(max_iters=300))
        norm = math.hypot(*trace.iterates[-1])
        reached += norm < 1e-6 and abs(trace.f_values[-1] + 0.5) < 1e-4
    print(f"fig1 starts reaching the origin in 300 steps: {reached} of 100 (need >=70)")
    assert reached >= 70


def test_criterion_02_safe_set_computation(fig1):
    pencil = analyze_singularity(fig1, (0, 0))
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    residual = pencil.leading - (x * x + y * y).scale(1)
    ok = pencil.n_min == 2 and residual.is_zero()
    _report(2, ok, f"n_min={pencil.n_min}, leading pencil equals x^2+y^2: "
                   f"{residual.is_zero()}")
    assert pencil.n_min == 2
    assert residual.is_zero()


def test_criterion_03_condition_certification(fig1, fig1_run):
    trace, _ = fig1_run
    tail = len(trace) // 2
    report = check_conditions(trace, tail)
    pencil = analyze_singularity(fig1, (0, 0))
    trail = direction_trail(trace, pencil, tail_start=tail)
    ok = (report.sigma_hat is not None and report.sigma_hat >= 0.1
          and report.kappa_hat > 0 and report.a2_violations == 0
          and abs(trail.min_tail_pencil - 1.0) <= 1e-9)
    _report(3, ok, f"sigma_hat={report.sigma_hat:.5f}, kappa_hat="
                   f"{report.kappa_hat:.3e}, a2={report.a2_violations}, "
                   f"min_tail_pencil={trail.min_tail_pencil:.12f}")
    assert report.sigma_hat >= 0.1
    assert report.kappa_hat > 0
    assert report.a2_violations == 0
    assert abs(trail.min_tail_pencil - 1.0) <= 1e-9


def test_criterion_04_lojasiewicz_certificate(fig1_run):
    trace, _ = fig1_run
    tail = len(trace) // 2
    certs = lojasiewicz_probe(trace, tail, DEFAULT_THETA_GRID)
    feasible = [c for c in certs if c.feasible]
    violations = [verify_certificate(trace, c) for c in feasible]
    ok = bool(feasible) and all(v == 0 for v in violations)
    _report(4, ok, f"{len(feasible)}/{len(certs)} feasible thetas, "
                   f"violations={sum(violations)}")
    assert feasible
    assert all(v == 0 for v in violations)


def test_criterion_05_counterexample_detection():
    f = load_bundled("counterex").rational()
    points = [
        ((2.0 ** -k, 0.0) if k % 2 == 0 else (0.0, 2.0 ** -k))
        for k in range(12)
    ]
    trace = trace_from_points(f, points)
    certs = lojasiewicz_probe(trace, 0, DEFAULT_THETA_GRID)
    ok = all(not c.feasible for c in certs)
    _report(5, ok, f"infeasible for all {len(certs)} thetas: {ok}")
    assert ok


def _random_univariate_lines(seed=29, count=20):
    rng = random.Random(seed)
    lines = []
    t = Polynomial.variable(1, 0)
    for _ in range(count):
        numer = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        denom = [Fraction(rng.randint(1, 9))] + [
            Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))
        ]
        lines.append((numer, denom))
    return lines


def test_criterion_06_recurrence_equals_division():
    mismatches = 0
    for numer, denom in _random_univariate_lines():
        divided = series_divide(numer, denom, 51)
        weights = recurrence_weights(denom)
        seed_len = max(len(numer), len(denom))
        recurred = extend_by_recurrence(divided[:seed_len], weights, 51)
        if divided != recurred:
            mismatches += 1
    ok = mismatches == 0
    _report(6, ok, f"20 random rational series, exact mismatches={mismatches}")
    assert mismatches == 0


def test_criterion_07_radius_bound_tails():
    worst = 0.0
    for numer, denom in _random_univariate_lines():
        build = lambda cs: sum(
            (Polynomial.constant(1, c) * Polynomial.variable(1, 0) ** k
             for k, c in enumerate(cs)),
            Polynomial.zero(1),
        )
        f = RationalFunction(build(numer), build(denom))
        line = taylor_line(f, (0,), (1,), n_terms=64)
        t = line.radius_lower_bound / 2.0
        tail = sum(abs(c) * t ** n for n, c in enumerate(line.coeffs) if n >= 48)
        worst = max(worst, tail)
    ok = worst < 1e-9
    _report(7, ok, f"worst partial-sum tail at bound/2: {worst:.3e} (need <1e-9)")
    assert worst < 1e-9


def test_criterion_08_normalization_bound_mass_test():
    from singulim.homog import normalization_bound_check, normalize

    rng = random.Random(41)
    violations = 0
    for _ in range(100_000):
        dim = rng.randint(2, 10)
        u = normalize([rng.gauss(0.0, 1.0) for _ in range(dim)])
        v = [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-3, 3) for _ in range(dim)]
        if all(x == 0.0 for x in v):
            continue
        lhs, rhs = normalization_bound_check(u, v)
        if lhs > rhs + 1e-12:
            violations += 1
    ok = violations == 0
    _report(8, ok, f"100000 random pairs, violations={violations}")
    assert violations == 0


def test_criterion_09_homogeneity_and_euler_suite():
    rng, obj = criterion_9_objective()
    model = obj.model
    homog_failures = 0
    euler_failures = 0
    for _ in range(1000):
        x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
        c = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        fx = obj.eval(x)
        if abs(obj.eval([c * v for v in x]) - fx) > 1e-10 * (1 + abs(fx)):
            homog_failures += 1
        radial = euler_check(obj, x)
        _, grad = obj.eval_and_grad(x)
        gnorm = math.sqrt(math.fsum(g * g for g in grad))
        xnorm = math.sqrt(math.fsum(v * v for v in x))
        if abs(radial) > 1e-8 * (1 + gnorm * xnorm):
            euler_failures += 1
    ok = homog_failures == 0 and euler_failures == 0
    _report(9, ok, f"1000 samples: homogeneity failures={homog_failures}, "
                   f"Euler failures={euler_failures}")
    assert homog_failures == 0
    assert euler_failures == 0


# Relative bound on criterion 9's f_hat against exact arithmetic (below).
CP_ACCURACY_TOL = 2e-13


def test_criterion_09_float_value_and_gradient_match_exact():
    """eval_and_grad of criterion 9's f_hat against eval_exact_and_grad at
    300 seeded points: value errors relative to |f_hat|, gradient errors
    (largest entry) relative to the exact gradient's largest entry.

    Two thirds of the points are Gaussian.  The rest lie within about 1e-6
    of the singular cone tau = 0: the second rank-1 term is (-a, b, c + d)
    for the first's (a, b, c), so tau = -a (x) b (x) d, with entries of
    a, b, c multiples of 2^-5 up to 2 and of d multiples of 2^-26 up to
    64 * 2^-26 < 1e-6.
    Each entry of tau is then exact in float, and the error measured is
    that of the levels after tau.  (With Gaussian coordinates 1e-6 apart,
    rounding in the cancelling entries of tau alone costs about 1e-10 in
    the value and 6e-9 in the gradient.)
    """
    obj = criterion_9_objective()[1]
    model = obj.model
    rng = random.Random(2026)

    def dyadic(k):
        return rng.choice([-1, 1]) * rng.randint(1, 64) * 2.0 ** -k

    worst_value = worst_grad = Fraction(0)
    for j in range(300):
        if j % 3:
            x = [rng.gauss(0.0, 1.0) for _ in range(model.n_params)]
        else:
            a, b, c = ([dyadic(5) for _ in range(2)] for _ in range(3))
            d = [dyadic(26) for _ in range(2)]
            x = a + b + c + [-v for v in a] + b + [v + e for v, e in zip(c, d)]
            assert 0 < np.abs(model.tau(x)).max() <= 4 * 64 * 2.0 ** -26
        value, grad = obj.eval_and_grad(x)
        exact, exact_grad = obj.f_hat.eval_exact_and_grad(x)
        worst_value = max(worst_value, abs(Fraction(value) - exact) / abs(exact))
        top = max(map(abs, exact_grad))
        worst_grad = max(worst_grad, max(
            abs(Fraction(g) - e) for g, e in zip(grad, exact_grad)) / top)
    ok = max(worst_value, worst_grad) <= CP_ACCURACY_TOL
    _report(9, ok, f"300 samples against exact: value error {float(worst_value):.2e}, "
                   f"gradient error {float(worst_grad):.2e} (bound {CP_ACCURACY_TOL:g})")
    assert worst_value <= CP_ACCURACY_TOL
    assert worst_grad <= CP_ACCURACY_TOL


def test_criterion_10_rank1_matrix_oracle():
    rng = random.Random(47)
    worst = 0.0
    for _ in range(10):
        target = [[rng.uniform(-2.0, 2.0) for _ in range(2)] for _ in range(2)]
        model = CPModel((2, 2), 1)
        obj = build_cp_objective(model, target)
        x0 = [rng.gauss(0.0, 1.0) for _ in range(4)]
        trace = optimize(obj.f_hat, x0, DescentConfig(max_iters=20_000))
        expected = obj.target_norm_sq - power_iteration_sigma1(target) ** 2
        worst = max(worst, abs(trace.f_values[-1] - expected))
    ok = worst <= 1e-6
    _report(10, ok, f"10 random 2x2 targets, worst |min - (||T||^2 - s1^2)| = "
                    f"{worst:.3e} (need <=1e-6)")
    assert worst <= 1e-6


def test_criterion_11_rate_classifier(fig1_run):
    t = Polynomial.variable(1, 0)
    f = RationalFunction(t * t, Polynomial.constant(1, 1))

    geometric = trace_from_points(f, [(0.8 ** k,) for k in range(40)])
    est_geo = rate_classify(geometric, (0.0,), 0)
    geo_ok = est_geo.regime == "linear" and abs(est_geo.q - 0.8) <= 1e-6

    power = trace_from_points(
        f, [(1.0,)] + [(float(k) ** -2,) for k in range(1, 60)])
    est_pow = rate_classify(power, (0.0,), 1)
    pow_ok = (est_pow.regime == "sublinear"
              and abs(est_pow.p - 2.0) <= 1e-6
              and abs(est_pow.theta_from_p - 0.4) <= 1e-6)

    rng = random.Random(53)
    noisy = trace_from_points(
        f, [(0.8 ** k * (1 + rng.uniform(-0.01, 0.01)),) for k in range(60)])
    est_noisy = rate_classify(noisy, (0.0,), 0)
    noisy_ok = (est_noisy.regime == "linear"
                and abs(est_noisy.q - 0.8) <= 0.05 * 0.8)

    trace, _ = fig1_run
    est_run = rate_classify(trace, (0.0, 0.0), len(trace) // 2)

    ok = geo_ok and pow_ok and noisy_ok
    _report(11, ok, f"q={est_geo.q:.8f}, p={est_pow.p:.8f}, "
                    f"noisy q={est_noisy.q:.4f}; reference-run regime: "
                    f"{est_run.regime}")
    assert geo_ok
    assert pow_ok
    assert noisy_ok


def test_criterion_12_multi_singularity_non_cycling():
    problem = load_bundled("multi3")
    f = problem.rational()
    centers = [tuple(float(c) for c in p) for p in problem.singular_points]
    rng = random.Random(59)
    # Iteration cap chosen for desk runtime; the trailing-window behavior
    # near a singular center is iteration-count independent once the
    # approach stalls, so the cap does not change any verdict below.
    cfg = DescentConfig(max_iters=2500)
    bad_cluster = 0
    cycling = 0
    for _ in range(20):
        x0 = (rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0))
        trace = optimize(f, x0, cfg)
        cluster = find_cluster_point(trace)
        if cluster is None:
            bad_cluster += 1
        else:
            at_singular = any(math.dist(cluster, c) <= 1e-6 for c in centers)
            _, grad = f.eval_and_grad(cluster) if not at_singular else (0, [0.0])
            regular_stationary = (not at_singular
                                  and math.hypot(*grad) <= 1e-6)
            if not (at_singular or regular_stationary):
                bad_cluster += 1
        # Non-cycling: after first entering a 0.5-neighborhood of a singular
        # point, the trace never enters a different singular neighborhood.
        visited = None
        for point in trace.iterates:
            for idx, c in enumerate(centers):
                if math.dist(point, c) <= 0.5:
                    if visited is None:
                        visited = idx
                    elif visited != idx:
                        cycling += 1
                        visited = idx
    ok = bad_cluster == 0 and cycling == 0
    _report(12, ok, f"20 starts: runs without a detected singular/stationary "
                    f"cluster point={bad_cluster}, neighborhood switches="
                    f"{cycling}")
    assert cycling == 0
    assert bad_cluster == 0


def test_criterion_13_gradient_vs_finite_differences():
    rng = random.Random(61)
    h = 1e-6
    worst = 0.0
    for name, problem in bundled_examples().items():
        f = problem.rational()
        n = problem.n_vars
        centers = [tuple(float(c) for c in p) for p in problem.singular_points]
        checked = 0
        while checked < 100:
            x = tuple(rng.uniform(-3.0, 3.0) for _ in range(n))
            # Well-conditioned: away from singular points, with a gradient
            # large enough that finite-difference roundoff is negligible.
            if any(math.dist(x, c) < 0.5 for c in centers):
                continue
            value, grad = f.eval_and_grad(x)
            gnorm = math.sqrt(math.fsum(g * g for g in grad))
            if gnorm < 1e-3:
                continue
            checked += 1
            for i in range(n):
                step = [0.0] * n
                step[i] = h
                plus = f.eval(tuple(a + b for a, b in zip(x, step)))
                minus = f.eval(tuple(a - b for a, b in zip(x, step)))
                fd = (plus - minus) / (2 * h)
                worst = max(worst, abs(grad[i] - fd) / gnorm)
    ok = worst <= 1e-6
    _report(13, ok, f"worst relative gradient error: {worst:.3e} (need <=1e-6)")
    assert worst <= 1e-6
