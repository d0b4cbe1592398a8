"""Reference paths for the Armijo descent, and the objectives and helpers
that several test modules share.

line_search and step_loop are the descent as plain Python loops over an
objective's eval and eval_and_grad: the reference that RationalFunction.descend
must reproduce bit for bit.  search runs exactly one search through
f.descend, and reference_search the same search through line_search.
looped gives a copy of f whose charts evaluate by their term loops, so the
reference paths over it never run generated code.
"""

import copy
import functools
import math
import random

import numpy as np

from singulim.descent import (
    MAX_BACKTRACKS,
    STOP_DOMAIN_VIOLATION,
    DescentConfig,
    DescentTrace,
    _norm,
)
from singulim.homog import CPModel, build_cp_objective
from singulim.polyalg import (
    STOP_F_STATIONARY,
    STOP_GRAD_TOL,
    STOP_MAX_ITERS,
    DomainViolation,
    Polynomial,
    RationalFunction,
    check_finite_point,
)

# sigma and factor as optimize passes them by default.
SIGMA, FACTOR = DescentConfig().sigma_armijo, DescentConfig().backtrack_factor


def line_search(
    evaluate, x, fx, grad, g_sq, alpha, sigma, factor, max_trials, stop_at_x=True
):
    """The Armijo search as a Python loop over an objective's eval: (trial,
    f_trial, alpha) for the first trial with an exact Armijo decrease, or
    None after max_trials trials or, with stop_at_x, at a trial that rounds
    back to x."""
    for _ in range(max_trials):
        trial = tuple([xi - alpha * gi for xi, gi in zip(x, grad)])
        if stop_at_x and trial == x:
            return None
        try:
            f_trial = evaluate(trial)
        except (DomainViolation, OverflowError):
            alpha *= factor
            continue
        required = sigma * alpha * g_sq
        if math.isfinite(f_trial) and fx - f_trial >= required > 0.0:
            return trial, f_trial, alpha
        alpha *= factor
    return None


# line_search without its early exit at a trial equal to x.
full_ladder = functools.partial(line_search, stop_at_x=False)


def step_loop(f, x0, cfg, ladder=line_search, evaluate=None):
    """The trace of optimize(f, x0, cfg) from a Python loop over the steps.

    Each search is ladder over evaluate (f.eval unless given), retried once
    from initial_step where it started below it, and the accepted trial's
    gradient is eval_and_grad's there; the step sums are the fsums of the
    products that optimize's loop forms.
    """
    evaluate = f.eval if evaluate is None else evaluate
    x = check_finite_point(x0)
    try:
        fx, grad = f.eval_and_grad(x)
    except DomainViolation:
        return DescentTrace.from_rows([(x,)], STOP_DOMAIN_VIOLATION)
    gnorm = _norm(grad)
    rows = [(x, fx, gnorm)]
    stop_reason = STOP_MAX_ITERS
    sigma, factor, initial_step = cfg.sigma_armijo, cfg.backtrack_factor, cfg.initial_step
    first_step = initial_step
    for _ in range(cfg.max_iters):
        if gnorm <= cfg.grad_tol:
            stop_reason = STOP_GRAD_TOL
            break
        g_sq = gnorm * gnorm
        accepted = ladder(evaluate, x, fx, grad, g_sq, first_step, sigma, factor,
                          MAX_BACKTRACKS)
        if accepted is None and first_step != initial_step:
            accepted = ladder(evaluate, x, fx, grad, g_sq, initial_step, sigma, factor,
                              MAX_BACKTRACKS)
        if accepted is None:
            stop_reason = STOP_F_STATIONARY
            break
        trial, f_trial, alpha = accepted
        grad_trial = f.eval_and_grad(trial)[1]
        s = [t - a for t, a in zip(trial, x)]
        s_y = math.fsum([d * (h - g) for d, h, g in zip(s, grad_trial, grad)])
        s_s = math.fsum([d * d for d in s])
        two_point = s_s / s_y if s_y > 0.0 else initial_step
        first_step = two_point if two_point < initial_step else initial_step
        x, fx, grad = trial, f_trial, grad_trial
        gnorm = _norm(grad)
        rows.append((x, fx, gnorm, math.sqrt(s_s), alpha))
    return DescentTrace.from_rows(rows, stop_reason)


def search(f, x, fx, grad, gnorm, alpha, max_trials=MAX_BACKTRACKS):
    """One Armijo search from x through f.descend: (trial, f, alpha, grad f
    at trial), or None where it fails.

    With max_iters = 1 and initial_step = alpha, descend runs exactly one
    search, which is never retried, and grad_tol = -inf stops nothing
    before it; the accepted trial, f and alpha are the one step's row.
    """
    rows = [(x, fx, gnorm)]
    stop, state = f.descend(
        rows, grad, SIGMA, FACTOR, alpha, -math.inf, 1, max_trials
    )
    if stop == STOP_F_STATIONARY:
        assert len(rows) == 1
        return None
    assert stop == STOP_MAX_ITERS and len(rows) == 2
    trial, f_trial, _, _, alpha = rows[1]
    return trial, f_trial, alpha, state[0]


def reference_search(f, x, fx, grad, gnorm, alpha, max_trials=MAX_BACKTRACKS):
    """search's result from line_search over f.eval and f.eval_and_grad at
    the accepted trial."""
    accepted = line_search(
        f.eval, x, fx, grad, gnorm * gnorm, alpha, SIGMA, FACTOR, max_trials
    )
    if accepted is None:
        return None
    return (*accepted, f.eval_and_grad(accepted[0])[1])


def looped(f):
    """A copy of f, with charts of its own and no kept eval_and_grad result
    of f's, whose eval and eval_and_grad run each chart's term loop and
    never generate code."""
    f = copy.copy(f)
    f._charts = [None] * len(f._charts)
    f._last = (None, None, None)
    for j in range(len(f._charts)):
        chart = f._chart_at(j)
        vars(chart)["evaluate"] = chart.loop
    return f


def pinch():
    """xy / ((x^2+y^2)(1+x^2+y^2)): bounded, essential singularity at 0."""
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    r2 = x * x + y * y
    return RationalFunction(x * y, r2 * (1 + r2))


def quadratic_1d():
    """t^2 over 1."""
    t = Polynomial.variable(1, 0)
    return RationalFunction(t * t, Polynomial.constant(1, 1))


def cp_f_hat():
    """f_hat of the (2,2,2) rank-2 CP model on a Gaussian target."""
    rng = random.Random(43)
    target = [[[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)]
              for _ in range(2)]
    return build_cp_objective(CPModel((2, 2, 2), 2), target).f_hat


def criterion_9_objective():
    """(rng, obj): criterion 9's (2,2,2) rank-2 objective on its integer
    target, and the random.Random(43) that drew the target, for the draws
    that follow it."""
    rng = random.Random(43)
    target = np.array(
        [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
         for _ in range(2)], dtype=float)
    target[0, 0, 0] = target[0, 0, 0] or 1.0
    return rng, build_cp_objective(CPModel((2, 2, 2), 2), target)


def power_iteration_sigma1(matrix, iters=500):
    """Largest singular value of a 2-column matrix by power iteration on
    M^T M from (1, 0.7) (oracle)."""
    m = np.asarray(matrix, dtype=float)
    gram = m.T @ m
    v = np.array([1.0, 0.7])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(float(v @ gram @ v))


def float_hex(values):
    """Nested floats as float.hex strings, so equality means equal bits;
    None stays None."""
    if values is None:
        return None
    if isinstance(values, float):
        return values.hex()
    return [float_hex(v) for v in values]
