"""The benchmark's three seeded workloads.

Each workload turns a seed into its inputs before any timing starts, sets the
library up, runs one timed solve (or sample) per input, and then checks the
outputs of that solve outside the timed region.  The library is only ever
called through module attributes (``descent.optimize``, not a name imported
from it), so the traced run can swap those attributes for recording wrappers.

A descent solve is one ``optimize`` call followed by the diagnostic pass of
``singulim diagnose``: condition report, cluster point, line pencil at the
nearest declared singular point, direction trail, Lojasiewicz certificates
with their verification, rate classification, and the Taylor line along the
final unit approach direction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from singulim import descent, homog, limits, problems, singan

# singulim diagnose's default --tail-fraction.
TAIL_FRACTION = 0.5
# Inputs drawn per run; a run that gets through all of them starts over.
N_INPUTS = 4000
# Descent starts are stratified over a GRID x GRID split of their box.
GRID = 5
# Final iterates (or sample points) on which eval is compared with eval_exact.
EXACT_GAP_POINTS = 20

# Criterion 1's accuracy for fig1 and criterion 12's cluster tolerances.
FIG1_NORM_TOL = 1e-6
FIG1_F_TOL = 1e-4
MULTI3_AT_CENTRE = 1e-6
MULTI3_STATIONARY = 1e-6
MULTI3_NEIGHBOURHOOD = 0.5
# Criterion 9's tolerances.
HOMOG_TOL = 1e-10
EULER_TOL = 1e-8


@dataclass(frozen=True)
class Outcome:
    """What the checks made of one solve.

    fingerprint holds the solve's outputs as plain values; two runs at one
    seed, and the traced and untraced solve of one input, must agree on it.
    reached is None where the workload states no accuracy target.
    """

    fingerprint: tuple
    failures: tuple[str, ...]
    reached: bool | None


@dataclass
class Diagnosis:
    """A descent trace with the results of its diagnostic pass."""

    trace: descent.DescentTrace
    conditions: descent.ConditionReport
    cluster: tuple[float, ...] | None
    centre: tuple[Fraction, ...]
    min_tail_pencil: float
    certificates: list
    violations: list[int]
    rate: limits.RateEstimate
    line: singan.TaylorLine


def stratified_starts(rng, lo, hi, n):
    """n start points, each uniform on the box [lo, hi].

    Every run of GRID**2 consecutive points has one point in each cell of the
    grid, in a shuffled order, so a run's mix of starts, and with it the
    mean cost of a solve, varies little from seed to seed.
    """
    cells = [(i, j) for i in range(GRID) for j in range(GRID)]
    points = []
    while len(points) < n:
        rng.shuffle(cells)
        for cell in cells:
            points.append(tuple(
                a + (k + rng.random()) * (b - a) / GRID
                for a, b, k in zip(lo, hi, cell)
            ))
    return points[:n]


def _nearest(point, centres):
    return min(centres, key=lambda c: math.dist(point, [float(v) for v in c]))


class DescentWorkload:
    """Seeded starts on a bundled problem, each solved up to an iteration cap."""

    counted_solves = 100
    # Set-ups per run; setup_s is their median.
    setup_repeats = 25

    def __init__(self, name, problem, max_iters, box, first_start=None):
        self.name = name
        self.problem = problem
        self.config = descent.DescentConfig(max_iters=max_iters)
        self._box = box
        self._first_start = first_start

    def inputs(self, seed: int) -> list[tuple[float, ...]]:
        rng = random.Random(f"{self.name}:{seed}")
        starts = stratified_starts(rng, *self._box, N_INPUTS)
        if self._first_start is not None:
            starts[0] = self._first_start
        return starts

    def setup(self, inputs):
        problem = problems.load_bundled(self.problem)
        f = problem.rational()
        f.eval_and_grad(inputs[0])  # fills the lazy gradient and power caches
        return problem, f

    def solve(self, ctx, x0) -> Diagnosis:
        problem, f = ctx
        trace = descent.optimize(f, x0, self.config)
        tail = min(int(len(trace) * TAIL_FRACTION), len(trace.step_norms) - 1)
        conditions = descent.check_conditions(trace, tail)
        cluster = limits.find_cluster_point(trace)
        final = trace.iterates[-1]
        centre = _nearest(final, problem.singular_points)
        centre_f = [float(v) for v in centre]
        pencil = singan.analyze_singularity(f, centre)
        trail = limits.direction_trail(trace, pencil)
        certificates = limits.lojasiewicz_probe(trace, tail)
        violations = [
            limits.verify_certificate(trace, c) for c in certificates if c.feasible
        ]
        rate = limits.rate_classify(trace, centre_f, tail)
        delta = [a - b for a, b in zip(final, centre_f)]
        norm = math.hypot(*delta)
        line = singan.taylor_line(
            f, centre, tuple(d / norm for d in delta), pencil=pencil
        )
        return Diagnosis(trace, conditions, cluster, centre, trail.min_tail_pencil,
                         certificates, violations, rate, line)

    def check(self, ctx, diag: Diagnosis) -> Outcome:
        trace = diag.trace
        failures = []
        if len(trace.step_norms) < 1:
            failures.append(f"no accepted step (stop: {trace.stop_reason})")
        if any(b >= a for a, b in zip(trace.f_values, trace.f_values[1:])):
            failures.append("f is not strictly decreasing")
        whole = descent.check_conditions(trace, 0)
        if whole.sigma_hat is None or whole.sigma_hat < self.config.sigma_armijo:
            failures.append(f"sigma_hat {whole.sigma_hat} < sigma_armijo")
        if whole.a2_violations:
            failures.append(f"{whole.a2_violations} zero-progress steps")
        if any(diag.violations):
            failures.append(f"certificate violations {diag.violations}")
        fingerprint = (
            trace.iterates[-1], trace.f_values[-1], trace.stop_reason,
            len(trace.step_norms), diag.conditions.sigma_hat, diag.cluster,
            diag.centre, diag.min_tail_pencil,
            tuple((c.theta, c.c, c.feasible) for c in diag.certificates),
            tuple(diag.violations), diag.rate.regime, diag.rate.q, diag.rate.p,
            diag.line.coeffs[:8], diag.line.radius_lower_bound,
        )
        return Outcome(fingerprint, tuple(failures), self.reached(ctx, diag))

    def reached(self, ctx, diag: Diagnosis) -> bool:
        raise NotImplementedError

    def function(self, ctx):
        return ctx[1]

    def final_point(self, diag: Diagnosis):
        return diag.trace.iterates[-1]


class Fig1Descent(DescentWorkload):
    def __init__(self):
        super().__init__(
            "fig1_descent", "fig1", max_iters=300,
            box=((0.2, -3.0), (3.0, -0.02)),
            first_start=(2.0, -0.1),
        )

    def reached(self, ctx, diag):
        """Criterion 1: ||x|| < 1e-6 and |f + 1/2| < 1e-4."""
        final = diag.trace.iterates[-1]
        return (math.hypot(*final) < FIG1_NORM_TOL
                and abs(diag.trace.f_values[-1] + 0.5) < FIG1_F_TOL)


class Multi3Sweep(DescentWorkload):
    def __init__(self):
        super().__init__(
            "multi3_sweep", "multi3", max_iters=200,
            box=((-1.0, -1.0), (4.0, 4.0)),
        )

    def reached(self, ctx, diag):
        """Criterion 12: a singular or stationary cluster, no neighbourhood switch."""
        problem, f = ctx
        centres = [tuple(float(v) for v in c) for c in problem.singular_points]
        cluster = diag.cluster
        if cluster is None:
            return False
        if not any(math.dist(cluster, c) <= MULTI3_AT_CENTRE for c in centres):
            _, grad = f.eval_and_grad(cluster)
            if math.hypot(*grad) > MULTI3_STATIONARY:
                return False
        visited = None
        for point in diag.trace.iterates:
            for idx, c in enumerate(centres):
                if math.dist(point, c) <= MULTI3_NEIGHBOURHOOD:
                    if visited is not None and visited != idx:
                        return False
                    visited = idx
        return True


class CPHomog:
    """Criterion 9's homogeneity and Euler checks on the (2,2,2) rank-2 f_hat.

    The target is drawn from a normal distribution rather than from small
    integers: a generic target gives the same 1 865 numerator terms for every
    seed, so the cost of one sample does not depend on the seed.
    """

    name = "cp_homog"
    counted_solves = 100
    setup_repeats = 5
    model = homog.CPModel((2, 2, 2), 2)

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        target = [[[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)]
                  for _ in range(2)]
        samples = []
        for _ in range(N_INPUTS):
            x = tuple(rng.gauss(0.0, 1.0) for _ in range(self.model.n_params))
            c = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
            samples.append((target, x, c))
        return samples

    def setup(self, inputs):
        target, x, _ = inputs[0]
        obj = homog.build_cp_objective(self.model, target)
        obj.eval_and_grad(x)  # fills the lazy gradient and power caches
        return obj

    def solve(self, obj, sample):
        _, x, c = sample
        fx = obj.eval(x)
        fcx = obj.eval([c * v for v in x])
        radial = homog.euler_check(obj, x)
        _, grad = obj.eval_and_grad(x)
        return x, fx, fcx, radial, tuple(grad)

    def check(self, obj, result) -> Outcome:
        x, fx, fcx, radial, grad = result
        failures = []
        if abs(fcx - fx) > HOMOG_TOL * (1 + abs(fx)):
            failures.append(f"homogeneity: |f(cx) - f(x)| = {abs(fcx - fx):.3e}")
        gnorm = math.sqrt(math.fsum(g * g for g in grad))
        xnorm = math.sqrt(math.fsum(v * v for v in x))
        if abs(radial) > EULER_TOL * (1 + gnorm * xnorm):
            failures.append(f"Euler: |<grad f, x>| = {abs(radial):.3e}")
        return Outcome((fx, fcx, radial, grad), tuple(failures), None)

    def function(self, obj):
        return obj.f_hat

    def final_point(self, result):
        return result[0]


def exact_gap(f, points) -> float:
    """Largest relative difference between eval and eval_exact at points."""
    worst = Fraction(0)
    for point in points:
        exact = f.eval_exact(point)
        diff = abs(Fraction(f.eval(point)) - exact)
        worst = max(worst, diff / abs(exact) if exact else diff)
    return float(worst)


WORKLOADS = {w.name: w for w in (Fig1Descent(), Multi3Sweep(), CPHomog())}
