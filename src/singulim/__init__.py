"""Optimization and convergence diagnostics for bounded rational objectives
with essential singularities."""

from .polyalg import (
    DimensionError,
    DomainViolation,
    Polynomial,
    RationalFunction,
)
from .singan import (
    DirectionVerdict,
    LinePencil,
    TaylorLine,
    UnboundedFunctionError,
    UnsafeDirectionError,
    analyze_singularity,
    direction_verdict,
    taylor_line,
)
from .descent import (
    ConditionReport,
    DescentConfig,
    DescentTrace,
    check_conditions,
    optimize,
    trace_from_points,
)
from .limits import (
    DirectionTrail,
    LojasiewiczCertificate,
    RateEstimate,
    direction_trail,
    find_cluster_point,
    lojasiewicz_probe,
    rate_classify,
)
from .homog import (
    CPModel,
    HomogenizedObjective,
    build_cp_objective,
    euler_check,
    normalization_bound_check,
    normalize,
    normalized_a1_check,
)
from .problems import (
    ProblemFile,
    bundled_examples,
    load_bundled,
    load_problem,
    save_problem,
)

__version__ = "0.1.0"
