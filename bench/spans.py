"""In-memory span tracer that wraps singulim's public functions from outside.

``Tracer.traced`` installs the wrappers, opens a root span for one solve (or
one set-up), and puts the library's own functions back when the solve ends,
so untraced solves run with no wrapper cost at all.

A span records its name, start, end, parent span and the id of the solve it
belongs to.  The hot leaf calls of the line search, ``RationalFunction.eval``
and ``eval_and_grad``, get no span of their own: their calls, time and
domain violations are aggregated on the enclosing span.  A span's self time
is its duration minus its child spans and its aggregated leaf calls.

Every wrapper returns what the wrapped function returned and re-raises what
it raised.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from singulim import descent, homog, limits, polyalg, problems, singan

# Positions in a span record.
ID, PARENT, SOLVE, NAME, START, END, CHILD_TIME, LEAVES, INFO = range(9)


def _optimize_info(trace):
    return {"steps": len(trace.step_norms), "stop": trace.stop_reason}


def _cluster_info(point):
    return {"found": point is not None}


def _probe_info(certificates):
    return {"feasible": sum(c.feasible for c in certificates)}


LEAF_CALLS = (
    ("polyalg.eval", polyalg.RationalFunction, "eval"),
    ("polyalg.eval_and_grad", polyalg.RationalFunction, "eval_and_grad"),
)

# (span name, owner, attributes, function of the result giving span info)
SPAN_CALLS = (
    ("polyalg.mul", polyalg.Polynomial, ("__mul__", "__rmul__"), None),
    ("polyalg.compose_line", polyalg.Polynomial, ("compose_line",), None),
    ("descent.optimize", descent, ("optimize",), _optimize_info),
    ("descent.check_conditions", descent, ("check_conditions",), None),
    ("singan.analyze_singularity", singan, ("analyze_singularity",), None),
    ("singan.taylor_line", singan, ("taylor_line",), None),
    ("limits.find_cluster_point", limits, ("find_cluster_point",), _cluster_info),
    ("limits.direction_trail", limits, ("direction_trail",), None),
    ("limits.lojasiewicz_probe", limits, ("lojasiewicz_probe",), _probe_info),
    ("limits.verify_certificate", limits, ("verify_certificate",), None),
    ("limits.rate_classify", limits, ("rate_classify",), None),
    ("homog.build_cp_objective", homog, ("build_cp_objective",), None),
    ("homog.euler_check", homog, ("euler_check",), None),
    ("problems.load_bundled", problems, ("load_bundled",), None),
)


class Tracer:
    """Collects spans in memory; ``write`` saves them as JSON lines."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = []
        for name, owner, attr in LEAF_CALLS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._leaf(name, original)))
        for name, owner, attrs, info in SPAN_CALLS:
            for attr in attrs:
                original = getattr(owner, attr)
                self._patches.append(
                    (owner, attr, original, self._span(name, original, info))
                )

    @contextmanager
    def traced(self, name: str, solve):
        """Trace the enclosed work as root span ``name`` of solve ``solve``."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            frame = self._open(name, solve)
            try:
                yield
            finally:
                self._close(frame)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _open(self, name, solve=None):
        parent = self._stack[-1] if self._stack else None
        frame = [
            self._next_id,
            parent[ID] if parent else None,
            parent[SOLVE] if parent else solve,
            name, perf_counter(), None, 0.0, {}, None,
        ]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        frame[END] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD_TIME] += frame[END] - frame[START]
        self.spans.append(frame)

    def _span(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if info is not None:
                frame[INFO] = info(result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            failed = 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except polyalg.DomainViolation:
                failed = 1
                raise
            finally:
                elapsed = perf_counter() - start
                entry = self._stack[-1][LEAVES].setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += failed

        return wrapper

    def write(self, path, record: dict) -> None:
        """Write the run record, then one JSON object per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": record}) + "\n")
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "solve": s[SOLVE],
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "leaves": s[LEAVES], "info": s[INFO],
                }) + "\n")


def layer_metrics(spans, counted) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the spans whose solve id satisfies ``counted``.

    Returns metric name -> (value, unit).  Calls and outcomes are counts;
    ``.s`` is time inside a layer's spans, ``.self_s`` that time minus the
    calls it made into other wrapped layers.  The eval and eval_and_grad
    figures leave out the set-up (solve id "setup"), whose first call fills
    the lazy caches, so they give the steady cost of a call.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    leaf_calls = defaultdict(int)
    leaf_time = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        if not counted(s[SOLVE]):
            continue
        name = s[NAME]
        duration = s[END] - s[START]
        calls[name] += 1
        inclusive[name] += duration
        in_leaves = 0.0
        for leaf, (n, t, violations) in s[LEAVES].items():
            in_leaves += t
            if s[SOLVE] == "setup":
                continue
            leaf_calls[leaf] += n
            leaf_time[leaf] += t
            counts["polyalg.domain_violations"] += violations
            if name == "descent.optimize" and leaf == "polyalg.eval":
                counts["trials"] += n
        self_time[name] += duration - s[CHILD_TIME] - in_leaves
        info = s[INFO] or {}
        if name == "descent.optimize":
            counts["descent.accepted_steps"] += info["steps"]
            counts["descent.stop." + info["stop"]] += 1
        elif name == "limits.find_cluster_point":
            counts["limits.clusters_found"] += info["found"]
        elif name == "limits.lojasiewicz_probe":
            counts["limits.feasible_certs"] += info["feasible"]

    out: dict[str, tuple[float, str]] = {}
    for leaf in ("polyalg.eval", "polyalg.eval_and_grad"):
        n, t = leaf_calls[leaf], leaf_time[leaf]
        out[f"{leaf}.calls"] = (n, "count")
        out[f"{leaf}.self_s"] = (t, "s")
        out[f"{leaf}.us_per_call"] = (t / n * 1e6 if n else 0.0, "us")
    out["polyalg.domain_violations"] = (counts["polyalg.domain_violations"], "count")
    for name in ("polyalg.mul", "polyalg.compose_line"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (inclusive[name], "s")
    out["descent.optimize.calls"] = (calls["descent.optimize"], "count")
    out["descent.optimize.self_s"] = (self_time["descent.optimize"], "s")
    steps = counts["descent.accepted_steps"]
    out["descent.accepted_steps"] = (steps, "count")
    out["descent.trials_per_step"] = (
        counts["trials"] / steps if steps else 0.0, "evals/step"
    )
    for stop in (descent.STOP_GRAD_TOL, descent.STOP_F_STATIONARY,
                 descent.STOP_MAX_ITERS, descent.STOP_DOMAIN_VIOLATION):
        out[f"descent.stop.{stop}"] = (counts[f"descent.stop.{stop}"], "count")
    out["descent.check_conditions.s"] = (inclusive["descent.check_conditions"], "s")
    for name in ("singan.analyze_singularity", "singan.taylor_line"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (inclusive[name], "s")
    for name in ("find_cluster_point", "direction_trail", "lojasiewicz_probe",
                 "verify_certificate", "rate_classify"):
        out[f"limits.{name}.s"] = (inclusive[f"limits.{name}"], "s")
    out["limits.clusters_found"] = (counts["limits.clusters_found"], "count")
    out["limits.feasible_certs"] = (counts["limits.feasible_certs"], "count")
    out["homog.build_cp_objective.s"] = (inclusive["homog.build_cp_objective"], "s")
    out["homog.euler_check.calls"] = (calls["homog.euler_check"], "count")
    out["homog.euler_check.s"] = (inclusive["homog.euler_check"], "s")
    out["problems.load_bundled.s"] = (inclusive["problems.load_bundled"], "s")
    return out
