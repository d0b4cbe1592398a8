"""Problem files, bundled examples, and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulim import __version__, cli
from singulim.cli import main
from singulim.descent import (
    DescentTrace,
    check_conditions,
    read_trace_csv,
    read_trace_meta,
    trace_from_points,
    write_trace_csv,
)
from singulim.limits import CLUSTER_TOL, DEFAULT_THETA_GRID, direction_trail
from singulim.polyalg import DimensionError, Polynomial
from singulim.problems import (
    ProblemFile,
    ProblemFormatError,
    build_bundled,
    bundled_examples,
    load_bundled,
    load_problem,
    poly_from_terms,
    problem_from_json,
    problem_to_json,
    save_problem,
)
from singulim.singan import analyze_singularity


class TestProblemFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        for name, problem in bundled_examples().items():
            p1 = tmp_path / f"{name}_1.problem"
            p2 = tmp_path / f"{name}_2.problem"
            save_problem(problem, p1)
            save_problem(load_problem(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_bundled_files_match_construction(self):
        for name in ("fig1", "multi3", "counterex"):
            shipped = load_bundled(name)
            rebuilt = build_bundled(name)
            assert problem_to_json(shipped) == problem_to_json(rebuilt)

    def test_fig1_numerator_at_ones(self):
        fig1 = load_bundled("fig1")
        assert fig1.numer.eval_float((1.0, 1.0)) == 1.0

    def test_counterex_scripted_sequence(self):
        """Along e1, e2/2, e1/4, ... the function alternates and grad vanishes."""
        f = load_bundled("counterex").rational()
        points = [
            ((2.0 ** -k, 0.0) if k % 2 == 0 else (0.0, 2.0 ** -k))
            for k in range(10)
        ]
        trace = trace_from_points(f, points)
        for k, (value, gnorm) in enumerate(zip(trace.f_values, trace.grad_norms)):
            assert value == pytest.approx((-1.0) ** (k + 1))
            assert gnorm == pytest.approx(0.0, abs=1e-15)

    def test_multi3_pencil_at_shifted_center(self):
        f = load_bundled("multi3").rational()
        pencil = analyze_singularity(f, (3, 0))
        assert pencil.n_min == 2

    @pytest.mark.parametrize("doc, field", [
        ({"numer": [], "denom": []}, "n_vars"),
        ({"n_vars": 2, "denom": []}, "numer"),
        ({"n_vars": 2, "numer": [], "denom": []}, "denom"),
        ({"n_vars": 2, "numer": [{"coeff": "x", "exps": [1, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [1]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [-1, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [0, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]},
                    {"coeff": "1", "exps": [0, -2]}]}, "denom[1]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [1.5, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [1e30, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [1.0, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [True, 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": ["1", 0]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": "10"}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 2, "numer": [], "denom": [{"coeff": "1", "exps": [0, 0]}],
          "singular_points": ["00"]}, "singular_points[0]"),
        ({"n_vars": 1, "numer": [], "denom": [{"coeff": "1", "exps": [0]}],
          "singular_points": "00"}, "singular_points"),
        ({"n_vars": 2.5, "numer": [], "denom": [{"coeff": "1", "exps": [0, 0]}]},
         "n_vars"),
        ({"n_vars": True, "numer": [], "denom": [{"coeff": "1", "exps": [0]}]},
         "n_vars"),
        ({"n_vars": "2", "numer": [], "denom": [{"coeff": "1", "exps": [0, 0]}]},
         "n_vars"),
        ({"n_vars": 1, "numer": [{"coeff": True, "exps": [1]}],
          "denom": [{"coeff": "1", "exps": [0]}]}, "numer[0]"),
        ({"n_vars": 1, "numer": [], "denom": [{"coeff": "1", "exps": [0]}],
          "singular_points": [[False]]}, "singular_points[0]"),
        ({"n_vars": 2, "numer": [{"coeff": "1", "exps": [0, 1001]}],
          "denom": [{"coeff": "1", "exps": [0, 0]}]}, "numer[0]"),
        ({"n_vars": 1, "numer": [{"coeff": "1", "exps": [1000]}],
          "denom": [{"coeff": "1", "exps": [0]},
                    {"coeff": "1", "exps": [20000]}]}, "denom[1]"),
        ({"n_vars": 2, "numer": [], "denom": [{"coeff": "1", "exps": [0, 0]}],
          "singular_points": [[0, 0], [1, 2, 3]]}, "singular_points[1]"),
        ([{"n_vars": 1, "numer": [], "denom": []}], "top level"),
        ({"n_vars": 0, "numer": [], "denom": [{"coeff": "1", "exps": []}]}, "n_vars"),
        ({"n_vars": 1, "numer": {"coeff": "1", "exps": [0]},
          "denom": [{"coeff": "1", "exps": [0]}]}, "numer"),
        ({"n_vars": 1, "numer": [], "denom": [{"coeff": "1", "exps": [0]}],
          "singular_points": [["1e400"]]}, "singular_points[0]"),
    ])
    def test_malformed_documents_name_offending_field(self, doc, field):
        with pytest.raises(ProblemFormatError) as err:
            problem_from_json(json.dumps(doc))
        assert field in str(err.value)

    def test_invalid_json_rejected(self):
        with pytest.raises(ProblemFormatError):
            problem_from_json("{not json", source="bad.problem")

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            load_bundled("missing")

    def test_unknown_bundled_name_not_built(self):
        with pytest.raises(KeyError, match="unknown bundled problem 'nope'"):
            build_bundled("nope")

    def test_n_vars_that_disagrees_with_the_polynomials_is_rejected(self):
        """ProblemFile(3, x, x*x + 1) in two variables would save a file
        that load_problem rejects."""
        x = Polynomial.variable(2, 0)
        with pytest.raises(DimensionError, match="numer in 2 variables, n_vars = 3"):
            ProblemFile(3, x, x * x + 1)

    def test_singular_point_of_another_length_is_rejected(self):
        x = Polynomial.variable(2, 0)
        point = (Fraction(1), Fraction(2), Fraction(3))
        with pytest.raises(DimensionError, match=r"singular_points\[1\] has 3"):
            ProblemFile(2, x, x * x + 1, singular_points=((0, 0), point))


def reference_poly_from_terms(terms, n_vars, field_name):
    """The loader that poly_from_terms replaced: a Fraction per coefficient,
    duplicates summed as Fractions, every term checked again by Polynomial."""
    if not isinstance(terms, list):
        raise ProblemFormatError(f"field {field_name!r} must be a list of terms")
    acc = {}
    for i, term in enumerate(terms):
        try:
            coeff = Fraction(term["coeff"])
            exps = tuple(int(e) for e in term["exps"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ProblemFormatError(f"{field_name}[{i}]: {exc}") from exc
        if len(exps) != n_vars:
            raise ProblemFormatError(
                f"{field_name}[{i}]: exponent tuple {list(exps)} does not have "
                f"n_vars = {n_vars} entries"
            )
        acc[exps] = acc.get(exps, Fraction(0)) + coeff
    return Polynomial(n_vars, acc)


def _loaded(loader, terms, n_vars=2):
    """The terms in order with their value types, or "rejected"."""
    try:
        poly = loader(terms, n_vars, "numer")
    except ProblemFormatError:
        return "rejected"
    assert poly.n_vars == n_vars
    return [(exps, c, type(c)) for exps, c in poly.terms.items()]


_digits = st.integers(-10 ** 25, 10 ** 25)
_spaces = st.sampled_from(["", " ", "\t", " \n"])
_coefficients = st.one_of(
    _digits,
    _digits.map(str),
    st.tuples(_digits, st.integers(-3, 10 ** 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.floats(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(_spaces, _digits.map(str), _spaces).map("".join),
    st.sampled_from(["1", "-1", "1/2", "-1/2", "2/4", "-0.5", "0", "-0", "+3",
                     "1 / 2", "1/", "/2", "-", "--1", "1/-2", "1.2.3", "1e", "x",
                     "", "1_000", "\u0661\u0662", "Infinity", True, False, None, [1]]),
    st.text(max_size=5),
)
_term_lists = st.lists(
    st.fixed_dictionaries({
        "coeff": _coefficients,
        "exps": st.lists(st.integers(0, 2), min_size=2, max_size=2),
    }),
    max_size=12,
)


class TestLoaderAgainstReference:
    """poly_from_terms gives reference_poly_from_terms' terms, in its order and
    with its value types, and rejects exactly the term lists it rejects and
    those with a JSON true or false coefficient, which it read as 1 or 0."""

    @settings(max_examples=400, deadline=None)
    @given(_term_lists)
    def test_term_lists(self, terms):
        expected = _loaded(reference_poly_from_terms, terms)
        if any(type(term["coeff"]) is bool for term in terms):
            expected = "rejected"
        assert _loaded(poly_from_terms, terms) == expected

    @pytest.mark.parametrize("name", ["fig1", "multi3", "counterex"])
    def test_bundled_files(self, name):
        text = resources.files("singulim").joinpath(f"data/{name}.problem").read_text()
        self._check_document(json.loads(text))

    def test_emitted_cp_file(self, workdir):
        target = workdir / "loader.target222.json"
        target.write_text("[[[1, 2], [0, -1]], [[3, 0], [1, 1]]]")
        out_problem = workdir / "loader.cp222.problem"
        assert main([
            "tensor", "--dims", "2,2,2", "--rank", "2",
            "--target", str(target), "--emit-problem", str(out_problem),
        ]) == 0
        self._check_document(json.loads(out_problem.read_text()))

    @staticmethod
    def _check_document(doc):
        for key in ("numer", "denom"):
            loaded = _loaded(poly_from_terms, doc[key], doc["n_vars"])
            assert loaded != "rejected" and loaded
            assert loaded == _loaded(reference_poly_from_terms, doc[key], doc["n_vars"])


def _strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict JSON
    parsers such as jq do."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    assert main(["examples", "--out-dir", str(path)]) == 0
    return path


class TestCli:
    def test_analyze_reports_pencil(self, workdir, capsys):
        code = main([
            "analyze", "--problem", str(workdir / "fig1.problem"),
            "--point", "0,0", "--direction", "1,-1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "n_min: 2" in out
        assert "limit=-0.5" in out

    def test_zero_numerator_is_bounded(self, workdir, capsys):
        """f = 0 over x^2 + y^2: limit 0 along every direction and a zero
        series, not an unbounded function."""
        path = workdir / "zero-numer.problem"
        path.write_text(json.dumps({"n_vars": 2, "numer": [], "denom": [
            {"coeff": "1", "exps": [2, 0]}, {"coeff": "1", "exps": [0, 2]}]}))
        assert main(["analyze", "--problem", str(path), "--point", "0,0",
                     "--direction", "1,0", "--direction", "3,-7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n_min: 2"
        assert lines[2:] == [
            "direction 1,0: safe=True pencil=1 limit=0",
            f"direction 3,-7: safe=True pencil={58 / 49:.17g} limit=0",
        ]
        assert main(["series", "--problem", str(path), "--point", "0,0",
                     "--direction", "1,0", "--n-terms", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-3:] == ["c_0: 0", "c_1: 0", "c_2: 0"]

    def test_analyze_decides_a_huge_direction(self, workdir, capsys):
        """The pencil is evaluated at d/||d||_inf, so f_2(d) = 2e400 does
        not overflow."""
        code = main([
            "analyze", "--problem", str(workdir / "fig1.problem"),
            "--point", "0,0", "--direction", "1e200,1e200",
        ])
        assert code == 0
        assert "safe=True pencil=2 limit=0.5" in capsys.readouterr().out

    def test_analyze_echoes_each_direction_as_typed(self, workdir, capsys):
        """Typed directions are printed as given, not as their exact
        fractions; random ones as their float coordinates."""
        code = main([
            "analyze", "--problem", str(workdir / "fig1.problem"), "--point", "0,0",
            "--direction", "0.1,1", "--direction", "1e20,3",
            "--random-directions", "1",
        ])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("direction ")]
        assert [line.split(":")[0] for line in lines[:2]] == [
            "direction 0.1,1", "direction 1e20,3"
        ]
        coords = lines[2].split(":")[0].removeprefix("direction ").split(",")
        assert len(coords) == 2 and all(v == str(float(v)) for v in coords)

    def test_malformed_seed_fails_before_any_output(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("SINGULIM_SEED", "abc")
        code = main([
            "analyze", "--problem", str(workdir / "fig1.problem"), "--point", "0,0",
            "--random-directions", "1",
        ])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: SINGULIM_SEED: 'abc' is not an integer\n"

    def test_optimize_writes_trace(self, workdir, capsys):
        trace_path = workdir / "fig1.trace.csv"
        code = main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "2,-0.1", "--max-iters", "200",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        trace = read_trace_csv(trace_path)
        assert len(trace) == 201
        assert trace.iterates[0] == (2.0, -0.1)

    def test_optimize_prints_the_norm_of_a_huge_final_iterate(self, workdir, capsys):
        """Coordinates whose squares overflow still have a finite norm."""
        code = main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "1.2e154,1.2e154", "--trace-out", str(workdir / "big.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        norm = float(out.split("final_norm: ")[1].split()[0])
        assert norm == math.hypot(1.2e154, 1.2e154)

    def test_optimize_sidecar_names_config_version_and_problem(self, workdir):
        problem = workdir / "fig1.problem"
        trace_path = workdir / "fig1.meta.trace.csv"
        assert main([
            "optimize", "--problem", str(problem), "--x0", "2,-0.1",
            "--max-iters", "30", "--sigma", "0.2", "--trace-out", str(trace_path),
        ]) == 0
        assert read_trace_meta(trace_path) == {
            "stop_reason": read_trace_csv(trace_path).stop_reason,
            "config": {"sigma_armijo": 0.2, "backtrack_factor": 0.5,
                       "initial_step": 1.0, "max_iters": 30, "grad_tol": 1e-12},
            "singulim_version": __version__,
            "problem_sha256": hashlib.sha256(problem.read_bytes()).hexdigest(),
        }

    def test_diagnose_round_trips_conditions(self, workdir):
        trace_path = workdir / "fig1.conditions.trace.csv"
        report_path = workdir / "fig1.report.json"
        assert main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "2,-0.1", "--max-iters", "200", "--trace-out", str(trace_path),
        ]) == 0
        code = main([
            "diagnose", "--trace", str(trace_path),
            "--problem", str(workdir / "fig1.problem"),
            "--x-star", "0,0", "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        trace = read_trace_csv(trace_path)
        tail = len(trace) // 2
        expected = check_conditions(trace, tail)
        assert report["conditions"]["sigma_hat"] == expected.sigma_hat
        assert report["conditions"]["kappa_hat"] == expected.kappa_hat
        assert report["direction_trail"]["safe_approach"] is True

    def test_diagnose_reports_the_runs_stop_reason(self, workdir, capsys):
        problem = str(workdir / "counterex.problem")
        trace_path = workdir / "counterex.trace.csv"
        assert main(["optimize", "--problem", problem, "--x0", "1,0.5",
                     "--trace-out", str(trace_path)]) == 0
        printed = capsys.readouterr().out.split("stop_reason: ")[1].split()[0]
        assert printed != "max_iters"  # the reader's fallback
        assert main(["diagnose", "--trace", str(trace_path),
                     "--problem", problem]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stop_reason"] == printed

    def test_diagnose_verifies_certificates_and_names_the_cluster_spread(
        self, workdir, capsys
    ):
        """Criterion 1's reference run: fig1 from (2, -0.1), default cap."""
        problem = str(workdir / "fig1.problem")
        trace_path = workdir / "fig1.reference.trace.csv"
        assert main(["optimize", "--problem", problem, "--x0", "2,-0.1",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--trace", str(trace_path), "--problem", problem]) == 0
        report = json.loads(capsys.readouterr().out)
        certificates = report["certificates"]
        assert len(certificates) == len(DEFAULT_THETA_GRID)
        assert all(c["feasible"] and c["violations"] == 0 for c in certificates)
        # The run ends short of the cluster tolerance: the report says by how much.
        assert report["cluster_point"] is None
        assert report["cluster_tol"] == CLUSTER_TOL
        assert report["cluster_spread"] == pytest.approx(3.745e-4, rel=1e-3)

    def test_diagnose_gives_infeasible_certificates_no_violation_count(
        self, workdir, capsys
    ):
        """(y^2 - x^2)/(x^2 + y^2) at critical points e1, e2/2, e1/4, ...:
        zero gradients beside nonzero residuals make every certificate
        infeasible."""
        from singulim.problems import ProblemFile

        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        f_problem = ProblemFile(2, y * y - x * x, x * x + y * y, name="axes")
        problem = workdir / "axes.problem"
        save_problem(f_problem, problem)
        points = [(2.0 ** -k, 0.0) if k % 2 == 0 else (0.0, 2.0 ** -k) for k in range(12)]
        trace_path = workdir / "axes.trace.csv"
        write_trace_csv(trace_from_points(f_problem.rational(), points), trace_path)
        assert main(["diagnose", "--trace", str(trace_path),
                     "--problem", str(problem)]) == 0
        certificates = _strict_loads(capsys.readouterr().out)["certificates"]
        assert certificates
        assert all(not c["feasible"] and c["violations"] is None for c in certificates)
        assert all(c["c"] == "inf" for c in certificates)

    def test_diagnose_certifies_nothing_across_a_nan_gradient_norm(
        self, workdir, capsys
    ):
        """A 200-step fig1 run with one tail ||grad|| set to nan (k = 148):
        no certificate is feasible with 0 violations, since the inequality
        was never checked there."""
        problem = str(workdir / "fig1.problem")
        trace_path = workdir / "fig1.200.trace.csv"
        assert main(["optimize", "--problem", problem, "--x0", "2,-0.1",
                     "--max-iters", "200", "--trace-out", str(trace_path)]) == 0
        rows = [line.split(",") for line in trace_path.read_text().splitlines()]
        assert rows[0][4] == "grad_norm" and rows[149][0] == "148"
        rows[149][4] = "nan"
        holed = workdir / "fig1.nan.trace.csv"
        holed.write_text("".join(",".join(r) + "\n" for r in rows))
        (workdir / "fig1.nan.trace.csv.meta.json").write_bytes(
            (workdir / "fig1.200.trace.csv.meta.json").read_bytes()
        )
        capsys.readouterr()
        assert main(["diagnose", "--trace", str(holed), "--problem", problem,
                     "--x-star", "0,0"]) == 0
        certificates = json.loads(capsys.readouterr().out)["certificates"]
        assert len(certificates) == len(DEFAULT_THETA_GRID)
        assert all(not c["feasible"] and c["violations"] is None for c in certificates)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_diagnose_reads_a_non_finite_iterate(self, workdir, capsys, value):
        """A 200-step fig1 run with x_1 of row 200 (k = 198) set to nan or
        inf: no cluster point, an inconclusive rate that names the distance,
        exit 0 and nothing on stderr (numpy warnings are errors here).  The
        report is strict JSON, with the NaN window spread as "nan"."""
        problem = str(workdir / "fig1.problem")
        trace_path = workdir / "fig1.200.trace.csv"
        assert main(["optimize", "--problem", problem, "--x0", "2,-0.1",
                     "--max-iters", "200", "--trace-out", str(trace_path)]) == 0
        rows = [line.split(",") for line in trace_path.read_text().splitlines()]
        assert rows[0][1] == "x_1" and rows[199][0] == "198"
        rows[199][1] = value
        holed = workdir / f"fig1.{value}-x.trace.csv"
        holed.write_text("".join(",".join(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["diagnose", "--trace", str(holed), "--problem", problem,
                     "--x-star", "0,0"]) == 0
        out, err = capsys.readouterr()
        report = _strict_loads(out)
        assert err == ""
        assert report["cluster_point"] is None and report["cluster_spread"] == "nan"
        rate = report["rate"]
        assert rate["regime"] == "inconclusive" and rate["p"] is None
        assert rate["detail"] == f"distance {value} to x* at iterate 198 is not finite"

    def test_diagnose_reads_a_non_finite_f_value(self, workdir, capsys):
        """A 200-step fig1 run with f of row 200 (k = 198) set to inf, in
        the window that estimate_limit fits: exit 0 and nothing on stderr
        (numpy warnings are errors here).  The tail is not monotone, so no
        certificate is fitted; the report is strict JSON."""
        problem = str(workdir / "fig1.problem")
        trace_path = workdir / "fig1.200.trace.csv"
        assert main(["optimize", "--problem", problem, "--x0", "2,-0.1",
                     "--max-iters", "200", "--trace-out", str(trace_path)]) == 0
        rows = [line.split(",") for line in trace_path.read_text().splitlines()]
        assert rows[0][3] == "f" and rows[199][0] == "198"
        rows[199][3] = "inf"
        holed = workdir / "fig1.inf-f.trace.csv"
        holed.write_text("".join(",".join(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["diagnose", "--trace", str(holed), "--problem", problem,
                     "--x-star", "0,0"]) == 0
        out, err = capsys.readouterr()
        report = _strict_loads(out)
        assert err == ""
        assert report["certificates"] == {"error": "f-values are not monotone on the tail"}
        assert report["conditions"]["sigma_hat"] == "-inf"

    def test_tensor_target_norm_past_the_float_range(self, workdir, capsys):
        """||T||^2 of [[1e200, 1], [1, 1]] is 1e400: one error line that names
        it, exit 1, and no problem file."""
        target = workdir / "huge-norm.target.json"
        target.write_text("[[1e200, 1], [1, 1]]")
        out_path = workdir / "huge-norm.problem"
        assert main(["tensor", "--dims", "2,2", "--rank", "1", "--target", str(target),
                     "--emit-problem", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: target ||T||^2 is beyond the float range\n"
        assert not out_path.exists()

    def _diagnose(self, capsys, problem, points, *options):
        """The diagnose report on a trace of the given iterates."""
        trace_path = problem.with_suffix(".trace.csv")
        write_trace_csv(trace_from_points(load_problem(problem).rational(), points),
                        trace_path)
        assert main(["diagnose", "--trace", str(trace_path),
                     "--problem", str(problem), *options]) == 0
        return json.loads(capsys.readouterr().out)

    def test_diagnose_tail_fraction_reaches_the_trail(self, workdir, capsys):
        """x^2 / (x^2 + 2y^2): the margin is 1/2 along the x axis and 1 along
        the y axis.  18 iterates approach along the first, the last 2 along
        the second, so the last half and the last tenth differ."""
        from singulim.problems import ProblemFile

        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        problem = workdir / "ellipse.problem"
        save_problem(ProblemFile(2, x * x, x * x + 2 * y * y, name="ellipse"), problem)
        points = [(2.0 ** -k, 0.0) for k in range(18)] + [(0.0, 2.0 ** -18),
                                                          (0.0, 2.0 ** -19)]
        default = self._diagnose(capsys, problem, points, "--x-star", "0,0")
        tenth = self._diagnose(capsys, problem, points, "--x-star", "0,0",
                               "--tail-fraction", "0.9")
        assert default["direction_trail"]["min_tail_pencil"] == 0.5
        assert tenth["direction_trail"]["min_tail_pencil"] == 1.0
        # At the default fraction the report keeps the library's default tail.
        trace = read_trace_csv(problem.with_suffix(".trace.csv"))
        pencil = analyze_singularity(load_problem(problem).rational(), (0, 0))
        assert (default["direction_trail"]["min_tail_pencil"]
                == direction_trail(trace, pencil).min_tail_pencil)

    def test_diagnose_takes_x_star_from_an_integral_cluster_point(
        self, workdir, capsys
    ):
        points = [(2.0 ** -k, -(2.0 ** -k)) for k in range(40)]
        report = self._diagnose(capsys, workdir / "fig1.problem", points)
        assert report["cluster_point"] == [0.0, 0.0]
        assert report["direction_trail"]["center"] == [0.0, 0.0]
        assert report["direction_trail"]["safe_approach"] is True

    def test_diagnose_reports_an_unbounded_function_at_x_star(
        self, misuse_dir, capsys
    ):
        """x / (x^2 + y^2), misuse_dir's pole, is unbounded at the origin."""
        points = [(2.0 ** -k, 2.0 ** -k) for k in range(8)]
        report = self._diagnose(capsys, misuse_dir / "pole.problem", points,
                                "--x-star", "0,0")
        assert "unbounded" in report["direction_trail"]["error"]
        assert report["rate"]["regime"] == "linear"

    def test_diagnose_reports_a_non_monotone_tail(self, workdir, capsys):
        """f rises and falls on the tail while every gradient is nonzero."""
        points = [(1.0, 0.5), (1.0, -0.5), (0.5, 0.5), (1.0, -1.0), (1.0, 0.25),
                  (1.0, -0.5)]
        report = self._diagnose(capsys, workdir / "fig1.problem", points)
        assert report["certificates"] == {
            "error": "f-values are not monotone on the tail"
        }

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        problem = str(resources.files("singulim") / "data" / "fig1.problem")
        done = subprocess.run(
            [sys.executable, "-m", "singulim", "analyze", "--problem", problem,
             "--point", "0,0", "--direction", "1,-1"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert "limit=-0.5" in done.stdout
        failed = subprocess.run(
            [sys.executable, "-m", "singulim", "analyze", "--problem", problem,
             "--point", "x"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert failed.returncode == 2
        assert failed.stderr.startswith("error: --point")

    def test_series_prints_coefficients(self, workdir, capsys):
        code = main([
            "series", "--problem", str(workdir / "fig1.problem"),
            "--point", "0,0", "--direction", "1,-1", "--n-terms", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "c_0: -0.5" in out
        assert "radius_lower_bound: 0.25" in out

    def test_tensor_emits_problem(self, workdir, capsys):
        target = workdir / "target.json"
        target.write_text("[[1, 0], [0, 0]]")
        out_problem = workdir / "cp.problem"
        code = main([
            "tensor", "--dims", "2,2", "--rank", "1",
            "--target", str(target), "--emit-problem", str(out_problem),
        ])
        assert code == 0
        problem = load_problem(out_problem)
        assert problem.n_vars == 4
        assert problem.rational().eval((1.0, 0.0, 1.0, 0.0)) == pytest.approx(0.0)
        # tau = a (x) b with x = (a0, a1, b0, b1): I = a0 b0, ||T||^2 = 1, so
        # numer = G^2 - I^2 G over denom = G^2.
        a0, a1, b0, b1 = (Polynomial.variable(4, i) for i in range(4))
        inner = a0 * b0
        gram = (a0 * a0 + a1 * a1) * (b0 * b0 + b1 * b1)
        assert problem.numer == gram * gram - inner * inner * gram
        assert problem.denom == gram * gram

    def test_tensor_emitted_problem_bytes(self, workdir):
        """The (2,2,2) rank-2 stored form for a small-integer target, pinned
        by the SHA-256 of the emitted file."""
        target = workdir / "target222.json"
        target.write_text("[[[1, 2], [0, -1]], [[3, 0], [1, 1]]]")
        out_problem = workdir / "cp222.problem"
        assert main([
            "tensor", "--dims", "2,2,2", "--rank", "2",
            "--target", str(target), "--emit-problem", str(out_problem),
        ]) == 0
        assert hashlib.sha256(out_problem.read_bytes()).hexdigest() == (
            "df0f84948890c94b8007b4ebebffd50521ddb06030d56222b38e312b312f49bc"
        )

    def test_determinism_same_bytes(self, workdir):
        t1 = workdir / "det1.csv"
        t2 = workdir / "det2.csv"
        for out in (t1, t2):
            assert main([
                "optimize", "--problem", str(workdir / "fig1.problem"),
                "--x0", "2,-0.1", "--max-iters", "100",
                "--trace-out", str(out),
            ]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_missing_problem_file_exit_2(self, workdir, capsys):
        code = main([
            "analyze", "--problem", str(workdir / "nope.problem"),
            "--point", "0,0",
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_point_exit_2(self, workdir, capsys):
        code = main([
            "analyze", "--problem", str(workdir / "fig1.problem"),
            "--point", "a,b",
        ])
        assert code == 2
        assert "--point" in capsys.readouterr().err

    def test_dimension_mismatch_exit_1(self, workdir, capsys):
        code = main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "1,2,3", "--trace-out", str(workdir / "x.csv"),
        ])
        assert code == 1
        assert "coordinates" in capsys.readouterr().err

    def test_one_line_trace_exit_2(self, workdir, capsys):
        tiny = workdir / "tiny.csv"
        tiny.write_text("k,x_1,x_2,f,grad_norm,step_norm,alpha\n"
                        "0,1,1,1,1,,\n")
        code = main([
            "diagnose", "--trace", str(tiny),
            "--problem", str(workdir / "fig1.problem"),
        ])
        assert code == 2

    def test_unsafe_direction_exit_1(self, workdir, capsys):
        # f = x^3 / (x^2 (1 + x^2 + y^2)): leading pencil is d1^2, so the
        # direction (0, 1) lies outside the safe set.
        from singulim.problems import ProblemFile

        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        problem = ProblemFile(2, x ** 3, x * x * (1 + x * x + y * y),
                              name="axis_pinch")
        path = workdir / "axis.problem"
        save_problem(problem, path)
        code = main([
            "series", "--problem", str(path),
            "--point", "0,0", "--direction", "0,1",
        ])
        assert code == 1
        assert "unsafe" in capsys.readouterr().err

    def test_grid_without_bounds_pads_the_iterates_box(self, workdir, capsys):
        """Without --grid-bounds the grid spans the iterates' box, padded by
        a tenth of its width on each side: n^2 rows, corners included."""
        grid = workdir / "auto.grid.csv"
        trace_out = workdir / "auto.trace.csv"
        assert main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "2,-0.1", "--max-iters", "30", "--trace-out", str(trace_out),
            "--grid-out", str(grid), "--grid-n", "4",
        ]) == 0
        capsys.readouterr()
        iterates = read_trace_csv(trace_out).iterates
        box = []
        for i in range(2):
            lo, hi = min(p[i] for p in iterates), max(p[i] for p in iterates)
            assert hi > lo
            pad = 0.1 * (hi - lo)
            box.append((lo - pad, hi + pad))
        rows = [tuple(map(float, line.split(",")))
                for line in grid.read_text().splitlines()[1:]]
        assert len(rows) == 16
        (x_lo, x_hi), (y_lo, y_hi) = box
        assert [row[:2] for row in rows] == [
            (x_lo + (x_hi - x_lo) * i / 3, y_lo + (y_hi - y_lo) * j / 3)
            for i in range(4) for j in range(4)
        ]
        assert rows[-1][:2] == pytest.approx((x_hi, y_hi), rel=1e-15)
        assert all(math.isfinite(f) for _, _, f in rows)

    def test_grid_emission(self, workdir, capsys):
        grid = workdir / "grid.csv"
        code = main([
            "optimize", "--problem", str(workdir / "fig1.problem"),
            "--x0", "2,-0.1", "--max-iters", "50",
            "--trace-out", str(workdir / "g.trace.csv"),
            "--grid-out", str(grid), "--grid-bounds=-1,1,-1,1", "--grid-n", "5",
        ])
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "x,y,f"
        assert len(lines) == 26
        center = [l for l in lines[1:] if l.startswith("0,0,")]
        assert center and math.isnan(float(center[0].split(",")[2]))
        for n in ("1", "0"):
            trace_out = workdir / f"g{n}.trace.csv"
            code = main([
                "optimize", "--problem", str(workdir / "fig1.problem"),
                "--x0", "2,-0.1", "--max-iters", "50",
                "--trace-out", str(trace_out),
                "--grid-out", str(workdir / f"grid{n}.csv"), "--grid-n", n,
            ])
            err = capsys.readouterr().err
            assert code == 2
            assert "--grid-n" in err and "Traceback" not in err
            assert not trace_out.exists()


@pytest.fixture(scope="module")
def misuse_dir(workdir):
    """workdir plus a short fig1 trace and copies of it off the writer's
    layout, CP targets, an unbounded problem, problem files whose numbers
    JSON accepts but the format rejects, and problem files that are not
    UTF-8, nest too deep for the JSON decoder or hold an integer past its
    digit limit."""
    from singulim.problems import ProblemFile

    assert main([
        "optimize", "--problem", str(workdir / "fig1.problem"), "--x0", "2,-0.1",
        "--max-iters", "20", "--trace-out", str(workdir / "misuse.trace.csv"),
    ]) == 0
    rows = [line.split(",") for line in
            (workdir / "misuse.trace.csv").read_text().splitlines()]
    assert len(rows) == 22  # the header and 21 iterates
    for name, row, columns, value in [
        ("blank-f", 10, (3, 4), ""),
        ("last-step", 21, (5, 6), "1"),
        ("blank-step", 10, (5, 6), ""),
    ]:
        changed = [list(r) for r in rows]
        for column in columns:
            changed[row][column] = value
        (workdir / f"{name}.trace.csv").write_text(
            "".join(",".join(r) + "\n" for r in changed)
        )
    # Headers of the writer's width that do not name its columns.
    for name, header in [
        ("swapped-header", rows[0][:3] + ["grad_norm", "f"] + rows[0][5:]),
        ("unnamed-header", list("kabcdeg")),
    ]:
        (workdir / f"{name}.trace.csv").write_text(
            "".join(",".join(r) + "\n" for r in [header, *rows[1:]])
        )
    # Rows k = 9 and k = 10 swapped: each in the writer's layout, out of order.
    (workdir / "swapped-rows.trace.csv").write_text(
        "".join(",".join(r) + "\n" for r in [*rows[:10], rows[11], rows[10], *rows[12:]])
    )
    (workdir / "misuse.target.json").write_text("[[1, 0], [0, 0]]")
    for name, text in [
        ("object", b'{"a": 1}'),
        ("string", b'[[1, "a"], [2, 3]]'),
        ("ragged", b"[[1, 2], [3]]"),
        ("nan", b"[[NaN, 2], [3, 4]]"),
        ("inf", b"[[1, 2], [Infinity, 4]]"),
        ("bool", b"[[true, 2], [3, 4]]"),
        ("latin1", b"[[1, 2], [3, 4]] \xff"),
        ("deep", b"[" * 100_000 + b"]" * 100_000),
        ("digits", b"[[1" + b"0" * 5000 + b", 2], [3, 4]]"),
        # Within the decoder's digit limit, past the float range.
        ("wide-int", b"[[1" + b"0" * 399 + b", 2], [3, 4]]"),
    ]:
        (workdir / f"{name}.target.json").write_bytes(text)
    (workdir / "latin1.problem").write_bytes(
        (workdir / "fig1.problem").read_bytes().replace(b'"fig1"', b'"fig1\xff"')
    )
    # Squared offsets from 0 that sum past the largest float.
    huge = [(1.2e154, 1.2e154), (1.2e154, -1.2e154), (-1.2e154, 1.2e154)]
    write_trace_csv(DescentTrace(tuple(huge), (3.0, 2.0, 1.0), (1.0,) * 3,
                                 (1.0,) * 2, (1.0,) * 2, "max_iters"),
                    workdir / "huge.trace.csv")
    # A trace in four coordinates, as from `tensor --dims 2,2 --rank 1`.
    write_trace_csv(DescentTrace(((1.0, 0.5, 0.8, -0.2), (0.5, 0.25, 0.4, -0.1)),
                                 (2.0, 1.0), (1.0, 1.0), (1.0,), (0.5,), "max_iters"),
                    workdir / "four-coords.trace.csv")
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    save_problem(ProblemFile(2, x, x * x + y * y, name="pole"),
                 workdir / "pole.problem")
    one = [{"coeff": "1", "exps": [0]}]
    for name, doc in [
        ("zero-den", {"n_vars": 1, "numer": [{"coeff": "1/0", "exps": [0]}], "denom": one}),
        ("inf-vars", {"n_vars": 1e400, "numer": one, "denom": one}),
        ("bool-vars", {"n_vars": True, "numer": one, "denom": one}),
        ("inf-point", {"n_vars": 1, "numer": one, "denom": one,
                       "singular_points": [[1e400]]}),
        ("wide-point", {"n_vars": 1, "numer": one, "denom": one,
                        "singular_points": [["1e400"]]}),
        ("neg-exp", {"n_vars": 1, "numer": [{"coeff": "1", "exps": [-1]}],
                     "denom": one}),
        ("big-exp", {"n_vars": 1, "numer": [{"coeff": "1", "exps": [20000]}],
                     "denom": [{"coeff": "1", "exps": [0]}, {"coeff": "1", "exps": [2]}]}),
        ("three-vars", {"n_vars": 3, "numer": [],
                        "denom": [{"coeff": "1", "exps": [0, 0, 0]}]}),
    ]:
        (workdir / f"{name}.problem").write_text(json.dumps(doc))
    (workdir / "deep.problem").write_text("[" * 100_000 + "]" * 100_000)
    (workdir / "digits.problem").write_text('{"n_vars": 1' + "0" * 5000 + "}")
    return workdir


_OPT = ["optimize", "--problem", "{d}/fig1.problem", "--max-iters", "20"]
_GRID = _OPT + ["--x0", "2,-0.1", "--trace-out", "{d}/misuse.out.csv",
                "--grid-out", "{d}/misuse.grid.csv"]
_ANA = ["analyze", "--problem", "{d}/fig1.problem", "--point", "0,0"]
_SER = ["series", "--problem", "{d}/fig1.problem", "--point", "0,0"]
_DIA = ["diagnose", "--problem", "{d}/fig1.problem", "--trace", "{d}/misuse.trace.csv"]
_TEN = ["tensor", "--dims", "2,2", "--emit-problem", "{d}/misuse.cp.problem"]


@pytest.mark.parametrize("argv, code", [
    pytest.param(_SER + ["--direction", "0,0"], 1, id="series-zero-direction"),
    pytest.param(_OPT + ["--x0", "nan,1", "--trace-out", "{d}/misuse.out.csv"], 1,
                 id="optimize-nan-x0"),
    pytest.param(_OPT + ["--x0", "2,-0.1", "--trace-out", "{d}/no-such-dir/t.csv"], 2,
                 id="optimize-trace-out-missing-dir"),
    pytest.param(_GRID + ["--grid-bounds", "1,2"], 2, id="grid-bounds-two-numbers"),
    pytest.param(_GRID + ["--grid-bounds=1,0,-1,1"], 2, id="grid-bounds-lo-above-hi"),
    pytest.param(_GRID + ["--grid-bounds=-inf,inf,0,1"], 2, id="grid-bounds-infinite"),
    pytest.param(_GRID + ["--grid-bounds=0,1e308,-1e308,1e308"], 2,
                 id="grid-bounds-span-overflow"),
    # A finite span whose multiples (hi - lo) * i overflow on the grid.
    pytest.param(_GRID + ["--grid-bounds=0,1e308,0,1"], 2, id="grid-bounds-grid-overflow"),
    pytest.param(_GRID + ["--grid-bounds=-1,1,2,2"], 2, id="grid-bounds-lo-equals-hi"),
    pytest.param(_DIA + ["--tail-fraction", "nan"], 2, id="tail-fraction-nan"),
    pytest.param(_DIA + ["--tail-fraction", "2"], 2, id="tail-fraction-2"),
    pytest.param(_DIA + ["--tail-fraction", "1"], 2, id="tail-fraction-1"),
    pytest.param(_DIA + ["--tail-fraction", "-1"], 2, id="tail-fraction-negative"),
    pytest.param(_SER + ["--direction", "1,-1", "--n-terms", "0"], 2, id="n-terms-0"),
    pytest.param(_SER + ["--direction", "1,-1", "--n-terms", "-3"], 2,
                 id="n-terms-negative"),
    pytest.param(_ANA + ["--random-directions", "-1"], 2,
                 id="random-directions-negative"),
    pytest.param(["analyze", "--problem", "{d}/fig1.problem", "--point", "0,0,0"], 1,
                 id="analyze-point-dimension"),
    pytest.param(_ANA + ["--direction", "1,2,3"], 1, id="analyze-direction-dimension"),
    pytest.param(_ANA + ["--direction", "1,2", "--direction", "1,2,3"], 1,
                 id="analyze-later-direction-dimension"),
    pytest.param(_ANA + ["--direction", "0,0"], 1, id="analyze-zero-direction"),
    pytest.param(["series", "--problem", "{d}/fig1.problem", "--point", "0,0,0",
                  "--direction", "1,0,0"], 1, id="series-point-dimension"),
    pytest.param(_SER + ["--direction", "1,0,0"], 1, id="series-direction-dimension"),
    pytest.param(["analyze", "--problem", "{d}/pole.problem", "--point", "0,0"], 1,
                 id="analyze-unbounded"),
    pytest.param(["series", "--problem", "{d}/pole.problem", "--point", "0,0",
                  "--direction", "1,0"], 1, id="series-unbounded"),
    pytest.param(_OPT + ["--x0", "2,-0.1", "--sigma", "2",
                         "--trace-out", "{d}/misuse.out.csv"], 1,
                 id="optimize-bad-config"),
    pytest.param(_TEN + ["--rank", "0", "--target", "{d}/misuse.target.json"], 1,
                 id="tensor-bad-rank"),
    pytest.param(_TEN + ["--rank", "1", "--target", "{d}/no-such.json"], 2,
                 id="tensor-missing-target"),
    *(pytest.param(_TEN + ["--rank", "1", "--target", f"{{d}}/{name}.target.json"], 2,
                   id=f"tensor-target-{name}")
      for name in ("object", "string", "ragged", "nan", "inf", "bool", "latin1",
                   "deep", "digits", "wide-int")),
    *(pytest.param(_OPT + ["--x0", "2,-0.1", option, value,
                           "--trace-out", "{d}/misuse.out.csv"], 1,
                   id=f"optimize{option[1:]}-{value}")
      for option, value in [("--step0", "nan"), ("--step0", "inf"),
                            ("--grad-tol", "nan")]),
    *(pytest.param(["diagnose", "--problem", "{d}/fig1.problem",
                    "--trace", f"{{d}}/{name}.trace.csv"], 2, id=f"diagnose-{name}")
      for name in ("blank-f", "last-step", "blank-step", "swapped-header",
                   "unnamed-header", "swapped-rows")),
    pytest.param(["analyze", "--problem", "{d}/latin1.problem", "--point", "0,0"], 2,
                 id="analyze-problem-not-utf8"),
    pytest.param(["optimize", "--problem", "{d}/latin1.problem", "--x0", "2,-0.1",
                  "--trace-out", "{d}/misuse.out.csv"], 2,
                 id="optimize-problem-not-utf8"),
    pytest.param(["diagnose", "--problem", "{d}/fig1.problem",
                  "--trace", "{d}/no-such.csv"], 2, id="diagnose-missing-trace"),
    *(pytest.param(["diagnose", "--problem", "{d}/fig1.problem", "--trace",
                    "{d}/four-coords.trace.csv", *x_star], 2, id=f"diagnose-trace-{label}")
      for label, x_star in [("dimension", []), ("dimension-x-star", ["--x-star", "0,0"])]),
    pytest.param(["diagnose", "--problem", "{d}/fig1.problem", "--trace",
                  "{d}/huge.trace.csv", "--x-star", "0,0"], 1,
                 id="diagnose-fsum-overflow"),
    pytest.param(_SER + ["--direction", "1e200,1e200"], 1, id="series-overflow"),
    pytest.param(["analyze", "--problem", "{d}/zero-den.problem", "--point", "0"], 2,
                 id="problem-coeff-over-zero"),
    pytest.param(["analyze", "--problem", "{d}/inf-vars.problem", "--point", "0"], 2,
                 id="problem-infinite-n-vars"),
    pytest.param(["analyze", "--problem", "{d}/bool-vars.problem", "--point", "0"], 2,
                 id="problem-boolean-n-vars"),
    pytest.param(["analyze", "--problem", "{d}/inf-point.problem", "--point", "0"], 2,
                 id="problem-infinite-singular-point"),
    pytest.param(["analyze", "--problem", "{d}/wide-point.problem", "--point", "0",
                  "--direction", "1"], 2, id="analyze-singular-point-past-float-range"),
    pytest.param(["optimize", "--problem", "{d}/wide-point.problem", "--x0", "1",
                  "--trace-out", "{d}/misuse.out.csv"], 2,
                 id="optimize-singular-point-past-float-range"),
    pytest.param(["analyze", "--problem", "{d}/neg-exp.problem", "--point", "0"], 2,
                 id="problem-negative-exponent"),
    pytest.param(["analyze", "--problem", "{d}/big-exp.problem", "--point", "1",
                  "--direction", "1"], 2, id="problem-exponent-above-cap"),
    pytest.param(["analyze", "--problem", "{d}/deep.problem", "--point", "0"], 2,
                 id="problem-nesting-too-deep"),
    pytest.param(["analyze", "--problem", "{d}/digits.problem", "--point", "0"], 2,
                 id="problem-integer-too-long"),
    pytest.param(["optimize", "--problem", "{d}/three-vars.problem", "--x0", "1,1,1",
                  "--trace-out", "{d}/misuse.out.csv", "--grid-out",
                  "{d}/misuse.grid.csv"], 1, id="grid-out-three-vars"),
    pytest.param(["tensor", "--dims", "2,a", "--rank", "1", "--target",
                  "{d}/misuse.target.json", "--emit-problem", "{d}/misuse.cp.problem"],
                 2, id="tensor-dims-not-integers"),
    pytest.param(_OPT + ["--x0", "1,abc", "--trace-out", "{d}/misuse.out.csv"], 2,
                 id="optimize-x0-not-numbers"),
])
def test_misuse_ends_in_one_error_line(misuse_dir, capsys, argv, code):
    """Each misuse exits with its code, one error line on stderr and nothing
    on stdout."""
    argv = [arg.format(d=misuse_dir) for arg in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if argv[0] == "optimize":
        assert not os.path.exists(argv[argv.index("--trace-out") + 1])


_NEGATIVE = [
    pytest.param(["optimize", "--problem", "{d}/multi3.problem", "--max-iters", "50",
                  "--trace-out", "{t}/neg.csv"], "--x0", "-0.9,3.7", id="x0"),
    pytest.param(_OPT + ["--x0", "2,-0.1", "--trace-out", "{t}/neg.csv",
                         "--grid-out", "{t}/neg.grid.csv", "--grid-n", "5"],
                 "--grid-bounds", "-1,1,-1,1", id="grid-bounds"),
    pytest.param(["analyze", "--problem", "{d}/fig1.problem", "--direction=1,-1"],
                 "--point", "-1/2,0", id="point"),
    pytest.param(_ANA + ["--direction=1,-1"], "--direction", "-1,1", id="direction"),
    pytest.param(_DIA + ["--report", "{t}/neg.json"], "--x-star", "-1/2,1",
                 id="x-star"),
]


@pytest.mark.parametrize("argv, option, value", _NEGATIVE)
def test_list_option_takes_a_negative_value_split_or_joined(
    misuse_dir, tmp_path, capsys, argv, option, value
):
    """`--x0 -0.9,3.7` runs as `--x0=-0.9,3.7` does: same output, same files."""
    argv = [arg.format(d=misuse_dir, t=tmp_path) for arg in argv]
    runs = []
    for form in ([option, value], [f"{option}={value}"]):
        assert main(argv + form) == 0, form
        files = {}
        for path in sorted(tmp_path.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv, missing", [
    pytest.param(_OPT + ["--x0", "2,-0.1", "--trace-out", "{t}/ok.csv",
                         "--grid-out", "{t}/missing/g.csv"],
                 "{t}/missing/g.csv", id="optimize-grid-out"),
    pytest.param(_OPT + ["--x0", "2,-0.1", "--trace-out", "{t}/missing/t.csv"],
                 "{t}/missing/t.csv", id="optimize-trace-out"),
    pytest.param(_DIA + ["--report", "{t}/missing/r.json"], "{t}/missing/r.json",
                 id="diagnose-report"),
    pytest.param(["tensor", "--dims", "2,2", "--rank", "1",
                  "--target", "{d}/misuse.target.json",
                  "--emit-problem", "{t}/missing/cp.problem"],
                 "{t}/missing/cp.problem", id="tensor-emit-problem"),
])
def test_missing_output_directory_fails_before_any_work(
    misuse_dir, tmp_path, capsys, monkeypatch, argv, missing
):
    """A missing output directory is reported before anything is loaded or
    written, so the failed command leaves no file behind."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for name in ("load_problem", "build_cp_objective"):
        monkeypatch.setattr(cli, name, refuse)
    argv = [arg.format(d=misuse_dir, t=tmp_path) for arg in argv]
    missing = missing.format(t=tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: file '{missing}' not found\n"
    assert list(tmp_path.iterdir()) == []
