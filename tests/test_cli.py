"""Problem files, bundled examples, and the command-line interface."""

import json
import math

import pytest

from singulim.cli import main
from singulim.descent import check_conditions, read_trace_csv, trace_from_points
from singulim.polyalg import Polynomial
from singulim.problems import (
    ProblemFormatError,
    build_bundled,
    bundled_examples,
    load_bundled,
    load_problem,
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

    def test_diagnose_round_trips_conditions(self, workdir):
        trace_path = workdir / "fig1.trace.csv"
        report_path = workdir / "fig1.report.json"
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
