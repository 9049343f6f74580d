"""CLI surface: flags, exit codes, report/CSV round trips, comparisons,
and byte-level determinism of outputs."""

import csv
import json
import math

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune.cli import (
    RunConfigFile,
    compare_reports,
    dumps_json,
    hausdorff_distance,
    main,
    read_report,
    summary_line,
    write_front_csv,
    write_report,
)


def run_cli(*args):
    return main(list(args))


def make_report(front_pts, problem="synthetic"):
    sols = tuple(
        pp.ParetoSolution(
            y=(0.0,),
            realization=pp.Realization(k=1, z=(0.0,)),
            point=pp.ObjectivePoint(a, b),
            provenance="w0",
        )
        for a, b in front_pts
    )
    return pp.PruneReport(
        problem=problem, beta=2, phases="ab", eps=0.0, seed=0, k_total=1,
        k1m=(1,), k1u=(1,), k1c=(1,), pruned_a=(), pruned_b=(), infeasible=(),
        nlp=pp.NlpCounts(a1=2, a2=4, b1=0, b3=0), front=sols, wallclock_ms=5,
    )


class TestRunCommand:
    def test_quad_run_and_golden_summary(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        front = tmp_path / "f.csv"
        code = run_cli(
            "run", "--problem", "quad", "--beta", "21", "--phases", "ab",
            "--report", str(report), "--front", str(front),
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "|K|=1 |K1m|=1 |K1u|=1 |K1c|=1 nlp=23 front=21 pts"
        assert report.exists() and front.exists()

    def test_beta_below_two_exits_2(self, tmp_path):
        code = run_cli("run", "--problem", "quad", "--beta", "1",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2

    def test_unknown_problem_exits_2(self, tmp_path):
        code = run_cli("run", "--problem", "zort",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2

    def test_bad_flag_exits_2(self, tmp_path):
        assert run_cli("run", "--problema", "quad") == 2

    def test_missing_report_flag_exits_2(self):
        assert run_cli("run", "--problem", "quad") == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_bad_eps_exits_2(self, tmp_path, capsys, command, eps):
        code = run_cli(command, "--problem", "quad", "--eps", eps,
                       "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert "error: eps must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("problem", ["e2", "quad"])
    def test_negative_seed_exits_2_before_any_solve(self, tmp_path, capsys, solve_log, problem):
        code = run_cli("run", "--problem", problem, "--beta", "3", "--seed", "-1",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert solve_log.calls == 0
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bad", ["missing/out", "."])
    @pytest.mark.parametrize("flag", ["--report", "--front"])
    def test_bad_output_path_exits_2_before_compute(
        self, tmp_path, capsys, monkeypatch, flag, bad
    ):
        import pareto_prune.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before the output paths were checked")

        monkeypatch.setattr(cli, "run_pipeline", must_not_run)
        paths = {"--report": str(tmp_path / "r.json"), "--front": str(tmp_path / "f.csv")}
        paths[flag] = str(tmp_path / bad)
        code = run_cli("run", "--problem", "quad", "--report", paths["--report"],
                       "--front", paths["--front"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: output ")

    def test_write_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import pareto_prune.cli as cli

        def refuse(report, path):
            raise PermissionError(f"cannot write {path}")

        monkeypatch.setattr(cli, "write_report", refuse)
        code = run_cli("run", "--problem", "quad", "--beta", "3",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_beta_times_realizations_over_cap_exits_3_before_any_solve(
        self, tmp_path, capsys, solve_log
    ):
        code = run_cli("run", "--problem", "quad", "--beta", "100000000",
                       "--report", str(tmp_path / "r.json"))
        assert code == 3
        assert solve_log.calls == 0
        assert "exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_pipeline_failure_exits_3(self, tmp_path, monkeypatch):
        import pareto_prune.cli as cli

        def boom(*args, **kwargs):
            raise pp.PipelineError("all infeasible")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code = run_cli("run", "--problem", "quad", "--report", str(tmp_path / "r.json"))
        assert code == 3

    def test_report_roundtrip(self, tmp_path):
        report = tmp_path / "r.json"
        run_cli("run", "--problem", "quad", "--beta", "5", "--report", str(report))
        loaded = read_report(report)
        assert loaded.problem == "quad"
        assert loaded.beta == 5
        re_serialized = dumps_json(loaded.to_json_dict())
        assert re_serialized + "\n" == report.read_text()

    def test_csv_json_front_consistency(self, tmp_path):
        report = tmp_path / "r.json"
        front = tmp_path / "f.csv"
        run_cli("run", "--problem", "quad", "--beta", "7",
                "--report", str(report), "--front", str(front))
        loaded = read_report(report)
        with open(front, newline="") as fh:
            rows = list(csv.DictReader(fh))
        json_pts = sorted((s.point.j1, s.point.j2) for s in loaded.front)
        csv_pts = sorted((float(r["j1"]), float(r["j2"])) for r in rows)
        assert json_pts == csv_pts
        assert list(rows[0]) == ["k", "z_1", "y_1", "j1", "j2", "provenance"]

    def test_seeded_reruns_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"r{tag}.json"
            front = tmp_path / f"f{tag}.csv"
            run_cli("run", "--problem", "e1", "--beta", "5", "--seed", "7",
                    "--report", str(report), "--front", str(front))
            outs.append((report.read_bytes(), front.read_bytes()))
        (ra, fa), (rb, fb) = outs
        assert fa == fb  # front CSV is byte-identical
        da = json.loads(ra)
        db = json.loads(rb)
        da.pop("wallclock_ms")
        db.pop("wallclock_ms")
        assert da == db  # report matches except the timing field


class TestOracleCommand:
    def test_quad_beta_two_front_is_anchor_pair(self, tmp_path):
        report = tmp_path / "r.json"
        code = run_cli("oracle", "--problem", "quad", "--beta", "2",
                       "--report", str(report))
        assert code == 0
        loaded = read_report(report)
        pts = sorted(s.point.as_tuple() for s in loaded.front)
        assert pts == pytest.approx([(0.0, 1.0), (1.0, 0.0)], abs=1e-9)

    def test_unknown_problem_exits_2(self, tmp_path):
        assert run_cli("oracle", "--problem", "zort",
                       "--report", str(tmp_path / "r.json")) == 2


class TestCompareCommand:
    def test_self_compare_exits_0(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        run_cli("run", "--problem", "quad", "--beta", "5", "--report", str(report))
        code = run_cli("compare", "--a", str(report), "--b", str(report))
        assert code == 0
        out = capsys.readouterr().out
        assert "hausdorff=0" in out

    def test_mismatched_fronts_hausdorff_sqrt2(self, tmp_path, capsys):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        write_report(make_report([(0.0, 1.0)]), pa)
        write_report(make_report([(0.0, 1.0), (1.0, 0.0)]), pb)
        code = run_cli("compare", "--a", str(pa), "--b", str(pb), "--tol", "1e-4")
        assert code == 1
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["hausdorff"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": "x"}')
        good = tmp_path / "good.json"
        write_report(make_report([(0.0, 1.0)]), good)
        assert run_cli("compare", "--a", str(bad), "--b", str(good)) == 2

    def test_quad_pipeline_vs_oracle(self, tmp_path):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        run_cli("run", "--problem", "quad", "--beta", "21", "--phases", "a",
                "--report", str(pa))
        run_cli("oracle", "--problem", "quad", "--beta", "21", "--report", str(pb))
        assert run_cli("compare", "--a", str(pa), "--b", str(pb)) == 0


class TestHausdorff:
    def test_identical(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hausdorff_distance(a, a.copy()) == 0.0

    def test_known_value(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hausdorff_distance(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.random((13, 2))
        b = rng.random((9, 2))
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_empty_conventions(self):
        empty = np.empty((0, 2))
        assert hausdorff_distance(empty, empty) == 0.0
        assert hausdorff_distance(empty, np.array([[1.0, 2.0]])) == float("inf")


class TestSerialization:
    def test_seventeen_digit_floats_roundtrip(self):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-308, -2.5e17, 4096.0]
        doc = json.loads(dumps_json({"v": values}))
        assert doc["v"] == values

    def test_report_equality_after_roundtrip(self, e1_ab):
        again = pp.PruneReport.from_json_dict(json.loads(dumps_json(e1_ab.to_json_dict())))
        assert again == e1_ab

    def test_nlp_total_mismatch_rejected(self):
        doc = make_report([(0.0, 1.0)]).to_json_dict()
        doc["nlp"]["total"] = 99
        with pytest.raises(ValueError):
            pp.PruneReport.from_json_dict(doc)


class TestRunConfigFile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfigFile(problem="quad", beta=1)
        with pytest.raises(ValueError):
            RunConfigFile(problem="quad", phases="b")
        with pytest.raises(ValueError):
            RunConfigFile(problem="quad", eps=-1.0)


class TestCompareReports:
    def test_deltas(self, e1_ab, e1_a):
        result = compare_reports(e1_ab, e1_a, tol=1e-4)
        assert result["deltas"]["k1c"] == len(e1_a.k1c) - len(e1_ab.k1c)
        assert result["match"] is (
            result["hausdorff"] <= 1e-4 and result["realization_sets_equal"]
        )

    def test_summary_line_format(self, e1_ab):
        line = summary_line(e1_ab)
        assert line == (
            f"|K|={e1_ab.k_total} |K1m|={len(e1_ab.k1m)} |K1u|={len(e1_ab.k1u)} "
            f"|K1c|={len(e1_ab.k1c)} nlp={e1_ab.nlp.total} front={len(e1_ab.front)} pts"
        )
