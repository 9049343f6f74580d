"""CLI surface: flags, exit codes, report/CSV round trips, comparisons,
and byte-level determinism of outputs."""

import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import cli
from pareto_prune.core import Front
from pareto_prune.cli import (
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
    n = len(front_pts)
    front = Front(np.ones(n, dtype=np.int64), np.arange(n), np.zeros((n, 1)),
                  np.array(front_pts, dtype=float).reshape(n, 2))
    return pp.PruneReport(
        problem=problem, beta=2, phases="ab", eps=0.0, seed=0, k_total=1,
        k1m=(1,), k1u=(1,), k1c=(1,), pruned_a=(), pruned_b=(), infeasible=(),
        nlp=pp.NlpCounts(a1=2, a2=2, b1=0, b3=0), front=front, front_z=np.zeros((n, 1)),
        wallclock_ms=5,
    )


# SHA-256 of the front CSV of `run --phases ab --beta 21 --seed 0`, recorded
# while the front was still written from one object per point.  e1 is left
# out: its last bits follow numpy's SIMD dispatch.
FRONT_CSV_SHA256 = {
    "e2": "c4c11187d0a2e44342674412a15f13c97f968a6e5a3bb69771fb4f8d6ebe871b",
    "quad": "61ddeb03fb97ab08a1d70453e978a5a81a624752c9baa2e5fb5763e6347182fc",
    "toy-constrained": "0ff63654722e5eb638545a4f50b924a0b8076dfbb940b43ee517d2a6304145a5",
}


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

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_bad_beta_exits_2_before_any_solve(self, tmp_path, capsys, solve_log, command):
        code = run_cli(command, "--problem", "toy-constrained", "--beta", "0",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert solve_log.calls == 0
        assert "error: beta must be >= 2, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("front", ["r.json", "./r.json", "sub/../r.json"])
    def test_report_and_front_on_one_file_exits_2_before_any_solve(
        self, tmp_path, capsys, solve_log, monkeypatch, front
    ):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code = run_cli("run", "--problem", "quad", "--beta", "3",
                       "--report", str(tmp_path / "r.json"), "--front", front)
        assert code == 2
        assert solve_log.calls == 0
        assert "error: --report and --front name the same file" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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
        json_pts = sorted(map(tuple, loaded.front.pts.tolist()))
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

    @pytest.mark.parametrize("problem", sorted(FRONT_CSV_SHA256))
    def test_front_csv_bytes(self, tmp_path, problem):
        front = tmp_path / "f.csv"
        assert run_cli("run", "--problem", problem, "--phases", "ab", "--beta", "21",
                       "--seed", "0", "--report", str(tmp_path / "r.json"),
                       "--front", str(front)) == 0
        assert hashlib.sha256(front.read_bytes()).hexdigest() == FRONT_CSV_SHA256[problem]


class TestOracleCommand:
    def test_quad_beta_two_front_is_anchor_pair(self, tmp_path):
        report = tmp_path / "r.json"
        code = run_cli("oracle", "--problem", "quad", "--beta", "2",
                       "--report", str(report))
        assert code == 0
        loaded = read_report(report)
        pts = sorted(map(tuple, loaded.front.pts.tolist()))
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

    def test_empty_front_prints_json(self, tmp_path, capsys):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        run_cli("run", "--problem", "quad", "--beta", "5", "--report", str(pa))
        capsys.readouterr()
        doc = json.loads(pa.read_text())
        doc["front"] = []
        pb.write_text(json.dumps(doc))
        code = run_cli("compare", "--a", str(pa), "--b", str(pb))
        assert code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        result = json.loads(captured.out.splitlines()[1])
        assert result["hausdorff"] == math.inf
        assert result["front_sizes"] == [5, 0]

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": "x"}')
        good = tmp_path / "good.json"
        write_report(make_report([(0.0, 1.0)]), good)
        assert run_cli("compare", "--a", str(bad), "--b", str(good)) == 2

    def test_deeply_nested_json_exits_2_without_traceback(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        good = tmp_path / "good.json"
        write_report(make_report([(0.0, 1.0)]), good)
        assert run_cli("compare", "--a", str(deep), "--b", str(good)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, tol):
        report = tmp_path / "r.json"
        write_report(make_report([(0.0, 1.0)]), report)
        reads = []
        monkeypatch.setattr(cli, "read_report", lambda path: reads.append(path))
        code = run_cli("compare", "--a", str(report), "--b", str(report), "--tol", tol)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tol must be finite and >= 0")
        assert reads == []

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
        assert hausdorff_distance(np.array([[1.0, 2.0]]), empty) == float("inf")

    @pytest.mark.parametrize("block", [1, 7, 64, cli.HAUSDORFF_BLOCK])
    def test_blocks_give_the_full_arrays_bits(self, monkeypatch, block):
        monkeypatch.setattr(cli, "HAUSDORFF_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(40):
            n, m = rng.integers(1, 90, size=2)
            scale = 10.0 ** rng.integers(-6, 7)
            a, b = rng.standard_normal((n, 2)) * scale, rng.standard_normal((m, 2)) * scale
            a[rng.integers(n)] = b[rng.integers(m)]  # a distance of exactly zero
            for p, q in ((a, b), (b, a)):
                got = np.float64(hausdorff_distance(p, q))
                assert got.tobytes() == np.float64(_full_hausdorff(p, q)).tobytes()

    def test_memory_is_bounded_at_20000_points(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((20_000, 2)), rng.random((20_000, 2))
        tracemalloc.start()
        try:
            hausdorff_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full distance array alone would take 20 000^2 * 8 bytes = 3.2 GB
        assert peak < 32 * 2 ** 20


def _full_hausdorff(a, b):
    """The Hausdorff distance as first written: the full n x m distance
    array at once."""
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


class TestSerialization:
    def test_floats_roundtrip_and_integral_floats_are_ints(self):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-308, -2.5e17, 4096.0, -0.0]
        doc = json.loads(dumps_json({"v": values}))
        assert doc["v"] == values
        # below 1e17 an integral float is a JSON integer, as the digests need
        assert [type(v) for v in doc["v"]] == [float] * 5 + [int, int]
        assert dumps_json([5.0, -0.0, 0.1, -2.5e17]) == "[5,0,0.1,-2.5e+17]"

    def test_numpy_scalars_roundtrip(self):
        values = [np.int64(7), np.float32(0.1), np.float64(1.0 / 3.0), np.float64(2.0)]
        doc = json.loads(dumps_json(values))
        assert doc == [7, float(np.float32(0.1)), 1.0 / 3.0, 2]
        assert [type(v) for v in doc] == [int, float, float, int]

    def test_numpy_seed_written_as_int(self, tmp_path):
        report = pp.run_pipeline(pp.make_quad(), beta=3, config=pp.SolverConfig(seed=np.int64(3)))
        write_report(report, tmp_path / "r.json")
        loaded = read_report(tmp_path / "r.json")
        assert loaded.seed == 3
        assert json.loads((tmp_path / "r.json").read_text())["seed"] == 3

    def test_report_equality_after_roundtrip(self, e1_ab, e1_oracle):
        for report in (e1_ab, e1_oracle, make_report([(0.0, 1.0), (1.5, -2.0)])):
            text = dumps_json(report.to_json_dict())
            again = pp.PruneReport.from_json_dict(json.loads(text))
            assert again == report
            assert again != make_report([(0.0, 2.0)])
            assert dumps_json(again.to_json_dict()) == text

    def test_nlp_total_mismatch_rejected(self):
        doc = make_report([(0.0, 1.0)]).to_json_dict()
        doc["nlp"]["total"] = 99
        with pytest.raises(ValueError):
            pp.PruneReport.from_json_dict(doc)


def _set(doc, path, value):
    """Set the field of ``doc`` at ``path``, a sequence of keys and list
    indices, to ``value``."""
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


# the two-point front the (path, value) mutations below are applied to
_GOOD_FRONT = [(0.0, 1.0), (1.0, 0.0)]

# (path, value) mutations a strict reader rejects: coercing them would read
# beta 3.7 as 3, k1m [1.9] as (1,), seed "0" as 0 and k true as 1
_BAD_FIELDS = {
    "beta-float": (("beta",), 3.7),
    "beta-integral-float": (("beta",), 3.0),
    "beta-bool": (("beta",), True),
    "k1m-float": (("k1m",), [1.9]),
    "seed-string": (("seed",), "0"),
    "front-k-bool": (("front", 0, "k"), True),
    "nlp-string": (("nlp", "a1"), "2"),
    "k_total-huge-float": (("k_total",), 1e300),
    "eps-string": (("eps",), "0"),
    "eps-nan": (("eps",), math.nan),
    "j1-inf": (("front", 0, "j1"), math.inf),
    "j2-huge-int": (("front", 0, "j2"), 10 ** 400),
    "y-bool": (("front", 0, "y"), [True]),
    "z-null": (("front", 0, "z"), [None]),
    "phases-unknown": (("phases",), "abc"),
    "phases-list": (("phases",), ["ab"]),
    "pruned_a-dict": (("pruned_a",), {"1": 1}),
    "front-string": (("front",), "[]"),
    "front-entry-list": (("front", 0), [0.0, 1.0]),
    "provenance-int": (("front", 0, "provenance"), 0),
    "provenance-not-weight": (("front", 0, "provenance"), "zzz"),
    "provenance-past-beta": (("front", 0, "provenance"), "w2"),
    "provenance-leading-zero": (("front", 0, "provenance"), "w00"),
    "k_total-negative": (("k_total",), -5),
    "pruned_a-out-of-range": (("pruned_a",), [99]),
    "eps-negative": (("eps",), -1.0),
    "beta-one": (("beta",), 1),
    "front-k-zero": (("front", 0, "k"), 0),
    "seed-negative": (("seed",), -7),
    "wallclock_ms-negative": (("wallclock_ms",), -3),
    # negative phase counts whose total still adds up
    "nlp-negative": (("nlp",), {"a1": -2, "a2": -4, "b1": 0, "b3": 0, "total": -6}),
    # well-typed documents whose sets or counts contradict each other
    "sets-overlap": (("infeasible",), [1]),
    "sets-miss-index": (("k_total",), 2),
    "k1c-twice": (("k1c",), [1, 1]),
    "nlp-a2-wrong": (("nlp",), {"a1": 2, "a2": 6, "b1": 0, "b3": 0, "total": 8}),
    # front points that disagree on realization 1: a second z, a longer y
    "front-z-disagrees": (("front", 1, "z"), [9.0]),
    "front-y-ragged": (("front", 1, "y"), [0.0, 0.0]),
    # a front point (1, 1) that the point (0, 1) dominates
    "front-dominated": (("front", 1, "j2"), 1.0),
    # two front points that claim realization 1's w0 solve
    "front-solve-twice": (("front", 1, "provenance"), "w0"),
}


class TestStrictReader:
    @pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
    def test_rejects(self, case):
        doc = make_report(_GOOD_FRONT).to_json_dict()
        _set(doc, *_BAD_FIELDS[case])
        with pytest.raises(ValueError):
            pp.PruneReport.from_json_dict(doc)

    @pytest.mark.parametrize("case, message", [("sets-overlap", "share realizations"),
                                               ("sets-miss-index", "do not cover"),
                                               ("k1c-twice", "twice"),
                                               ("nlp-a2-wrong", "contradict its sets"),
                                               ("front-z-disagrees", "disagree"),
                                               ("front-y-ragged", "disagree"),
                                               ("front-dominated", "dominates"),
                                               ("front-solve-twice", "one solve"),
                                               ("provenance-not-weight", "w<i>")])
    def test_rejects_contradicting_sets(self, case, message):
        good = make_report(_GOOD_FRONT)
        assert pp.PruneReport.from_json_dict(good.to_json_dict()) == good
        doc = make_report(_GOOD_FRONT).to_json_dict()
        _set(doc, *_BAD_FIELDS[case])
        with pytest.raises(ValueError, match=message):
            pp.PruneReport.from_json_dict(doc)

    @pytest.mark.parametrize("name", ["e1_ab", "e1_a", "e1_oracle"])
    def test_rejects_every_set_and_count_mutation(self, request, name):
        """A run's report reads back equal; moving an index into a second
        set, dropping one from a set, raising one solve count (and the
        total with it), giving one of a realization's front points
        another z or a longer y, adding a front point that another
        dominates, adding a second point of one solve (k, provenance), or
        giving a point a provenance other than "w<i>", i in 0..beta-1
        without a leading zero, makes it unreadable: a fake z would count
        as one more realization in ``compare``, and a dominated point would
        move its distances.  Under "none" only k1c is
        pinned by the rest of the report: ``infeasible`` then lists
        realizations no other field names."""
        report = request.getfixturevalue(name)
        doc = report.to_json_dict()
        assert pp.PruneReport.from_json_dict(doc) == report
        sets = ("k1m", "k1u", "k1c", "pruned_a", "pruned_b", "infeasible")
        mutants = []
        for src in sets:
            for dst in sets:
                if doc[src] and dst != src:
                    mutants.append({**doc, dst: doc[dst] + doc[src][:1]})
            if doc[src] and (report.phases != "none" or src == "k1c"):
                mutants.append({**doc, src: doc[src][1:]})
        for key in ("a1", "a2", "b1", "b3"):
            nlp = dict(doc["nlp"])
            nlp[key] += report.beta
            nlp["total"] += report.beta
            mutants.append({**doc, "nlp": nlp})
        ks = [p["k"] for p in doc["front"]]
        i = next(i for i, k in enumerate(ks) if ks.count(k) > 1)
        for field, value in (("z", [9.0, 9.0]), ("y", doc["front"][i]["y"] + [0.0])):
            front = list(doc["front"])
            front[i] = {**front[i], field: value}
            mutants.append({**doc, "front": front})
        first = doc["front"][0]
        worse = {**first, "j1": first["j1"] + 1.0, "j2": first["j2"] + 1.0}
        mutants.append({**doc, "front": doc["front"] + [worse]})
        # the first point's solve again, at another y: no other check sees it
        again = {**first, "y": [0.123] * len(first["y"])}
        mutants.append({**doc, "front": doc["front"] + [again]})
        for provenance in ("zzz", f"w{report.beta}", "w03"):
            mutants.append({**doc, "front": [{**first, "provenance": provenance},
                                             *doc["front"][1:]]})
        assert len(mutants) >= 10
        for mutant in mutants:
            with pytest.raises(ValueError):
                pp.PruneReport.from_json_dict(mutant)

    @pytest.mark.parametrize("case", ["beta-float", "k1m-float", "seed-string", "front-k-bool",
                                      "eps-nan", "phases-unknown", "k_total-negative",
                                      "pruned_a-out-of-range", "eps-negative", "beta-one",
                                      "seed-negative", "wallclock_ms-negative", "nlp-negative",
                                      "sets-overlap", "sets-miss-index", "nlp-a2-wrong",
                                      "front-z-disagrees", "front-y-ragged", "front-dominated",
                                      "provenance-not-weight"])
    def test_compare_exits_2_without_traceback(self, tmp_path, capsys, case):
        good = tmp_path / "good.json"
        write_report(make_report(_GOOD_FRONT), good)
        doc = json.loads(good.read_text())
        _set(doc, *_BAD_FIELDS[case])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("compare", "--a", str(good), "--b", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestHugeKTotal:
    def test_refused_in_bounded_memory(self, tmp_path, capsys):
        # a quad report edited to claim 2 000 000 realizations: refused as a
        # run's report that misses indices, without a set of every index
        # (141 MB under tracemalloc when the check built one)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert run_cli("run", "--problem", "quad", "--beta", "5", "--report", str(good),
                       "--front", str(tmp_path / "f.csv")) == 0
        doc = json.loads(good.read_text())
        doc["k_total"] = 2_000_000
        bad.write_text(json.dumps(doc))
        message = "report sets infeasible, pruned_a, pruned_b, k1c do not cover 1..2000000 exactly"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message}$"):
                pp.PruneReport.from_json_dict(doc)
            code = run_cli("compare", "--a", str(good), "--b", str(bad))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert peak < 4 * 2 ** 20


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
            f"|K1c|={len(e1_ab.k1c)} nlp={e1_ab.nlp.total} front={len(e1_ab.front.k)} pts"
        )
