"""Acceptance gate: runs the published benchmark commands end to end and
checks every criterion at its stated tolerance, printing one PASS/FAIL
line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Checks 1b and 2b compare the oracle's contributing z-set with a reference
built without the solver:
- e1: the argmin of each weighted sum over a dense x1 grid, for every
  realization, filtered by a pairwise brute-force dominance check;
- e2: the closed-form weighted-sum minimizers of the separable truss,
  shifted by every realization's offsets and filtered.
The contributing-set sizes tabulated for these benchmarks (4 for e1, 72
for e2) are not what the strict-dominance rule gives on the problems as
defined here.  e1's 4 also counts the w=0 anchor of z=(-1, 0), which ties
z=(0, -1) exactly in j2 and is worse in j1: weakly but not strictly
Pareto-optimal, which 1b shows on the grid reference.  e2's 72 is not
reproduced by any beta, eps or tie rule tried; its label records it.
"""

import json

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune.cli import main, read_report
from pareto_prune.core import nondominated_filter, nondominated_rows
from pareto_prune.decomposition import realization_from_index, weight_grid
from pareto_prune.pipeline import phase_a
from pareto_prune.solver import Solver
from conftest import dominates, make_fig_problem, make_scaled_e2, weakly_dominates


def criterion(label: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert condition, f"{label}{suffix}"


def _run(args):
    code = main(args)
    assert code == 0, f"command {' '.join(args)} exited {code}"


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _reports(outdir, problem, beta=21):
    """Pipeline (ab + a) and oracle reports for one problem, via the CLI."""
    paths = {}
    for mode, args in (
        ("ab", ["run", "--problem", problem, "--beta", str(beta), "--phases", "ab"]),
        ("a", ["run", "--problem", problem, "--beta", str(beta), "--phases", "a"]),
        ("oracle", ["oracle", "--problem", problem, "--beta", str(beta)]),
    ):
        path = outdir / f"{problem}_{mode}.json"
        if not path.exists():
            _run(args + ["--report", str(path)])
        paths[mode] = path
    return paths


@pytest.fixture(scope="module")
def e1_paths(outdir):
    return _reports(outdir, "e1")


@pytest.fixture(scope="module")
def e2_paths(outdir):
    return _reports(outdir, "e2")


@pytest.fixture(scope="module")
def quad_paths(outdir):
    return _reports(outdir, "quad")


@pytest.fixture(scope="module")
def toy_paths(outdir):
    return _reports(outdir, "toy-constrained")


def _retained_z(report, spec):
    return {realization_from_index(spec, k).z for k in report.k1c}


def _weights(beta):
    return np.arange(beta) / (beta - 1)


def _nondominated_z(points, zs, weak=False):
    """z-vectors of the rows of ``points`` that no other row dominates, by
    pairwise brute force.  With ``weak`` only a row strictly better in both
    objectives excludes another, so weakly Pareto-optimal rows stay."""
    a1, a2 = points[:, None, 0], points[:, None, 1]
    b1, b2 = points[None, :, 0], points[None, :, 1]
    if weak:
        dominated = (a1 < b1) & (a2 < b2)
    else:
        dominated = (a1 <= b1) & (a2 <= b2) & ((a1 < b1) | (a2 < b2))
    return {zs[i] for i in np.flatnonzero(~dominated.any(axis=0))}


E1_GRID_POINTS = 20_001


def _e1_grid_reference(spec, beta):
    """Objective points (and their z-vectors) of the beta weighted-sum
    minimizers of every e1 realization, each the argmin over a dense grid
    of the single continuous variable."""
    ((lo, hi),) = spec.bounds
    grid = np.linspace(lo, hi, E1_GRID_POINTS)[:, None]
    w = _weights(beta)[:, None]
    points, zs = [], []
    for k in range(1, spec._k_total + 1):
        z = realization_from_index(spec, k).z
        obj = np.asarray(spec.objectives(grid, np.asarray(z)))
        best = np.argmin(w * obj[:, 0] + (1.0 - w) * obj[:, 1], axis=1)
        points.append(obj[best])
        zs.extend([z] * beta)
    return np.concatenate(points), zs


def _e2_closed_form_reference(spec, beta):
    """Objective points (and their z-vectors) of the beta weighted-sum
    minimizers of every e2 realization.  The offsets do not depend on y,
    so each continuous bar minimizes w*a_i*y_i + (1-w)*b_i/y_i on its own:
    y_i = sqrt((1-w)*b_i / (w*a_i)) clipped to the bounds, with w=0 at the
    upper bounds.  a and b are the volume and displacement coefficients of
    the truss's continuously sized bars 1-3."""
    a = np.array([1.0, 1.0, 1.0])
    b = np.array([4.0, 1.0, 1.0])
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    ys = np.array(
        [hi] + [np.clip(np.sqrt((1.0 - w) * b / (w * a)), lo, hi) for w in _weights(beta)[1:]]
    )
    points, zs = [], []
    for k in range(1, spec._k_total + 1):
        z = realization_from_index(spec, k).z
        points.append(np.asarray(spec.objectives(ys, np.asarray(z))))
        zs.extend([z] * beta)
    return np.concatenate(points), zs


class TestCriterion1E1:
    def test_k_total(self, e1_paths):
        rep = read_report(e1_paths["ab"])
        orc = read_report(e1_paths["oracle"])
        criterion("1a e1 |K| = 121", rep.k_total == 121 and orc.k_total == 121)

    def test_oracle_contributing_size_reference(self, e1_paths, e1_spec):
        # reference: 20 001-point x1 grid argmin per weight and realization,
        # filtered pairwise; the tabulated 4 is its weakly optimal count
        orc = read_report(e1_paths["oracle"])
        points, zs = _e1_grid_reference(e1_spec, orc.beta)
        strict = _nondominated_z(points, zs)
        weak = _nondominated_z(points, zs, weak=True)
        criterion(
            "1b e1 oracle contributing z-set = dense-grid reference",
            orc.front_realizations() == strict,
            f"oracle {sorted(orc.front_realizations())}, reference {sorted(strict)}",
        )
        criterion(
            "1b e1 weakly Pareto-optimal reference = tabulated 4, adding only z=(-1, 0)",
            len(weak) == 4 and weak - strict == {(-1.0, 0.0)},
            f"weakly optimal {sorted(weak)}",
        )

    def test_pipeline_retained_set_equals_oracle_set(self, e1_paths, e1_spec):
        rep = read_report(e1_paths["ab"])
        orc = read_report(e1_paths["oracle"])
        same = _retained_z(rep, e1_spec) == orc.front_realizations()
        criterion("1c e1 pipeline K1c z-set = oracle contributing z-set", same)

    def test_k1u_size_within_one(self, e1_paths):
        rep = read_report(e1_paths["ab"])
        criterion(
            "1d e1 |K1u| = 5 +/- 1", abs(len(rep.k1u) - 5) <= 1, f"measured {len(rep.k1u)}"
        )


class TestCriterion2E2:
    def test_k_total(self, e2_paths):
        rep = read_report(e2_paths["ab"])
        orc = read_report(e2_paths["oracle"])
        criterion("2a e2 |K| = 4096", rep.k_total == 4096 and orc.k_total == 4096)

    def test_oracle_contributing_size_reference(self, e2_paths, e2_spec):
        # reference: closed-form minimizers of the separable truss at each
        # weight, shifted by every realization's offsets, then filtered
        orc = read_report(e2_paths["oracle"])
        points, zs = _e2_closed_form_reference(e2_spec, orc.beta)
        reference = {zs[i] for i in nondominated_rows(points).tolist()}
        criterion(
            "2b e2 oracle contributing z-set = closed-form reference "
            "(tabulated size 72 is not reproduced for make_e2)",
            orc.front_realizations() == reference,
            f"oracle {len(orc.k1c)}, reference {len(reference)}",
        )

    def test_pipeline_set_equals_oracle_set(self, e2_paths):
        rep = read_report(e2_paths["ab"])
        orc = read_report(e2_paths["oracle"])
        same = rep.front_realizations() == orc.front_realizations()
        criterion("2c e2 pipeline front z-set = oracle contributing z-set", same)

    def test_k1u_within_five_percent_of_907(self, e2_paths):
        rep = read_report(e2_paths["ab"])
        ok = abs(len(rep.k1u) - 907) <= 0.05 * 907
        criterion("2d e2 |K1u| within 5% of 907", ok, f"measured {len(rep.k1u)}")


class TestCriterion3OracleEquivalence:
    @pytest.mark.parametrize("problem", ["e1", "e2", "quad", "toy-constrained"])
    def test_phase_a_front_matches_oracle(self, problem, request):
        key = {"e1": "e1_paths", "e2": "e2_paths", "quad": "quad_paths",
               "toy-constrained": "toy_paths"}[problem]
        paths = request.getfixturevalue(key)
        code = main([
            "compare", "--a", str(paths["a"]), "--b", str(paths["oracle"]),
            "--tol", "1e-4",
        ])
        criterion(f"3 {problem} pipeline(a-only) vs oracle compare exit 0", code == 0)


class TestCriterion4CountIdentity:
    def test_all_ab_runs(self, e1_paths, e2_paths, quad_paths, toy_paths):
        reports = [read_report(p["ab"]) for p in (e1_paths, e2_paths, quad_paths, toy_paths)]
        reports.append(pp.run_pipeline(make_fig_problem(), beta=21, phases="ab"))
        ok = True
        for rep in reports:
            if rep.infeasible:
                continue
            expected = (
                2 * rep.k_total
                + rep.beta * len(rep.k1m)
                + (len(rep.k1u) - len(rep.k1m))
                + rep.beta * (len(rep.k1c) - len(rep.k1m))
            )
            ok = ok and rep.nlp.total == expected
        criterion("4 solve-count identity on every ab run", ok)


class TestCriterion5EfficiencyRatio:
    def test_e2_ratio(self, e2_paths):
        rep = read_report(e2_paths["ab"])
        ratio = rep.nlp.total / (rep.beta * rep.k_total)
        criterion("5a e2 N_AB/N_O <= 0.15", ratio <= 0.15, f"ratio {ratio:.4f}")

    def test_e1_ratio(self, e1_paths):
        rep = read_report(e1_paths["ab"])
        ratio = rep.nlp.total / (rep.beta * rep.k_total)
        criterion("5b e1 N_AB/N_O <= 0.16", ratio <= 0.16, f"ratio {ratio:.4f}")


class TestCriterion6Properties:
    def test_dominance_axioms(self):
        rng = np.random.default_rng(60)
        pts = [(a, b) for a, b in rng.random((200, 2)) * 10.0]
        ok = all(not dominates(p, p) for p in pts)
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if dominates(a, b):
                ok = ok and not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                ok = ok and dominates(a, c)
        criterion("6a dominance axioms", ok)

    def test_filter_matches_brute_force(self):
        rng = np.random.default_rng(61)
        pts = [(a, b) for a, b in rng.random((1000, 2))]
        fast = [pts[i] for i in nondominated_filter(pts).tolist()]
        slow = [
            p for i, p in enumerate(pts)
            if not any(
                q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                for j, q in enumerate(pts) if j != i
            )
        ]
        criterion("6b filter equals pairwise brute force (n=1000)", fast == slow)

    def test_utopia_lower_bound(self, e1_spec, config):
        ks = np.arange(1, e1_spec._k_total + 1)
        pa = phase_a(Solver(e1_spec, weight_grid(21), config), ks, 21)
        ok = True
        for k in ks[pa.master].tolist():
            for p in pa.fronts.pts[pa.fronts.k == k].tolist():
                ok = ok and weakly_dominates(pa.utopias[k - 1].tolist(), p, 1e-9)
        criterion("6c utopia weakly dominates every computed front point", ok)

    def test_gradient_agreement(self, e1_spec, e2_spec):
        from test_benchmarks import check_gradient

        rng = np.random.default_rng(62)
        check_gradient(e1_spec, 100, rng, keepout=lambda y: abs(y[0]) < 1e-3)
        check_gradient(e2_spec, 100, rng)
        criterion("6d analytic gradients match finite differences", True)

    def test_e2_scaling_invariance(self):
        # grid positions shift under scaling, so a coarse front keeps the
        # check exact; dominance decisions themselves are scale-free
        o1 = pp.oracle_front(pp.make_e2(), beta=3)
        o2 = pp.oracle_front(make_scaled_e2((2.5, 7.3)), beta=3)
        same = o1.front_realizations() == o2.front_realizations()
        criterion("6e e2 oracle contributing set invariant to positive scaling", same)

    def test_seeded_run_determinism(self, outdir):
        payloads = []
        for tag in ("one", "two"):
            report = outdir / f"det_{tag}.json"
            front = outdir / f"det_{tag}.csv"
            _run(["run", "--problem", "e1", "--beta", "5", "--seed", "7",
                  "--report", str(report), "--front", str(front)])
            payloads.append((report.read_bytes(), front.read_bytes()))
        (ra, fa), (rb, fb) = payloads
        da = json.loads(ra)
        db = json.loads(rb)
        da.pop("wallclock_ms")
        db.pop("wallclock_ms")
        criterion("6f seeded reruns byte-identical (timing field aside)", da == db and fa == fb)
