"""Pinned bytes of the registry reports: the values under CONTENT_KEYS of
each run's JSON report hash (SHA-256) to the value recorded here.  A
refactor that should leave every report bitwise unchanged fails here if it
does not; a key added to the report later is listed in LATER_KEYS and moves
no pin.  Recorded at seed 0 and beta 21; a change that moves a report on
purpose re-records its digest and says why.  e1's values follow numpy's
SIMD dispatch in their last bits, so each e1 run also pins its decisions
alone (ROW_DIGESTS), which hold under every dispatch level, and its front
values agree within VALUE_TOL with a run under numpy's switch to dispatch
as on a CPU without AVX-512.  An e1 byte digest that fails names the exp
dispatch it saw and the one it was recorded at.  To re-record, run
``PYTHONPATH=src python tests/test_report_digests.py``: it prints the
numpy version and exp dispatch, then the DIGESTS and ROW_DIGESTS tables of
the code in the checkout."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune.cli import dumps_json
from conftest import NO_AVX512, dispatch_note, exp_dispatch

# the keys a report digest hashes, in the order a report writes them
CONTENT_KEYS = ("problem", "beta", "phases", "eps", "seed", "k_total", "k1m", "k1u", "k1c",
                "pruned_a", "pruned_b", "infeasible", "nlp", "front")
# the report's keys added after the digests were recorded: none yet
LATER_KEYS = frozenset()
SETS = ("k1m", "k1u", "k1c", "pruned_a", "pruned_b", "infeasible")

DIGESTS = {
    ("e1", "ab", 0.0): "9f5af10ca8dff580f0235631f1ec5110d8e157d2c85a63a077721846c0c4e667",
    ("e1", "a", 0.0): "e3b03c635513fdac8f45c89ef30c02a1822dd8358e390037d3103548ca28cfe0",
    ("e1", "none", 0.0): "cdfe7b46d9709fd3b08e5e500628856e893283a64549ac616aa6180dea72eebc",
    ("e2", "ab", 0.0): "5b1e5918cf462b50f897f857cc29e60a6713e5a82e7ebd8152b5c32a2d2aa5e1",
    ("e2", "a", 0.0): "997c42cca0c6fdffbf374517462109a2e1b33c6594a24e062e9b5b96430ddf36",
    ("e2", "none", 0.0): "7e1ccd00b72a7914f7c97e7a5c5b5025bcdbbe18b0941443f51c7c26cdc31ed7",
    ("quad", "ab", 0.0): "88fef89d78a609f5780f3c402b10b56c781544472382e8f30a292e0ecfce9faa",
    ("quad", "a", 0.0): "32f4509c63b3022e1d88a9849203926560d3151987657de70d609d1d8d12ce15",
    ("quad", "none", 0.0): "1a077f7db6034fce1a0d04925dae3c953847b0aa83359401e5d08c247f2e343d",
    ("toy-constrained", "ab", 0.0): "37feac4fd00b672c3682eb090cc7d2f4efa1d780bd278ed270a891a585da2d4c",
    ("toy-constrained", "a", 0.0): "3109c427c696babbc328961b14fb54f7712ffc64578239560b4758f28d44dd9e",
    ("toy-constrained", "none", 0.0): "be69f452a520de984a05bb626190c6eaaa2a91edaa0969e9933ba4a687fe42b6",
    ("e1", "ab", 0.01): "ec94cca2ff85998daf3916292bc4a48c63e0a254e279c73648066655bfa39e19",
    ("e1", "a", 0.01): "4c1064e3e493f73d3ee84cc78df76353994398487eb88def7725583829885c4b",
    ("e1", "none", 0.01): "df9129d4414251df8dbe2a0e5f1554dcfba88179a95e6f877d0279856e102aba",
    ("e2", "a", 0.01): "4e5c55b9e545733a3c72ffdfec170d015a3de73f917c9f9be6e89384aa748bc7",
    ("quad", "none", 0.01): "331f9f168ced06d4ab863b6d000edbd5607c93bb11c06a6c3497ff287ac0f59f",
}

# the e1 runs of DIGESTS, each pinned by the SHA-256 of its six sets, its
# counts and its front's (k, provenance) rows alone: the same under numpy's
# default dispatch and under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR", where the e1 byte digests above move
ROW_DIGESTS = {
    ("e1", "ab", 0.0): "07ac36ee067c4c5e8c00d30b539f457ffdce7bd2a89072776157b956c39928fc",
    ("e1", "a", 0.0): "703541ba9ba573426bb10d2e268931734571ff2324ca9c7614c87559e9c0677c",
    ("e1", "none", 0.0): "476674442819c6b8cd4dd748f36c69910dc25e3045337d92c62b3f7d70bcac73",
    ("e1", "ab", 0.01): "81b0575ac1ea06b9a8573a5e29a2f693d48f8ca572fd7ad4b7b5050815feda9b",
    ("e1", "a", 0.01): "c15632f20c1f85d5e377b2581a9d0770e6c3776cca360e0ee60a6a9e9cf893ad",
    ("e1", "none", 0.01): "69f1e1b1ec8f5c17851525cd971cfc54b8e44a8560fb8dc4bbb53d28a262fdd5",
}

# largest difference of a front value (y, j1, j2) between the two dispatch
# levels, relative to max(1, |value|); e1 measured 6.1e-11 under numpy 2.4
VALUE_TOL = 1e-9

# the session fixtures of conftest.py that hold the same run
FIXTURES = {("e1", "ab", 0.0): "e1_ab", ("e1", "a", 0.0): "e1_a", ("e1", "none", 0.0): "e1_oracle"}


def _sha256(doc) -> str:
    return hashlib.sha256(dumps_json(doc).encode("utf-8")).hexdigest()


def content_digest(doc: dict) -> str:
    """The SHA-256 of the values of a report document under CONTENT_KEYS."""
    return _sha256({key: doc[key] for key in CONTENT_KEYS})


def report_digest(report: pp.PruneReport) -> str:
    return content_digest(report.to_json_dict())


def _rows(doc: dict) -> dict:
    """A report document's sets, counts and front (k, provenance) rows."""
    return {**{key: doc[key] for key in SETS}, "nlp": doc["nlp"],
            "front": [[p["k"], p["provenance"]] for p in doc["front"]]}


def row_digest(report: pp.PruneReport) -> str:
    """The SHA-256 of a report's sets, counts and front (k, provenance) rows."""
    return _sha256(_rows(report.to_json_dict()))


def _run(request, problem, phases, eps) -> pp.PruneReport:
    fixture = FIXTURES.get((problem, phases, eps))
    if fixture is not None:
        return request.getfixturevalue(fixture)
    return pp.run_pipeline(pp.get_problem(problem), beta=21, phases=phases, eps=eps)


@pytest.mark.parametrize("problem,phases,eps", list(DIGESTS), ids=lambda v: str(v))
def test_report_matches_recorded_digest(problem, phases, eps, request):
    report = _run(request, problem, phases, eps)
    assert report_digest(report) == DIGESTS[problem, phases, eps], (
        dispatch_note() if problem == "e1" else "")


@pytest.mark.parametrize("problem,phases,eps", list(ROW_DIGESTS), ids=lambda v: str(v))
def test_sets_counts_and_front_rows_match_recorded_digest(problem, phases, eps, request):
    report = _run(request, problem, phases, eps)
    assert row_digest(report) == ROW_DIGESTS[problem, phases, eps]


_WITHOUT_AVX512 = """
import json, sys
sys.path[:0] = sys.argv[1:]
import pareto_prune as pp
from conftest import exp_dispatch
from test_report_digests import ROW_DIGESTS
print(json.dumps({"dispatch": exp_dispatch(), "reports": [
    pp.run_pipeline(pp.get_problem(problem), beta=21, phases=phases, eps=eps).to_json_dict()
    for problem, phases, eps in ROW_DIGESTS]}))
"""


def test_e1_values_agree_within_tolerance_without_avx512(request):
    # the e1 byte digests record one dispatch level; across levels the
    # decisions are equal and every front value lies within VALUE_TOL
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_AVX512, here, src], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    where = f"exp dispatch {exp_dispatch()} here, {out['dispatch']} without AVX-512"
    assert len(out["reports"]) == len(ROW_DIGESTS)
    for run, other in zip(ROW_DIGESTS, out["reports"]):
        doc = _run(request, *run).to_json_dict()
        assert _rows(doc) == _rows(other), (run, where)
        for field in ("y", "j1", "j2"):
            a, b = (np.array([p[field] for p in d["front"]], float) for d in (doc, other))
            worst = float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max(initial=0.0))
            assert worst <= VALUE_TOL, (run, field, worst, where)


def _keys_pinned(doc: dict) -> bool:
    """Whether a report document has CONTENT_KEYS and ``wallclock_ms``, in
    that order, and LATER_KEYS besides, and no other key."""
    return (tuple(key for key in doc if key not in LATER_KEYS) == CONTENT_KEYS + ("wallclock_ms",)
            and LATER_KEYS <= doc.keys())


def test_report_keys_are_the_pinned_ones(e1_ab):
    doc = e1_ab.to_json_dict()
    assert _keys_pinned(doc)
    assert not _keys_pinned({**doc, "explain": []})  # a key added without its listing
    assert not _keys_pinned({key: doc[key] for key in reversed(doc)})
    assert not _keys_pinned({key: doc[key] for key in doc if key != "nlp"})


def _changed(value):
    """``value`` with one part changed."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, dict):
        return {**value, "a1": value["a1"] + 1}
    if isinstance(value, list):
        return value[1:] if value else [1]
    return value + 1


def test_each_content_key_moves_the_digest(e1_ab):
    doc = e1_ab.to_json_dict()
    digest = content_digest(doc)
    assert content_digest({**doc, "wallclock_ms": doc["wallclock_ms"] + 1}) == digest
    for key in CONTENT_KEYS:
        assert content_digest({**doc, key: _changed(doc[key])}) != digest, key


if __name__ == "__main__":
    print(f"# numpy {np.__version__}, float64 exp dispatched to {exp_dispatch()}")
    for name, table, digest in (("DIGESTS", DIGESTS, report_digest),
                                ("ROW_DIGESTS", ROW_DIGESTS, row_digest)):
        print(f"{name} = {{")
        for problem, phases, eps in table:
            report = pp.run_pipeline(pp.get_problem(problem), beta=21, phases=phases, eps=eps)
            print(f'    ("{problem}", "{phases}", {eps!r}): "{digest(report)}",')
        print("}")
