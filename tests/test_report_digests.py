"""Pinned bytes of the registry reports: each run's JSON report without its
``wallclock_ms`` hashes (SHA-256) to the value recorded here.  A refactor
that should leave every report bitwise unchanged fails here if it does
not.  Recorded at seed 0 and beta 21; a change that moves a report on
purpose re-records its digest and says why.  To re-record, run
``PYTHONPATH=src python tests/test_report_digests.py``: it prints the
DIGESTS table of the code in the checkout."""

import hashlib

import pytest

import pareto_prune as pp
from pareto_prune.cli import dumps_json

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

# the session fixtures of conftest.py that hold the same run
FIXTURES = {("e1", "ab", 0.0): "e1_ab", ("e1", "a", 0.0): "e1_a", ("e1", "none", 0.0): "e1_oracle"}


def report_digest(report: pp.PruneReport) -> str:
    doc = report.to_json_dict()
    del doc["wallclock_ms"]
    return hashlib.sha256(dumps_json(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("problem,phases,eps", list(DIGESTS), ids=lambda v: str(v))
def test_report_matches_recorded_digest(problem, phases, eps, request):
    fixture = FIXTURES.get((problem, phases, eps))
    if fixture is not None:
        report = request.getfixturevalue(fixture)
    else:
        report = pp.run_pipeline(pp.get_problem(problem), beta=21, phases=phases, eps=eps)
    assert report_digest(report) == DIGESTS[problem, phases, eps]


if __name__ == "__main__":
    print("DIGESTS = {")
    for problem, phases, eps in DIGESTS:
        report = pp.run_pipeline(pp.get_problem(problem), beta=21, phases=phases, eps=eps)
        print(f'    ("{problem}", "{phases}", {eps!r}): "{report_digest(report)}",')
    print("}")
