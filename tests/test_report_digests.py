"""Pinned bytes of the registry reports: each run's JSON report without its
``wallclock_ms`` hashes (SHA-256) to the value recorded here.  A refactor
that should leave every report bitwise unchanged fails here if it does
not.  Recorded at seed 0 and beta 21; a change that moves a report on
purpose re-records its digest and says why."""

import hashlib

import pytest

import pareto_prune as pp
from pareto_prune.cli import dumps_json

DIGESTS = {
    ("e1", "ab", 0.0): "f160101e3fdfc7f32d2cc32506be78654e81f8043e5324406f7ce5f45e79345e",
    ("e1", "a", 0.0): "6195ed271d83706a8faaf878759b3afce1c354fb7379db0b47f97fd5f2e779e7",
    ("e1", "none", 0.0): "344673bab7b7afafff15d41f7fb4d5b0f4bca76942fe480512edb7bc34a23dc0",
    ("e2", "ab", 0.0): "cac54f04d6eb20b8084a0464c6e8838dc3e63c4e0339a5ec71b582b6d00b5b34",
    ("e2", "a", 0.0): "2f0f78753ca5b925cda8652f7cff256474f2cfdf56427e9541e2de303fbc56fa",
    ("e2", "none", 0.0): "113c2938289d7e0133f99230df82c9fc1c0022a8a77565b22fddf716f6589b30",
    ("quad", "ab", 0.0): "8d2cececd5a7c38ca46f5b74143ff24278b914f91bc0dd6174cca7591b88e19b",
    ("quad", "a", 0.0): "3562fcb787bdc5cfe9bb4602c00091acebc06dd29574c26e2b1631457f463e12",
    ("quad", "none", 0.0): "02b25bff5d2f9164ee7c80d0da7a44e12ea32316cf3cfb1210002afd05b3b618",
    ("toy-constrained", "ab", 0.0): "3fdae35731e0bb397a06f047ed32a7a4a3e9e2e6545479415bfb96a56ff21672",
    ("toy-constrained", "a", 0.0): "3f92153e33ad606ac6124df2344f41beb39046e8639d845fe31a763017fd3a34",
    ("toy-constrained", "none", 0.0): "6c9d6ed3389d4e32708f691dcc9e35f6f9861ac02d736e5d1c09da124f507b9e",
    ("e1", "ab", 0.01): "7607262de8a7bc70ffbb3a3610166f0059fae1b34572a2dfa7d17242498ed1ae",
    ("e1", "a", 0.01): "d21411233a852b6497347520918f983e39cb91f35a5eba1a048d6167095b8567",
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
