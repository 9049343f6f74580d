"""The benchmark's recorded report digests (perfbench/baseline.json), from
the main suite: a change that moves any report of a benchmark workload
fails here, not only in the benchmark's own output check."""

import json

import pytest

from pareto_prune.cli import dumps_json
from conftest import load_perfbench

workloads, checks = load_perfbench("workloads", "checks")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["e2-ab", "e1-oracle", "gen-constrained"])
def test_report_matches_recorded_digest(workload, seed):
    recorded = checks.recorded_digest(workload, seed)
    assert recorded is not None
    spec = workloads.build_spec(workload, seed)
    doc = json.loads(dumps_json(workloads.run(workload, spec, seed).to_json_dict()))
    assert checks.check_report(doc, spec, workload, seed, recorded) == []
