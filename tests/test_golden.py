"""Pinned trace hashes of the 12 shipped runs: the behaviour contract.

Each shipped scenario runs on its distributed preset and re-targeted to the
centralized preset, with tracing on as `icncep run-sim` does. A change that
keeps every hash has not changed behaviour; a change that moves one must
update `golden/traces.json` and say why.
"""

import json
from pathlib import Path

import pytest

from icncep.sim import data_path, load_scenario, override_scenario, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden" / "traces.json").read_text())
RUNS = [
    (qid, mode)
    for qid in ("q1", "q2", "q3", "q4", "q5", "q6")
    for mode in ("centralized", "distributed")
]


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for qid, mode in RUNS:
        spec = load_scenario(str(data_path(qid + ".scn")))
        if mode == "centralized":
            spec = override_scenario(spec, topology="centralized", mode=mode)
        runs["%s/%s" % (qid, mode)] = run_scenario(spec)
    return runs


def test_golden_file_covers_every_shipped_run():
    assert sorted(GOLDEN) == sorted("%s/%s" % run for run in RUNS)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_trace_hash_matches_golden(traced_runs, label):
    assert traced_runs[label].trace_hash == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_shipped_run_ends_without_engine_errors(traced_runs, label):
    metrics = traced_runs[label]
    errors = {n: c["errors"] for n, c in metrics.nodes.items() if c.get("errors")}
    assert errors == {}
    assert not any(" error " in line for line in metrics.trace)
