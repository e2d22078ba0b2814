"""Pinned trace hashes and wire digests of the 12 shipped runs.

Each shipped scenario runs on its distributed preset and re-targeted to the
centralized preset, with tracing on as `icncep run-sim` does. A change that
keeps every hash has not changed behaviour; a change that moves one must
update `golden/traces.json` and say why.

The trace names each packet but not its payload, so `golden/wire.json` pins
the bytes as well: per run, the sha256 over the `encode_packet` bytes of
every packet the simulator puts on a link, in the order it puts them there
(`digests.wire_digest`). `golden/results.json` pins what the consumers
received, with no times, uids or nonces (`digests.results_digest`), so a
change that must move a trace hash can show that the results held.
"""

import json
from pathlib import Path

import pytest

from icncep.sim import data_path, load_scenario, override_scenario, run_scenario
from digests import results_digest, unbalanced_nodes, wire_digest

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "traces.json").read_text())
WIRE = json.loads((GOLDEN_DIR / "wire.json").read_text())
RESULTS = json.loads((GOLDEN_DIR / "results.json").read_text())
RUNS = [
    (qid, mode)
    for qid in ("q1", "q2", "q3", "q4", "q5", "q6")
    for mode in ("centralized", "distributed")
]


def run_shipped(qid, mode):
    """Run one shipped scenario; return its metrics and its wire digest."""
    spec = load_scenario(str(data_path(qid + ".scn")))
    if mode == "centralized":
        spec = override_scenario(spec, topology="centralized", mode=mode)
    with wire_digest() as digest:
        metrics = run_scenario(spec)
    return metrics, digest.hexdigest()


@pytest.fixture(scope="module")
def traced_runs():
    return {"%s/%s" % run: run_shipped(*run) for run in RUNS}


def test_golden_file_covers_every_shipped_run():
    assert sorted(GOLDEN) == sorted("%s/%s" % run for run in RUNS)


def test_wire_golden_covers_every_shipped_run():
    assert sorted(WIRE) == sorted("%s/%s" % run for run in RUNS)


def test_results_golden_covers_every_shipped_run():
    assert sorted(RESULTS) == sorted("%s/%s" % run for run in RUNS)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_trace_hash_matches_golden(traced_runs, label):
    assert traced_runs[label][0].trace_hash == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(WIRE))
def test_wire_bytes_match_golden(traced_runs, label):
    assert traced_runs[label][1] == WIRE[label]


@pytest.mark.parametrize("label", sorted(RESULTS))
def test_results_match_golden(traced_runs, label):
    assert results_digest(traced_runs[label][0]) == RESULTS[label]


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_shipped_run_ends_without_engine_errors(traced_runs, label):
    metrics = traced_runs[label][0]
    errors = {n: c["errors"] for n, c in metrics.nodes.items() if c.get("errors")}
    assert errors == {}
    assert not any(" error " in line for line in metrics.trace)
    assert unbalanced_nodes(metrics) == {}
