"""Pinned trace hashes and wire digests of the 12 shipped runs.

Each shipped scenario runs on its distributed preset and re-targeted to the
centralized preset, with tracing on as `icncep run-sim` does. A change that
keeps every hash has not changed behaviour; a change that moves one must
update `golden/traces.json` and say why.

The trace names each packet but not its payload, so `golden/wire.json` pins
the bytes as well: per run, the sha256 over the `encode_packet` bytes of
every packet the simulator puts on a link, in the order it puts them there.
Query-control packets carry text nonces such as "q1:1", which the codec's
64-bit nonce field cannot hold; they are encoded with a zero nonce, which
has the same width.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from icncep.packet import AddQueryInterest, RemoveQueryInterest, encode_packet
from icncep.sim import Simulator, data_path, load_scenario, override_scenario, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "traces.json").read_text())
WIRE = json.loads((GOLDEN_DIR / "wire.json").read_text())
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
    digest = hashlib.sha256()
    original = Simulator._dispatch

    def dispatch(self, node, face_id, packet, at):
        before = self._seq
        original(self, node, face_id, packet, at)
        # a packet put on a link takes one sequence number as its uid and
        # one for its delivery; application deliveries and dropped stream
        # packets take fewer
        if self._seq == before + 2:
            if isinstance(packet, (AddQueryInterest, RemoveQueryInterest)):
                packet = replace(packet, nonce=0)
            digest.update(encode_packet(packet))

    Simulator._dispatch = dispatch
    try:
        metrics = run_scenario(spec)
    finally:
        Simulator._dispatch = original
    return metrics, digest.hexdigest()


@pytest.fixture(scope="module")
def traced_runs():
    return {"%s/%s" % run: run_shipped(*run) for run in RUNS}


def test_golden_file_covers_every_shipped_run():
    assert sorted(GOLDEN) == sorted("%s/%s" % run for run in RUNS)


def test_wire_golden_covers_every_shipped_run():
    assert sorted(WIRE) == sorted("%s/%s" % run for run in RUNS)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_trace_hash_matches_golden(traced_runs, label):
    assert traced_runs[label][0].trace_hash == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(WIRE))
def test_wire_bytes_match_golden(traced_runs, label):
    assert traced_runs[label][1] == WIRE[label]


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_shipped_run_ends_without_engine_errors(traced_runs, label):
    metrics = traced_runs[label][0]
    errors = {n: c["errors"] for n, c in metrics.nodes.items() if c.get("errors")}
    assert errors == {}
    assert not any(" error " in line for line in metrics.trace)
