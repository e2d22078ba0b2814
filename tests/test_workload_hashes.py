"""Pinned trace hashes, result digests and wire digests of the benchmark's
generated `churn` and `mesh` runs.

`golden/traces.json` pins the 12 shipped runs, which hold one query each.
These runs load what those do not: queries that come and go, pollers'
Remove+Add pairs and multi-hop forwarding on a cyclic mesh. Each is built by
`bench/workloads.py` and replayed once with tracing on, as the benchmark's
reference pass replays it. A change that moves one of these trace hashes has
changed behaviour and must say why. The result digest (what the consumers
received, `digests.results_digest`) should hold even then, unless the change
says why it moves. The wire digest pins the `encode_packet` bytes of every
link send (`digests.wire_digest`), which `golden/wire.json` pins only for the
shipped runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from icncep.sim import run_scenario  # noqa: E402
from digests import results_digest, wire_digest  # noqa: E402

HASHES = {
    ("churn", 42): "4123ffb17ca20a13354e63766083d604922ae7533a5b124ba3ba70d085b2f259",
    ("churn", 7): "21b3481d72b39fa1a774dfaddf068e50a77ec5494de1eb6442d0c81fddd200fe",
    ("mesh", 42): "49360c08f0e76167b72d114b9977dc41dc18c5ca400f134a997fe2c41ed4198b",
}
RESULTS = {
    ("churn", 42): "91868e5eff2420b762f34bd243be139b59e101b908c43ea37446820773b85c91",
    ("churn", 7): "8dcbfb2f780267faa59cc0d7b7baa27049092bf536fa2a8721337b0cc540f4a6",
    ("mesh", 42): "2bac075dc258eebec1852e2fda25260438642ebcda828ded3de101970fcb3641",
}
WIRE = {
    ("churn", 42): "925dd386e3cada179143d30317bd2d703ed5ac12c86d10149314958def579a0d",
    ("churn", 7): "febdc09a0a479a861272144e15fb70c24169f79090bb055dd662608f2fe04e0b",
    ("mesh", 42): "5115c5b9acdc44899e69df66ddb24eff3552beeb5b732beed166cb47eb95aad1",
}


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """(metrics, wire digest) per pinned run, each replayed once on first use."""
    done = {}

    def replay(workload, seed):
        if (workload, seed) not in done:
            (run,) = workloads.build(workload, seed, tmp_path_factory.mktemp(workload))
            with wire_digest() as digest:
                metrics = run_scenario(run.load())
            done[workload, seed] = metrics, digest.hexdigest()
        return done[workload, seed]

    return replay


@pytest.mark.parametrize("workload, seed", list(HASHES))
def test_workload_trace_hash_is_pinned(workload, seed, replays):
    assert replays(workload, seed)[0].trace_hash == HASHES[workload, seed]


@pytest.mark.parametrize("workload, seed", list(RESULTS))
def test_workload_results_digest_is_pinned(workload, seed, replays):
    assert results_digest(replays(workload, seed)[0]) == RESULTS[workload, seed]


@pytest.mark.parametrize("workload, seed", list(WIRE))
def test_workload_wire_digest_is_pinned(workload, seed, replays):
    assert replays(workload, seed)[1] == WIRE[workload, seed]
