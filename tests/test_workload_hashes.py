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
shipped runs. On every node of every run, each packet received is counted
under exactly one disposition.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from icncep.sim import run_scenario  # noqa: E402
from digests import results_digest, unbalanced_nodes, wire_digest  # noqa: E402

HASHES = {
    ("churn", 42): "874298902c1ac22716ce79df99608b8d56168301f732b11eabf9b15f2199f62b",
    ("churn", 7): "fb42b91060f399c7bfb7f1294b32791e030c24134f6648fb2012d97168c3feeb",
    ("mesh", 42): "b7b836d2b453d4838dadd00c956b7cf2cd74ff05b1f6cc841dce3b8f4bae9783",
}
RESULTS = {
    ("churn", 42): "91868e5eff2420b762f34bd243be139b59e101b908c43ea37446820773b85c91",
    ("churn", 7): "573765e90b524fba25279663c050058f06cb54edb28aa2ac8aa8f84e9f9abab0",
    ("mesh", 42): "2bac075dc258eebec1852e2fda25260438642ebcda828ded3de101970fcb3641",
}
WIRE = {
    ("churn", 42): "8790c077821e8498c2879ed09f8ceed9773ade7ff01812480a2ece98862fa3dc",
    ("churn", 7): "001e9284e7bf30b1b8c1c902335fd086d39f7b30c915f24faa6a5b6fe9002b1c",
    ("mesh", 42): "277ca1b8822156f1387108c6a2c30fbf1399bb14c48295016b1e27e4a94b2a95",
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


@pytest.mark.parametrize("workload, seed", list(HASHES))
def test_workload_dispositions_add_up_to_received(workload, seed, replays):
    assert unbalanced_nodes(replays(workload, seed)[0]) == {}
