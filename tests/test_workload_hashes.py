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
    ("churn", 42): "ac9cfd918f4c79a9b11e8454121e4bac4ec0f7178094fb4d1638a1c953ddbba5",
    ("churn", 7): "23f68f119fdb23c84421e753f21186e45af95d1996c9d2eddc145c81f0b2d1ce",
    ("mesh", 42): "90cb63b1e901e115e33afe74f035727283d9c7152911581a6ba86f756beb69e0",
}
RESULTS = {
    ("churn", 42): "91868e5eff2420b762f34bd243be139b59e101b908c43ea37446820773b85c91",
    ("churn", 7): "573765e90b524fba25279663c050058f06cb54edb28aa2ac8aa8f84e9f9abab0",
    ("mesh", 42): "2bac075dc258eebec1852e2fda25260438642ebcda828ded3de101970fcb3641",
}
WIRE = {
    ("churn", 42): "53f7485a751960fa205bfd1982d2d28a056123c8ee75cd071cb723a90a6d8118",
    ("churn", 7): "c1f0e18f9c6c320ba676b61b45296a7f7a717dc5966edaf3c643f7f0956337fd",
    ("mesh", 42): "cfa2c8884a7efd36bfdb047ec060db9d8306a97cea8aa8ddbc5dbc7bda259c48",
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
