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
    ("churn", 42): "e1f935a9c90922d63470359d6375f62c75957a2f66253972a63340f0756f4d4c",
    ("churn", 7): "ae58f495df0a82728b66e9813efcf61721ad51d0faf63bc6d011688fce364a6a",
    ("mesh", 42): "1c575a19f9199329606cd71b819b2ccb0bdffb8df5df81cbdd4da43d4420cca7",
}
RESULTS = {
    ("churn", 42): "91868e5eff2420b762f34bd243be139b59e101b908c43ea37446820773b85c91",
    ("churn", 7): "8dcbfb2f780267faa59cc0d7b7baa27049092bf536fa2a8721337b0cc540f4a6",
    ("mesh", 42): "2bac075dc258eebec1852e2fda25260438642ebcda828ded3de101970fcb3641",
}
WIRE = {
    ("churn", 42): "e02c1a7446f1f625335763ad5190a26dc26c81d73ce633549b6a905e0f00787d",
    ("churn", 7): "30cce25a34f560232cdb2d2333ca061545ff6decbe6688ae2222acf2d8086c39",
    ("mesh", 42): "fd955b85916407ed280cdb97a9d1475c62022f6d8dacd2ab871b2d0401a037e4",
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
