"""Pinned trace hashes of the benchmark's generated `churn` and `mesh` runs.

`golden/traces.json` pins the 12 shipped runs, which hold one query each.
These runs load what those do not: queries that come and go, pollers'
Remove+Add pairs and multi-hop forwarding on a cyclic mesh. Each is built by
`bench/workloads.py` and replayed with tracing on, as the benchmark's
reference pass replays it. A change that moves one of these hashes has
changed behaviour and must say why.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from icncep.sim import run_scenario  # noqa: E402

HASHES = {
    ("churn", 42): "4123ffb17ca20a13354e63766083d604922ae7533a5b124ba3ba70d085b2f259",
    ("churn", 7): "21b3481d72b39fa1a774dfaddf068e50a77ec5494de1eb6442d0c81fddd200fe",
    ("mesh", 42): "49360c08f0e76167b72d114b9977dc41dc18c5ca400f134a997fe2c41ed4198b",
}


@pytest.mark.parametrize("workload, seed", list(HASHES))
def test_workload_trace_hash_is_pinned(workload, seed, tmp_path):
    (run,) = workloads.build(workload, seed, tmp_path)
    assert run_scenario(run.load()).trace_hash == HASHES[workload, seed]
