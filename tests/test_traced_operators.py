"""Operator work as the benchmark's tracer counts it, pinned per shipped run.

`bench/layers.Tracer` wraps each operator function and reads its rows from
fixed argument and result positions: the rows first for FILTER, HEATMAP and
PREDICT, `join_eval(left, right, ...)`, the rows third for `aggregate_eval`,
and `(state, out)` from `window_insert` and `predict_eval`. A signature change
that moves the rows changes these counts, so it shows here and not only in
`bench/run.py --trace 1`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from icncep.sim import data_path, load_scenario, run_scenario  # noqa: E402

# (calls, rows_in, rows_out) by operator kind, and the join's pairs; kinds
# left out make no call
PINNED = {
    "q4": (
        {"window": (1200, 1200, 68460), "join": (600, 68460, 34230), "heatmap": (600, 34230, 600)},
        2017810,
    ),
    "q6": (
        {
            "window": (720, 720, 4290),
            "filter": (13, 13, 6),
            "join": (13, 26, 13),
            "predict": (720, 4290, 26),
        },
        13,
    ),
}


@pytest.mark.parametrize("qid", sorted(PINNED))
def test_traced_operator_counts_of_a_shipped_run(qid):
    tracer = layers.Tracer()
    tracer.install()
    try:
        run_scenario(load_scenario(str(data_path(qid + ".scn"))), collect_trace=False)
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    counts = tracer.counts
    got = {
        kind: (
            calls.get("operators." + kind, (0,))[0],
            counts["operators.%s.rows_in" % kind],
            counts["operators.%s.rows_out" % kind],
        )
        for kind in layers.OPERATOR_KINDS
    }
    made, pairs = PINNED[qid]
    assert got == {kind: made.get(kind, (0, 0, 0)) for kind in layers.OPERATOR_KINDS}
    assert counts["operators.join.pairs"] == pairs
