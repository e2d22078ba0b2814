"""Operator work as the benchmark's tracer counts it, pinned per shipped run.

`bench/layers.Tracer` wraps each operator function and reads its rows from
fixed argument and result positions: the rows first for FILTER, HEATMAP and
PREDICT, `join_eval(left, right, ...)`, the rows third for `aggregate_eval`,
and `(state, out)` from `window_insert` and `predict_eval`. A signature change
that moves the rows changes these counts, so it shows here and not only in
`bench/run.py --trace 1`.

An installed FILTER calls `filter_eval` on the rows appended to its input
only. An installed JOIN calls `join_eval` only on its nested-loop path and
HEATMAP never calls `heatmap_eval` (both keep their own state), so the
hash joins of q3 and q4 and q4's heat map count nothing here.
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
    # FILTER over a WINDOW, then a hash JOIN: each filter call tests one new row
    "q3": ({"window": (1200, 1200, 4788), "filter": (1200, 1200, 1200)}, 0),
    "q4": ({"window": (1200, 1200, 68460)}, 0),
    "q6": (
        {"window": (720, 720, 4290), "filter": (13, 13, 6), "predict": (720, 4290, 26)},
        0,
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
