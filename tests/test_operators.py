"""Operator runtime semantics, checked against independent oracles.

Each oracle here is a separate, deliberately naive computation of the same
quantity (nested loops, re-binning, direct arithmetic). They were written
before the implementations and stay frozen.
"""

import math
import random
import statistics

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep import operators
from icncep.operators import (
    EmptyWindow,
    Operator,
    OutOfOrderTuple,
    PredictState,
    UnknownAttribute,
    WindowState,
    aggregate_eval,
    compile_condition,
    compile_join,
    filter_eval,
    heatmap_eval,
    join_eval,
    predict_eval,
    sequence_eval,
    window_insert,
)
from icncep.packet import Schema, Tuple
from icncep.query import (
    GPS_SCHEMA,
    PLUG_SCHEMA,
    AttrRef,
    BoolOp,
    Comparison,
    Duration,
    NumberLit,
    SchemaCtx,
    SemanticError,
    create_operator_graph,
    default_streams,
    parse_query,
)


def gps(ts, lat=49.9, lon=8.65, speed=10.0, sid=1.0):
    return Tuple.from_values(
        "gps", (ts, sid, lat, lon, 120.0, 5.0, 0.0, speed)
    )


def plug(ts, value, plug_id=7.0, household_id=3.0, house_id=1.0):
    return Tuple.from_values(
        "plug", (ts, 0.0, value, 1.0, plug_id, household_id, house_id)
    )


GPS_CTX = SchemaCtx.single("GPS_S1", GPS_SCHEMA)
GPS2_CTX = SchemaCtx.single("GPS_S2", GPS_SCHEMA)


def cond_of(query_text):
    """Pull the validated boolean expression out of a FILTER/JOIN parse."""
    tree = parse_query(query_text)
    return tree.params[-1]


def keep(rows, expr, ctx):
    """FILTER as the engine runs it: compiled once, then evaluated."""
    return filter_eval(rows, compile_condition(expr, ctx))


def join(left, right, cond, left_ctx, right_ctx):
    """JOIN as the engine runs it, without a memo."""
    return join_eval(left, right, compile_join(cond, left_ctx, right_ctx))


# ---------------------------------------------------------------------------
# window


def test_window_insert_into_empty():
    st0 = WindowState((), Duration(4, "s"))
    st1, evicted = window_insert(st0, gps(1000))
    assert [t.ts for t in st1.buffer] == [1000]
    assert evicted == []


def test_window_eviction_rule():
    # rule: keep exactly the tuples with newest.ts - ts < extent
    st0 = WindowState((gps(1000), gps(2000)), Duration(4, "s"))
    st1, evicted = window_insert(st0, gps(5000))
    assert [t.ts for t in evicted] == [1000]  # 5000-1000 >= 4000
    assert [t.ts for t in st1.buffer] == [2000, 5000]

    st2, evicted2 = window_insert(
        WindowState((gps(1000), gps(2000)), Duration(4, "s")), gps(4999)
    )
    assert evicted2 == []
    assert [t.ts for t in st2.buffer] == [1000, 2000, 4999]


def test_window_out_of_order_rejected():
    st0 = WindowState((gps(2000),), Duration(4, "s"))
    with pytest.raises(OutOfOrderTuple):
        window_insert(st0, gps(1999))
    # equal timestamps are in order
    st1, _ = window_insert(st0, gps(2000))
    assert len(st1.buffer) == 2


def test_count_window_keeps_last_n():
    st0 = WindowState((), 3)
    for ts in (1, 2, 3, 4, 5):
        st0, evicted = window_insert(st0, gps(ts * 1000))
    assert [t.ts for t in st0.buffer] == [3000, 4000, 5000]
    assert [t.ts for t in evicted] == [2000]


@given(
    steps=st.lists(st.integers(min_value=0, max_value=6000), min_size=1, max_size=60)
)
@settings(max_examples=120, deadline=None)
def test_window_conservation(steps):
    state = WindowState((), Duration(4, "s"))
    inserted, out = [], []
    ts = 0
    for step in steps:
        ts += step
        t = gps(ts)
        inserted.append(t)
        state, evicted = window_insert(state, t)
        out.extend(evicted)
        # every insert is in exactly one place
        buffered = list(state.buffer)
        assert sorted(buffered + out, key=id) is not None
        assert len(buffered) + len(out) == len(inserted)
        for item in inserted:
            assert (item in buffered) != (item in out)
        newest = state.buffer[-1].ts
        assert all(newest - t2.ts < 4000 for t2 in buffered)


# ---------------------------------------------------------------------------
# filter


def test_filter_latitude_threshold():
    tuples = [gps(1000, lat=49.5), gps(2000, lat=50.2)]
    expr = cond_of("FILTER(WINDOW(GPS_S1, 4s), 'latitude'<50)")
    kept = keep(tuples, expr, GPS_CTX)
    assert [t.values[2] for t in kept] == [49.5]


def test_filter_compares_a_time_literal_as_ms_since_midnight():
    tuples = [gps(500), gps(1000), gps(1500)]
    expr = cond_of("FILTER(WINDOW(GPS_S1, 4s), 'ts' > 00:00:01.000)")
    assert [t.ts for t in keep(tuples, expr, GPS_CTX)] == [1500]


def test_filter_unsatisfiable_conjunction():
    schema = Schema("t2", ("ts", "a", "b"))
    ctx = SchemaCtx.single("T2", schema)
    rows = [Tuple.from_values("t2", (i, float(i), 0.0)) for i in range(1, 20)]
    expr = cond_of("FILTER(WINDOW(GPS_S1, 4s), 'speed'<5 & 'speed'>10)")
    # reuse shape over the ad-hoc schema: rebuild on 'a'
    from icncep.query import AttrRef, BoolOp, Comparison, NumberLit

    expr = BoolOp(
        "&",
        Comparison(AttrRef("a"), "<", NumberLit(5.0)),
        Comparison(AttrRef("a"), ">", NumberLit(10.0)),
    )
    assert keep(rows, expr, ctx) == []


def test_filter_union_matches_naive_oracle():
    from icncep.query import AttrRef, BoolOp, Comparison, NumberLit

    schema = Schema("t2", ("ts", "a", "b"))
    ctx = SchemaCtx.single("T2", schema)
    rng = random.Random(4)
    rows = [
        Tuple.from_values("t2", (i, float(rng.randint(0, 3)), float(rng.randint(0, 3))))
        for i in range(1, 40)
    ]
    expr = BoolOp(
        "|",
        Comparison(AttrRef("a"), "=", NumberLit(1.0)),
        Comparison(AttrRef("b"), "=", NumberLit(2.0)),
    )
    expected = [t for t in rows if t.values[1] == 1.0 or t.values[2] == 2.0]
    assert keep(rows, expr, ctx) == expected


def test_filter_preserves_order_and_idempotent():
    rng = random.Random(11)
    rows = [gps(ts * 1000, lat=rng.uniform(49, 51)) for ts in range(1, 30)]
    expr = cond_of("FILTER(WINDOW(GPS_S1, 4s), 'latitude'<50)")
    once = keep(rows, expr, GPS_CTX)
    assert once == [t for t in rows if t.values[2] < 50]
    assert keep(once, expr, GPS_CTX) == once


def test_filter_unknown_attribute_fails_to_compile():
    from icncep.query import AttrRef, Comparison, NumberLit

    expr = Comparison(AttrRef("no_such"), "<", NumberLit(1.0))
    with pytest.raises(UnknownAttribute):
        compile_condition(expr, GPS_CTX)


# ---------------------------------------------------------------------------
# join


JOIN_TS_COND = cond_of(
    "JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 4s), GPS_S1.'ts' = GPS_S2.'ts')"
)


def test_join_on_equal_ts_two_each():
    left = [gps(1000, lat=49.1, lon=8.1), gps(2000, lat=49.2, lon=8.2)]
    right = [gps(1000, lat=49.8, lon=8.8), gps(2000, lat=49.9, lon=8.9)]
    out = join(left, right, JOIN_TS_COND, GPS_CTX, GPS2_CTX)
    assert len(out) == 2
    for row in out:
        assert len(row.values) == 16
    assert out[0].values[2] == 49.1 and out[0].values[10] == 49.8
    assert out[0].ts == 1000 and out[1].ts == 2000


def test_join_empty_side():
    right = [gps(1000)]
    assert join([], right, JOIN_TS_COND, GPS_CTX, GPS2_CTX) == []
    assert join(right, [], JOIN_TS_COND, GPS_CTX, GPS2_CTX) == []


def test_join_tautology_is_cross_product():
    left = [gps(ts * 1000) for ts in range(1, 4)]
    right = [gps(ts * 1000) for ts in range(1, 6)]
    cond = cond_of("JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 4s), 'ts'='ts')")
    out = join(left, right, cond, GPS_CTX, GPS2_CTX)
    assert len(out) == len(left) * len(right)


@given(
    lts=st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8),
    rts=st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_join_matches_nested_loop_oracle(lts, rts):
    left = [gps(ts * 1000, lat=float(ts)) for ts in sorted(lts)]
    right = [gps(ts * 1000, lat=float(ts) + 0.5) for ts in sorted(rts)]
    out = join(left, right, JOIN_TS_COND, GPS_CTX, GPS2_CTX)
    oracle = []
    for l in left:  # frozen nested-loop oracle
        for r in right:
            if l.ts == r.ts:
                oracle.append(l.values + r.values)
    assert [row.values for row in out] == oracle


def test_join_unknown_alias_fails_to_compile():
    from icncep.query import AttrRef, Comparison

    cond = Comparison(AttrRef("ts", alias="NOPE"), "=", AttrRef("ts", alias="GPS_S2"))
    with pytest.raises(UnknownAttribute):
        compile_join(cond, GPS_CTX, GPS2_CTX)


# ---------------------------------------------------------------------------
# compiled conditions and the hash join, against a frozen row-by-row oracle


def oracle_eval(expr, values, ctx):
    """Frozen row-by-row evaluator: resolves every reference on every row."""
    if isinstance(expr, BoolOp):
        left = oracle_eval(expr.left, values, ctx)
        right = oracle_eval(expr.right, values, ctx)
        return (left and right) if expr.op == "&" else (left or right)
    sides = []
    for ref in (expr.left, expr.right):
        if isinstance(ref, AttrRef):
            try:
                sides.append(values[ctx.resolve(ref)])
            except SemanticError as err:
                raise UnknownAttribute(str(err)) from err
        else:
            sides.append(ref.value)
    lhs, rhs = sides
    if isinstance(lhs, str) != isinstance(rhs, str):
        return False
    return {
        "=": lhs == rhs, "<": lhs < rhs, ">": lhs > rhs, "<=": lhs <= rhs, ">=": lhs >= rhs,
    }[expr.op]


def oracle_join(left, right, cond, left_ctx, right_ctx):
    joined = left_ctx.join(right_ctx)
    return [
        (l.ts, joined.schema_id, l.values + r.values)
        for l in left
        for r in right
        if oracle_eval(cond, l.values + r.values, joined)
    ]


def as_rows(tuples):
    return [(t.ts, t.schema_id, t.values) for t in tuples]


L_CTX = SchemaCtx.single("L", Schema("l", ("ts", "k", "x")))
R_CTX = SchemaCtx.single("R", Schema("r", ("ts", "k", "y")))
NAN = math.nan
EQUI = Comparison(AttrRef("k", "L"), "=", AttrRef("k", "R"))
TAUTOLOGY = Comparison(AttrRef("ts"), "=", AttrRef("ts"))
TERMS = [
    EQUI,
    Comparison(AttrRef("k", "R"), "=", AttrRef("k", "L")),  # reversed operands
    Comparison(AttrRef("ts", "L"), "=", AttrRef("ts", "R")),
    Comparison(AttrRef("x"), "=", AttrRef("y")),  # unqualified, one per side
    Comparison(AttrRef("x", "L"), "<", AttrRef("y", "R")),
    Comparison(AttrRef("k", "L"), ">=", NumberLit(1.0)),
    TAUTOLOGY,  # both sides resolve into the left segment
    Comparison(NumberLit(2.0), ">", AttrRef("x", "L")),  # a literal on the left
    Comparison(NumberLit(1.0), "<", NumberLit(2.0)),  # literals on both sides
    Comparison(NumberLit(2.0), "<", NumberLit(1.0)),
]
# ints against int-valued floats, text against numbers, shared and fresh NaNs
KEYS = st.one_of(
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, NAN, "1", "a", True]),
    st.floats(allow_infinity=False),
)
VALUES = st.one_of(st.integers(min_value=0, max_value=3), st.floats(0, 3), st.just("t"))
CONDS = st.recursive(
    st.sampled_from(TERMS),
    lambda inner: st.builds(BoolOp, st.sampled_from("&|"), inner, inner),
    max_leaves=4,
)


def side(schema_id):
    return st.lists(
        st.builds(
            lambda ts, k, v: Tuple.from_values(schema_id, (ts * 1000, k, v)),
            st.integers(min_value=1, max_value=3),
            KEYS,
            VALUES,
        ),
        max_size=6,
    )


@given(left=side("l"), right=side("r"), cond=CONDS)
@settings(max_examples=400, deadline=None)
def test_join_matches_row_by_row_oracle(left, right, cond):
    want = oracle_join(left, right, cond, L_CTX, R_CTX)
    assert as_rows(join(left, right, cond, L_CTX, R_CTX)) == want


@given(rows=side("l"), cond=CONDS)
@settings(max_examples=200, deadline=None)
def test_filter_matches_row_by_row_oracle(rows, cond):
    ctx = L_CTX.join(R_CTX)
    wide = [Tuple(ts=t.ts, schema_id="w", values=t.values + t.values) for t in rows]
    want = [t for t in wide if oracle_eval(cond, t.values, ctx)]
    assert keep(wide, cond, ctx) == want


@pytest.mark.parametrize(
    "condition, kept",
    [("50 > 'latitude'", 1), ("1 < 2", 4), ("2 < 1", 0)],
)
def test_a_parsed_filter_with_literal_operands_matches_the_oracle(condition, kept):
    rows = [gps(1000 * i, lat=49.0 + i / 2) for i in range(1, 5)]  # 49.5 .. 51.0
    cond = cond_of("FILTER(WINDOW(GPS_S1, 4s), %s)" % condition)
    got = keep(rows, cond, GPS_CTX)
    assert got == [t for t in rows if oracle_eval(cond, t.values, GPS_CTX)]
    assert len(got) == kept


@given(cond=CONDS)
@settings(max_examples=100, deadline=None)
def test_an_unknown_alias_anywhere_fails_to_compile(cond):
    bad = BoolOp("&", cond, Comparison(AttrRef("k", "NOPE"), "=", AttrRef("k", "R")))
    with pytest.raises(UnknownAttribute):
        compile_join(bad, L_CTX, R_CTX)
    with pytest.raises(UnknownAttribute):
        compile_condition(bad, L_CTX.join(R_CTX))


@pytest.mark.parametrize(
    "cond, key",
    [
        (EQUI, (1, 1)),
        (TERMS[1], (1, 1)),
        (TERMS[3], (2, 2)),
        (BoolOp("&", TERMS[4], BoolOp("&", TAUTOLOGY, EQUI)), (1, 1)),
        (BoolOp("|", EQUI, TERMS[4]), None),
        (TAUTOLOGY, None),
        (TERMS[4], None),
    ],
)
def test_join_key_is_an_equality_across_the_inputs(cond, key):
    assert compile_join(cond, L_CTX, R_CTX).key == key


def test_hash_join_key_equality():
    keys = [1, 1.0, "1", NAN, float("nan"), -0.0]
    left = [Tuple.from_values("l", (1000, k, 0)) for k in keys]
    right = [Tuple.from_values("r", (1000, k, 0)) for k in keys]
    pairs = [(l.values[1], r.values[1]) for l in left for r in right]
    out = join(left, right, EQUI, L_CTX, R_CTX)
    got = [(t.values[1], t.values[4]) for t in out]
    # numbers match equal numbers, text never matches a number, and no NaN
    # matches, not even the same object
    assert got == [(a, b) for a, b in pairs if a == b and isinstance(a, str) == isinstance(b, str)]
    assert ("1", 1) not in got and (NAN, NAN) not in got
    assert (1, 1.0) in got and (1.0, 1) in got


def test_join_rows_off_their_schema_width_take_the_nested_loop():
    # a longer left row shifts where the right columns sit in the joined row
    left = [Tuple.from_values("l", (1000, 1000, 0, 2000))]
    right = [Tuple.from_values("r", (k, 1, 0)) for k in (1000, 2000)]
    want = oracle_join(left, right, EQUI, L_CTX, R_CTX)
    assert [row[2][4] for row in want] == [1000]
    assert as_rows(join(left, right, EQUI, L_CTX, R_CTX)) == want


# ---------------------------------------------------------------------------
# aggregates

SPEED = AttrRef("speed")


def test_aggregate_basics():
    rows = [gps(1000, speed=1.0), gps(2000, speed=2.0), gps(3000, speed=3.0)]
    out = aggregate_eval("SUM", SPEED, rows, GPS_CTX)
    assert out.values[1] == 6.0 and out.ts == 3000
    rows2 = [gps(1000, speed=2.0), gps(2000, speed=4.0)]
    assert aggregate_eval("AVG", SPEED, rows2, GPS_CTX).values[1] == 3.0
    assert aggregate_eval("MIN", SPEED, rows2, GPS_CTX).values[1] == 2.0
    assert aggregate_eval("MAX", SPEED, rows2, GPS_CTX).values[1] == 4.0
    assert aggregate_eval("COUNT", SPEED, rows2, GPS_CTX).values[1] == 2.0


def test_aggregate_empty_window():
    assert aggregate_eval("COUNT", SPEED, [], GPS_CTX).values[1] == 0.0
    assert aggregate_eval("SUM", SPEED, [], GPS_CTX).values[1] == 0.0
    for kind in ("MIN", "MAX", "AVG"):
        with pytest.raises(EmptyWindow):
            aggregate_eval(kind, SPEED, [], GPS_CTX)


def test_aggregate_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        aggregate_eval("SUM", AttrRef("no_such"), [gps(1000)], GPS_CTX)


@given(
    speeds=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
@settings(max_examples=150, deadline=None)
def test_avg_times_count_equals_sum(speeds):
    rows = [gps((i + 1) * 1000, speed=v) for i, v in enumerate(speeds)]
    total = aggregate_eval("SUM", SPEED, rows, GPS_CTX).values[1]
    avg = aggregate_eval("AVG", SPEED, rows, GPS_CTX).values[1]
    count = aggregate_eval("COUNT", SPEED, rows, GPS_CTX).values[1]
    assert math.isclose(avg * count, total, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# sequence


def test_sequence_orderings():
    assert sequence_eval([gps(1000)], [gps(2000)]).values[1] == 1.0
    assert sequence_eval([gps(2000)], [gps(1000)]).values[1] == 0.0
    assert sequence_eval([gps(1000)], [gps(1000)]).values[1] == 0.0


@given(
    ats=st.lists(st.integers(min_value=0, max_value=20), max_size=8),
    bts=st.lists(st.integers(min_value=0, max_value=20), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_sequence_matches_exists_pair_oracle(ats, bts):
    """In any row order, ties included, the result is the pairwise scan's."""
    a = [gps(ts) for ts in ats]
    b = [gps(ts) for ts in bts]
    matched = any(x.ts < y.ts for x in a for y in b)  # frozen oracle: the pairwise form
    newest = max(ats + bts, default=0)
    assert sequence_eval(a, b) == Tuple.from_values("bool", (newest, 1.0 if matched else 0.0))


# ---------------------------------------------------------------------------
# heat map


def test_heatmap_dimensions():
    grid, skipped = heatmap_eval([], 0.25, (0.0, 1.0, 0.0, 1.0), GPS_CTX)
    assert len(grid) == 4 and all(len(r) == 4 for r in grid)
    assert skipped == 0


def test_heatmap_origin_tuple():
    grid, _ = heatmap_eval([gps(1000, lat=0.0, lon=0.0)], 0.25, (0.0, 1.0, 0.0, 1.0), GPS_CTX)
    assert grid[0][0] == 1
    assert sum(map(sum, grid)) == 1


def test_heatmap_row_is_latitude():
    # lat offset 0.9 -> row 3; long offset 0.1 -> col 0
    grid, _ = heatmap_eval([gps(1000, lat=0.9, lon=0.1)], 0.25, (0.0, 1.0, 0.0, 1.0), GPS_CTX)
    assert grid[3][0] == 1


def test_heatmap_matches_rebinning_oracle():
    rng = random.Random(21)
    bounds = (49.0, 50.0, 8.0, 9.0)
    cell = 0.1
    rows = [
        gps((i + 1) * 1000, lat=rng.uniform(49.0, 49.999), lon=rng.uniform(8.0, 8.999))
        for i in range(100)
    ]
    grid, skipped = heatmap_eval(rows, cell, bounds, GPS_CTX)
    # frozen oracle: independent floor-binning pass
    expected = [[0] * 10 for _ in range(10)]
    for t in rows:
        row = math.floor((t.values[2] - bounds[0]) / cell)
        col = math.floor((t.values[3] - bounds[2]) / cell)
        expected[row][col] += 1
    assert grid == expected
    assert sum(map(sum, grid)) == 100 and skipped == 0


def test_heatmap_out_of_bounds_skipped_and_conserved():
    bounds = (49.0, 50.0, 8.0, 9.0)
    rows = [
        gps(1000, lat=49.5, lon=8.5),
        gps(2000, lat=48.0, lon=8.5),  # below lat_min
        gps(3000, lat=49.5, lon=9.5),  # beyond long_max
        gps(4000, lat=50.0, lon=8.5),  # exactly lat_max: index VC, outside
    ]
    grid, skipped = heatmap_eval(rows, 0.1, bounds, GPS_CTX)
    assert skipped == 3
    assert sum(map(sum, grid)) + skipped == len(rows)


@pytest.mark.parametrize("lat", ["49.5", math.nan, math.inf])
def test_heatmap_coordinate_that_is_not_a_finite_number(lat):
    with pytest.raises(UnknownAttribute):
        rows = [gps(1000, lat=49.5), gps(2000, lat=lat)]
        heatmap_eval(rows, 0.1, (49.0, 50.0, 8.0, 9.0), GPS_CTX)


# ---------------------------------------------------------------------------
# prediction

PLUG_CTX = SchemaCtx.single("PLUG_S1", PLUG_SCHEMA)
HORIZON = Duration(5, "m")
SLOT = Duration(1, "m")


def load(prediction):
    """The forecast a `prediction` tuple carries."""
    return prediction.values[4]


def minute_window(base_ts, values):
    step = 60000 // max(len(values), 1)
    return [plug(base_ts - 60000 + (i + 1) * step, v) for i, v in enumerate(values)]


def test_predict_fixed_example():
    # current avg 10, historical same-slot averages {8, 12, 10}: median 10
    epoch = 300000
    slot = (epoch // 60000) % (86400000 // 60000)
    window = minute_window(epoch, [10.0, 10.0])
    hist = PredictState(history={slot: [8.0, 12.0, 10.0]}, last_ts=epoch - 10000)
    state, out = predict_eval(window, HORIZON, hist, SLOT)
    assert out is not None and load(out) == 20.0


def test_predict_missing_history_falls_back():
    epoch = 300000
    window = minute_window(epoch, [10.0, 10.0])
    state, out = predict_eval(window, HORIZON, PredictState(), SLOT)
    assert out is not None and load(out) == 10.0


def test_predict_constant_load_doubles():
    c = 7.5
    epoch = 600000
    slot = (epoch // 60000) % (86400000 // 60000)
    window = minute_window(epoch, [c, c, c])
    hist = PredictState(history={slot: [c, c]}, last_ts=epoch - 10000)
    _, out = predict_eval(window, HORIZON, hist, SLOT)
    assert load(out) == 2 * c


def test_predict_ramp_load():
    # direct arithmetic oracle on a ramp
    epoch = 300000
    values = [4.0, 8.0, 12.0]
    window = minute_window(epoch, values)
    cur = sum(values) / len(values)
    slot = (epoch // 60000) % (86400000 // 60000)
    hist_avgs = [2.0, 6.0, 4.0]
    hist = PredictState(history={slot: list(hist_avgs)}, last_ts=epoch - 10000)
    _, out = predict_eval(window, HORIZON, hist, SLOT)
    assert load(out) == pytest.approx(cur + statistics.median(hist_avgs))


def test_predict_non_epoch_returns_nothing():
    window = minute_window(290000, [10.0])
    state, out = predict_eval(window, HORIZON, PredictState(last_ts=280000), SLOT)
    assert out is None
    assert state.last_ts == 290000


def test_predict_epoch_crossing_and_fields():
    window = [plug(300010, 6.0, plug_id=2.0, household_id=5.0, house_id=9.0)]
    state, out = predict_eval(window, HORIZON, PredictState(last_ts=299000), SLOT)
    assert out == Tuple.from_values("prediction", (300000, 2.0, 5.0, 9.0, 6.0))
    assert out.ts == 300000  # pinned to the epoch boundary
    # current slot average recorded into history for later epochs
    assert any(state.history.values())


def test_predict_stores_average_for_future_epochs():
    slot_ms = 60000
    state = PredictState(last_ts=-1)
    out1 = None
    # two epochs of constant 5.0 then one of 15.0, same slot-of-day forced by
    # wrapping: keep it simple and reuse one slot via identical offsets
    w1 = minute_window(300000, [5.0, 5.0])
    state, out1 = predict_eval(w1, HORIZON, state, SLOT)
    assert load(out1) == 5.0  # empty history fallback
    # same slot next day
    day = 86400000
    w2 = minute_window(300000 + day, [15.0])
    state, out2 = predict_eval(w2, HORIZON, state, SLOT)
    assert load(out2) == 15.0 + 5.0


def test_predict_text_load_is_an_unknown_attribute():
    window = [plug(300010, 6.0), plug(300020, "6.0")]
    with pytest.raises(UnknownAttribute):
        predict_eval(window, HORIZON, PredictState(last_ts=299000), SLOT)


# ---------------------------------------------------------------------------
# installed two-input operators

TWO_INPUT_QUERIES = {
    "JOIN": "JOIN(WINDOW(GPS_S1, 3), WINDOW(GPS_S2, 3), GPS_S1.'s_id' = GPS_S2.'s_id')",
    "SEQUENCE": "SEQUENCE(WINDOW(GPS_S1, 3) -> WINDOW(GPS_S2, 3))",
}


@given(
    kind=st.sampled_from(sorted(TWO_INPUT_QUERIES)),
    # (side, rows as (ts, s_id), watermark) per feed, in the order they arrive
    feeds=st.lists(
        st.tuples(
            st.sampled_from([0, 1]),
            st.lists(st.tuples(st.integers(0, 9000), st.sampled_from([1.0, 2.0])), max_size=4),
            st.integers(0, 12),
        ),
        max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
def test_a_two_input_operator_evaluates_its_latest_inputs_once_both_have_output(kind, feeds):
    root = create_operator_graph(TWO_INPUT_QUERIES[kind], default_streams())
    op = Operator(root)
    kernel = "join_eval" if kind == "JOIN" else "sequence_eval"
    latest, emitted, evaluated = {}, [], 0
    with mock.patch.object(operators, kernel, wraps=getattr(operators, kernel)) as calls:
        for side, picks, wm in feeds:
            child = root.children[side].index
            rows = [gps(ts, sid=sid) for ts, sid in picks]
            got = op.feed(child, rows, wm)
            latest[child] = (rows, wm)
            if len(latest) < 2:
                assert got is None and calls.call_count == 0
                continue
            least = min(w for _, w in latest.values())
            if least <= (emitted[-1] if emitted else -1):
                assert got is None and calls.call_count == evaluated  # no kernel call
                continue
            evaluated += 1
            left, right = (latest[c.index][0] for c in root.children)
            if kind == "JOIN":
                want = join_eval(left, right, op.cond)
            else:
                want = [sequence_eval(left, right)]
            assert got == ((want, least) if want else None)
            if want:
                emitted.append(least)
        assert calls.call_count == evaluated
    assert all(a < b for a, b in zip(emitted, emitted[1:]))
