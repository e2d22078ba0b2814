"""Node data-plane behavior: query handling, evaluation, classic pull."""

import base64
import json
import math
import operator
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep import engine, sim
from icncep.engine import (
    APP_FACE,
    Engine,
    EVAL_COST_MS,
    FaceDef,
    NodeConfig,
    OpInstance,
)
from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    Interest,
    Name,
    RemoveQueryInterest,
    Tuple,
)
from icncep.query import canonical_text, create_operator_graph, default_streams, query_hash

Q1 = "WINDOW(GPS_S1, 4s)"
Q2 = "FILTER(WINDOW(GPS_S1, 4s),'latitude'<50)"


class FakeServices:
    def __init__(self):
        self.sent = []
        self.clock = 0
        self.timers = []
        self.events = []
        self.delays = {}
        self.charges = []

    def send(self, node_id, face_id, packet):
        self.sent.append((node_id, face_id, packet))

    def now(self):
        return self.clock

    def schedule(self, delay_ms, fn):
        self.timers.append((self.clock + delay_ms, fn))

    def local_delay_ms(self, node_id):
        return self.delays.get(node_id, 1.0)

    def charge(self, node_id, ms):
        self.charges.append((node_id, ms))

    def event(self, node_id, kind, payload):
        self.events.append((node_id, kind, payload))

    def fire_timers(self):
        timers, self.timers = self.timers, []
        for _, fn in timers:
            fn()


def gps_packet(ts, lat=49.5):
    t = Tuple.from_values("gps", (ts, 1.0, lat, 8.65, 120.0, 5.0, 0.0, 10.0))
    return DataStream(stream_name=Name.from_uri("/node/p1/gps"), tuple=t)


def single_broker():
    svc = FakeServices()
    cfg = NodeConfig(
        node_id="b1",
        role="broker",
        faces=[FaceDef(1, "c1"), FaceDef(2, "p1")],
        streams=default_streams(),
        fib_routes=[("/node/p1", 2), ("/node/c1", 1)],
        mode="centralized",
    )
    return Engine(cfg, svc), svc


def sent_to(svc, face_id, kind=None):
    out = [p for n, f, p in svc.sent if f == face_id]
    if kind is not None:
        out = [p for p in out if isinstance(p, kind)]
    return out


def notifications(svc, face_id):
    return [
        p
        for p in sent_to(svc, face_id, Data)
        if p.name.components and p.name.components[0] == "ce"
    ]


# ---------------------------------------------------------------------------
# add / evaluate / notify on one broker


def test_add_installs_instances_and_pit_entry():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    assert len(eng.instances) == 2
    assert len(list(eng.pit.query_entries())) == 1
    deployed = [p for n, k, p in svc.events if k == "query_deployed"]
    assert len(deployed) == 1
    assert deployed[0]["placement_sim_ms"] == 0.0
    assert deployed[0]["mode"] == "centralized"


def test_qualifying_tuple_produces_notification():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000, lat=49.5), in_face=2)
    out = notifications(svc, 1)
    assert len(out) == 1
    doc = json.loads(out[0].payload)
    assert doc["ts"] == 1000
    assert len(doc["rows"]) == 1
    assert doc["rows"][0][2] == 49.5


def test_push_economy_one_add_n_tuples_n_notifications():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    for i in range(1, 6):
        eng.handle_packet(gps_packet(i * 1000), in_face=2)
    assert len(notifications(svc, 1)) == 5


def test_timestamp_gate_blocks_duplicates_and_stale():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    eng.handle_packet(gps_packet(1000), in_face=2)  # same ts: gated
    eng.handle_packet(gps_packet(500), in_face=2)  # older: gated
    eng.handle_packet(gps_packet(2000), in_face=2)
    out = notifications(svc, 1)
    assert [p.ts for p in out] == [1000, 2000]


def test_notification_ts_strictly_increases():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    for ts in (1000, 3000, 3000, 7000, 6000, 9000):
        eng.handle_packet(gps_packet(ts), in_face=2)
    seq = [p.ts for p in notifications(svc, 1)]
    assert seq == sorted(set(seq))


def test_cs_hit_answers_repeat_add_without_state_change():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    before_instances = dict(eng.instances)
    svc.sent.clear()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    replies = sent_to(svc, 2, Data)
    assert len(replies) == 1
    assert replies[0].ts == 1000
    assert json.loads(replies[0].payload)["ts"] == 1000
    assert eng.instances == before_instances
    entry = list(eng.pit.query_entries())[0]
    assert entry.faces == {1}  # the snapshot reply did not subscribe face 2


def test_stale_cache_not_served_after_newer_tuple():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000, lat=49.5), in_face=2)  # cached at 1000
    # 6000 evicts the 1000 row and is itself filtered out: nothing new cached
    eng.handle_packet(gps_packet(6000, lat=51.0), in_face=2)
    svc.sent.clear()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    # the 1000-ts snapshot is older than the newest processed tuple: no reply,
    # the repeat add lands in the PIT instead
    assert sent_to(svc, 2, Data) == []
    entry = list(eng.pit.query_entries())[0]
    assert entry.faces == {1, 2}


def test_duplicate_add_same_face_is_idempotent():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    snapshot = (len(eng.instances), len(eng.pit), len(svc.events))
    for k in range(3):
        eng.handle_packet(AddQueryInterest(query=Q2, nonce="n%d" % (k + 5)), in_face=1)
    assert (len(eng.instances), len(eng.pit), len(svc.events)) == snapshot


def test_second_face_subscribes_and_both_notified():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    eng.handle_packet(gps_packet(1000), in_face=2)
    assert len(notifications(svc, 1)) == 1
    assert len(notifications(svc, 2)) == 1


def test_remove_is_per_face():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    eng.handle_packet(RemoveQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    assert len(notifications(svc, 1)) == 0
    assert len(notifications(svc, 2)) == 1
    eng.handle_packet(RemoveQueryInterest(query=Q2, nonce="n2"), in_face=2)
    assert list(eng.pit.query_entries()) == []
    svc.sent.clear()
    eng.handle_packet(gps_packet(2000), in_face=2)
    assert notifications(svc, 1) == [] and notifications(svc, 2) == []


def test_remove_unknown_query_is_dropped():
    eng, svc = single_broker()
    eng.handle_packet(RemoveQueryInterest(query=Q1, nonce="nx"), in_face=1)
    assert svc.sent == []
    assert eng.counters.get("dropped", 0) == 1


@pytest.mark.parametrize("text", ["WINDOW(", "WINDOW(GPSé, 4s)"])
def test_malformed_query_nacked(text):
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=text, nonce="n9"), in_face=1)
    out = sent_to(svc, 1, Data)
    assert len(out) == 1
    assert out[0].name.components[0] == "nack"
    assert out[0].name.components[1] == "n9"
    assert out[0].payload  # carries the parser diagnostic
    assert eng.instances == {} and eng._parsed == {}


def test_malformed_queries_are_nacked_every_time_and_never_memoized():
    eng, svc = single_broker()
    texts = ["FILTER(WINDOW(GPS_S1, %ds), 'latitude' <" % k for k in range(1, 21)]
    with mock.patch.object(engine, "create_operator_graph", wraps=create_operator_graph) as parse:
        for nonce in ("a", "b"):
            for k, text in enumerate(texts):
                eng.handle_packet(AddQueryInterest(query=text, nonce="%s%d" % (nonce, k)), in_face=1)
    nacks = [p.name.components for p in sent_to(svc, 1, Data)]
    assert nacks == [("nack", "%s%d" % (n, k)) for n in "ab" for k in range(20)]
    assert parse.call_count == 40
    assert eng._parsed == {}


def test_a_re_add_reports_the_parse_that_built_its_memo_entry():
    """A text is parsed once per engine; each accept carries that parse's time."""
    eng, svc = single_broker()

    def slow(text, streams=None):
        time.sleep(0.01)
        return create_operator_graph(text, streams)

    with mock.patch.object(engine, "create_operator_graph", side_effect=slow) as parse:
        for k in range(3):
            eng.handle_packet(RemoveQueryInterest(query=Q2, nonce="r%d" % k), in_face=1)
            eng.handle_packet(AddQueryInterest(query=Q2, nonce="n%d" % k), in_face=1)
    accepted = [p["graph_real_ms"] for n, k, p in svc.events if k == "query_accepted"]
    assert parse.call_count == 1 and len(accepted) == 3
    assert accepted[0] >= 10.0 and accepted == [accepted[0]] * 3
    assert list(eng._parsed) == [Q2]


def test_evaluation_charges_compute_cost():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    charged = {ms for _, ms in svc.charges}
    assert EVAL_COST_MS["WINDOW"] in charged
    assert EVAL_COST_MS["FILTER"] in charged


def test_delay_service_answers():
    eng, svc = single_broker()
    svc.delays["b1"] = 3.5
    eng.handle_packet(Interest(name=Name.from_uri("/node/b1/delay")), in_face=1)
    out = sent_to(svc, 1, Data)
    assert len(out) == 1
    assert float(out[0].payload) == 3.5


# ---------------------------------------------------------------------------
# join evaluation and operator state


QJ = "JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 4s), GPS_S1.'ts' = GPS_S2.'ts')"


def gps2_packet(ts):
    t = Tuple.from_values("gps", (ts, 2.0, 49.6, 8.66, 120.0, 5.0, 0.0, 10.0))
    return DataStream(stream_name=Name.from_uri("/node/p2/gps"), tuple=t)


def test_join_behind_a_stale_side_is_charged_but_not_evaluated(monkeypatch):
    eng, svc = single_broker()
    calls = []
    real = engine.join_eval
    monkeypatch.setattr(engine, "join_eval", lambda *args: calls.append(args) or real(*args))
    eng.handle_packet(AddQueryInterest(query=QJ, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    eng.handle_packet(gps2_packet(1000), in_face=2)
    assert len(calls) == 1
    # the right side stays at 1000, which the join already emitted
    eng.handle_packet(gps_packet(2000), in_face=2)
    eng.handle_packet(gps_packet(3000), in_face=2)
    assert len(calls) == 1
    eng.handle_packet(gps2_packet(3000), in_face=2)
    assert len(calls) == 2
    got = [json.loads(p.payload) for p in notifications(svc, 1)]
    assert [(n["ts"], [r[0] for r in n["rows"]]) for n in got] == [(1000, [1000]), (3000, [1000, 3000])]
    # every feed of the join is charged, evaluated or not
    assert [ms for _, ms in svc.charges].count(EVAL_COST_MS["JOIN"]) == 5


def test_distributed_run_caches_results_but_no_window_state(monkeypatch):
    made = []

    class Recording(sim.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(sim, "Simulator", Recording)
    spec = sim.load_scenario(str(sim.data_path("q3.scn")))
    metrics = sim.run_scenario(spec)
    engines = made[0].engines.values()
    assert [e.node_id for e in engines if "/state/" in e.cs.dump()] == []
    key = query_hash(canonical_text(create_operator_graph(spec.queries[0].text, spec.bindings())))
    cached = [e.cs.lookup(key) for e in engines if e.cs.lookup(key) is not None]
    delivered = [
        p for _, p in metrics.app_deliveries["c1"]
        if isinstance(p, Data) and p.name.components[0] == "ce"
    ]
    assert len(cached) == 1 and delivered
    assert (cached[0].logical_ts, cached[0].payload) == (delivered[-1].ts, delivered[-1].payload)


# ---------------------------------------------------------------------------
# row deltas on /state/<q>/<i>/out

# equal values that print differently (1, 1.0, True; 0, 0.0, -0.0, False),
# values that equal nothing or print specially, and text that JSON escapes
SNAP_VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 0.0, -0.0, 2.5, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(['"', "\\", "é", 'a"\\€\n', "", "1"]),
)
SNAP_TS = st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, 2000, 2000.0])
SNAP_ROW = st.tuples(SNAP_TS, st.lists(SNAP_VALUES, max_size=3)).map(lambda p: (p[0], *p[1]))
TWINS = [(0, 0.0, -0.0, False), (1, 1.0, True), (2000, 2000.0)]  # equal, printed apart
# how a row of an arbitrary output relates to the previous output: the same
# row object; a new row equal to one of them but for one value, which may
# be an equal value printed differently; or a new row
SNAP_PICK = st.one_of(
    st.tuples(st.just("keep"), st.integers(0, 5)),
    st.tuples(st.just("vary"), st.integers(0, 5), st.integers(0, 3), SNAP_VALUES),
    st.tuples(st.just("twin"), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("new"), SNAP_ROW),
)
# how an output follows the previous one: a window slide (drop rows from the
# front, append new rows), an arbitrary replacement, empty, or one row
SNAP_STEP = st.one_of(
    st.tuples(st.just("slide"), st.integers(0, 4), st.lists(SNAP_ROW, max_size=3)),
    st.tuples(st.just("replace"), st.lists(SNAP_PICK, max_size=6)),
    st.tuples(st.just("empty")),
    st.tuples(st.just("one"), SNAP_PICK),
)


def typed(rows):
    """What a row shows downstream: ts, schema, value types and JSON text."""
    return [
        (t.ts, t.schema_id, [type(v) for v in t.values], json.dumps(list(t.values)))
        for t in rows
    ]


def bare_instance():
    return OpInstance("s", "u", node=None, parent_idx=None, parent_host=None)


def row_of(values, schema):
    return Tuple(ts=int(values[0]), schema_id=schema, values=tuple(values))


def picked_rows(picks, last, schema):
    rows = []
    for kind, *how in picks:
        if kind == "new":
            values = how[0]
        elif not last:
            continue
        elif kind == "keep":
            rows.append(last[how[0] % len(last)])
            continue
        else:
            values = list(last[how[0] % len(last)].values)
            if kind == "twin":
                at = how[1] % len(values)
                family = next((f for f in TWINS if values[at] in f), (values[at],))
                values[at] = family[how[2] % len(family)]
            elif len(values) > 1:  # the first value is the timestamp
                values[1 + how[1] % (len(values) - 1)] = how[2]
        rows.append(row_of(values, schema))
    return rows


def next_output(step, last, schema):
    kind, *how = step
    if kind == "slide":
        return last[how[0] :] + [row_of(v, schema) for v in how[1]]
    if kind == "replace":
        return picked_rows(how[0], last, schema)
    if kind == "one":
        return picked_rows([how[0]], last, schema)[:1]
    return []


def delta(**changes):
    """A delta document for row 1 at wm 2000, changed as given (None drops a key)."""
    doc = {"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def carried(doc):
    """The /state tuple that carries `doc`, or text standing for one."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return Tuple(ts=1, schema_id="snapshot", values=(1, text))


@given(
    schema=st.sampled_from(["gps", 'a"\\é']),
    steps=st.lists(
        st.tuples(st.integers(0, 10**6), SNAP_STEP, st.booleans()), min_size=1, max_size=10
    ),
)
@settings(max_examples=300, deadline=None)
def test_snapshot_codec_matches_json_dumps_and_a_fresh_decode(schema, steps):
    """Deltas round-trip; a lost one stops evaluation until its rows slide out."""
    eng, _ = single_broker()
    sender, receiver = bare_instance(), bare_instance()
    last, mirrored = [], []
    lost_end = 0  # rows below this index may have been lost; an empty delta loses none
    gaps = 0
    for wm, step, lost in steps:
        rows = next_output(step, last, schema)
        snap = eng._encode_snapshot(sender, rows, wm, schema)
        doc = json.loads(snap.values[1])
        assert snap == Tuple(ts=wm, schema_id="snapshot", values=(wm, json.dumps(doc)))
        assert list(doc) == ["schema", "wm", "first", "end", "rows"]
        assert (doc["schema"], doc["wm"], doc["end"] - doc["first"]) == (schema, wm, len(rows))
        shipped = [row_of(r, schema) for r in doc["rows"]]
        assert typed(shipped) == typed(rows[len(rows) - len(shipped) :])
        if step[0] == "slide" and len(set(map(id, last))) == len(last):
            assert len(shipped) == len(step[2])  # a slide ships its new rows only
        assert sender.sent_rows is rows
        if lost:
            if doc["rows"]:
                lost_end = doc["end"]
        else:
            got = eng._decode_snapshot(snap, receiver, 7)
            assert (got is None) == (doc["first"] < lost_end)
            if got is not None:
                assert got[1] == wm
                assert typed(got[0]) == typed(rows)
                assert got[0] is not receiver.received[7].rows
                # the rows the receiver already had keep their identity
                kept = len(rows) - len(shipped)
                if kept and mirrored:
                    assert all(map(operator.is_, got[0][:kept], mirrored[-kept:]))
                mirrored = got[0]
            else:
                mirrored = []
            gaps += got is None
        last = rows  # older rows are freed, so their ids can come back
    assert eng.counters.get("state_gaps", 0) == gaps


@pytest.mark.parametrize("bad", [[2000, [1]], [2000, {"a": 1}], [2000, None]])
def test_snapshot_row_of_unsupported_values_fails_tuple_validation(bad):
    eng, _ = single_broker()
    snap = carried(delta(first=0, rows=[[2000, 1.0], bad]))
    with pytest.raises(ValueError, match="text or numbers"):
        eng._decode_snapshot(snap, bare_instance(), 7)


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(doc)
        for doc in [
            delta(first=3, end=2, rows=[]),  # end before first
            delta(first=1, end=2, rows=[[2000, 1.0], [2000, 2.0]]),  # more rows than fit
            delta(rows=[[2000, [1]]]),  # unhashable values, which Tuple rejects
            delta(rows=[[2000, {"a": 1}]]),
            delta(first="1"),
            delta(end=2.0),
            delta(rows={"a": [2000]}),
            delta(rows=[[]]),
            delta(rows=[5]),
            delta(rows=[[math.inf]]),
            delta(rows=[["x"]]),
            delta(wm="x"),
            delta(wm=[]),
        ]
        + [delta(**{key: None}) for key in ("schema", "wm", "first", "end", "rows")]
    ]
    + ["not json", "[1, 2]", '"doc"', "null"],
)
def test_malformed_delta_is_rejected_without_touching_the_mirror(text):
    eng, _ = single_broker()
    inst = bare_instance()
    good = eng._decode_snapshot(carried(delta(first=0, end=1, rows=[[1000, 1.0]])), inst, 7)
    mirror = inst.received[7]
    rows = mirror.rows
    for idx in (7, 8):
        with pytest.raises(ValueError):
            eng._decode_snapshot(carried(text), inst, idx)
    assert 8 not in inst.received
    assert inst.received[7] is mirror and mirror.rows is rows
    assert (mirror.base, mirror.rows) == (0, good[0])
    assert eng.counters.get("state_gaps", 0) == 0
    # the delta it stands for, well formed, still applies
    assert eng._decode_snapshot(carried(delta()), inst, 7) is not None


JOIN_HOST_QUERY = (
    "HEATMAP(0.01, 49.86, 49.92, 8.61, 8.69, "
    "JOIN(WINDOW(GPS_S1, 3), WINDOW(GPS_S2, 3), %s))"
)
EQUI_JOIN = "GPS_S1.'s_id' = GPS_S2.'s_id'"
RESIDUAL_JOIN = EQUI_JOIN + " & GPS_S1.'speed' < GPS_S2.'speed'"


def join_host(cond):
    """b2 running only the JOIN (index 1); its windows and its parent are remote."""
    cfg = NodeConfig(
        node_id="b2",
        role="broker",
        faces=[FaceDef(1, "b1"), FaceDef(2, "b3")],
        streams=default_streams(),
        mode="distributed",
    )
    svc = FakeServices()
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(JOIN_HOST_QUERY % cond, default_streams()))
    hosts = {0: "b3", 1: "b2", 2: "b1", 3: "b1"}
    eng._install_assignment("s", "u", key, hosts, [("/state/s/1", "b3")])
    return eng, svc, eng.instances[("s", 1)]


def oracle_join_rows(left, right, with_speed):
    """Frozen nested loop: text never equals or orders against a number."""

    def holds(a, b, cmp):
        return isinstance(a, str) == isinstance(b, str) and cmp(a, b)

    return [
        Tuple(ts=l.ts, schema_id="join(gps,gps)", values=l.values + r.values)
        for l in left
        for r in right
        if holds(l.values[1], r.values[1], lambda a, b: a == b)
        and (not with_speed or holds(l.values[7], r.values[7], lambda a, b: a < b))
    ]


@given(
    cond=st.sampled_from([EQUI_JOIN, RESIDUAL_JOIN]),
    # one stream of gps-width rows per side; a window of each slides over it
    sides=st.tuples(
        *[
            st.tuples(
                st.integers(1, 4),
                st.lists(
                    st.tuples(
                        SNAP_TS,
                        st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, math.nan, "1", "a"]),
                        st.lists(SNAP_VALUES, min_size=5, max_size=5),
                        st.sampled_from([0.0, -0.0, 1, 1.5, math.nan, math.inf, "x"]),
                    ).map(lambda p: (p[0], p[1], *p[2], p[3])),
                    min_size=1,
                    max_size=8,
                ),
            )
            for _ in range(2)
        ]
    ),
)
@settings(max_examples=200, deadline=None)
def test_join_host_output_matches_join_eval_without_memo_and_the_oracle(cond, sides):
    eng, svc, inst = join_host(cond)
    evaluations = []
    real = engine.join_eval

    def recording(*args):
        out = real(*args)
        evaluations.append((args, out))
        return out

    # each window's host ships deltas of its window; the parent mirrors the join's
    senders = {2: bare_instance(), 3: bare_instance()}
    streams = {
        child: [row_of(r, "gps") for r in rows] for child, (_, rows) in zip((2, 3), sides)
    }
    windows = {}
    parent = bare_instance()
    with mock.patch.object(engine, "join_eval", recording):
        for step in range(max(len(rows) for _, rows in sides)):
            for child, (width, _) in zip((2, 3), sides):
                windows[child] = streams[child][max(0, step - width + 1) : step + 1]
                snap = eng._encode_snapshot(senders[child], windows[child], step + 1, "gps")
                name = Name(("state", "s", str(child), "out"))
                evaluations.clear()
                shipped = len(svc.sent)
                eng.handle_packet(DataStream(stream_name=name, tuple=snap), in_face=1)

                for (left, right, compiled, left_ctx, right_ctx, memo), out in evaluations:
                    assert left is inst.left_rows and right is inst.right_rows
                    assert memo is inst.join_memo
                    unmemoized = real(left, right, compiled, left_ctx, right_ctx)
                    want = oracle_join_rows(windows[2], windows[3], cond == RESIDUAL_JOIN)
                    assert typed(out) == typed(unmemoized) == typed(want)
                    if out:
                        assert inst.sent_rows is out
                        delta = svc.sent[-1][2].tuple
                        assert json.loads(delta.values[1])["schema"] == "join(gps,gps)"
                        got = eng._decode_snapshot(delta, parent, 1)
                        assert got[1] == min(inst.left_wm, inst.right_wm)
                        assert typed(got[0]) == typed(out)
                assert len(svc.sent) - shipped <= 1
                # each mirror holds its window's rows, the objects the join saw
                for idx, rows_now in ((2, inst.left_rows), (3, inst.right_rows)):
                    if idx in inst.received:
                        mirror = inst.received[idx].rows
                        assert rows_now is not mirror
                        assert len(mirror) == len(rows_now) == len(windows[idx])
                        assert all(map(operator.is_, mirror, rows_now))
                memo = inst.join_memo
                ids = {id(t) for t in memo.rows[0]} | {id(t) for t in memo.rows[1]}
                assert {i for pair in memo.pairs for i in pair} <= ids
    assert eng.counters.get("state_gaps", 0) == 0


# ---------------------------------------------------------------------------
# classic pull across a wired three-node line


class Net:
    """Synchronous delivery between engines for unit-level wiring."""

    def __init__(self):
        self.engines = {}
        self.links = {}
        self.app = {}
        self.queue = []
        self.clock = 0
        self.timers = []

    def wire(self, a, face_a, b, face_b):
        self.links[(a, face_a)] = (b, face_b)
        self.links[(b, face_b)] = (a, face_a)

    def send(self, node_id, face_id, packet):
        if face_id == APP_FACE:
            self.app.setdefault(node_id, []).append(packet)
            return
        dest = self.links.get((node_id, face_id))
        if dest is not None:
            self.queue.append((dest[0], dest[1], packet))

    def now(self):
        return self.clock

    def schedule(self, delay_ms, fn):
        self.timers.append(fn)

    def local_delay_ms(self, node_id):
        return 1.0

    def charge(self, node_id, ms):
        pass

    def event(self, node_id, kind, payload):
        pass

    def run(self):
        while self.queue:
            node, face, packet = self.queue.pop(0)
            self.engines[node].handle_packet(packet, face)


def pull_line():
    net = Net()
    c1 = Engine(
        NodeConfig("c1", "consumer", faces=[FaceDef(1, "b1")], fib_routes=[("/node/p1", 1)]),
        net,
    )
    b1 = Engine(
        NodeConfig(
            "b1",
            "broker",
            faces=[FaceDef(1, "c1"), FaceDef(2, "p1"), FaceDef(3, "c2")],
            fib_routes=[("/node/p1", 2)],
        ),
        net,
    )
    p1 = Engine(NodeConfig("p1", "producer", faces=[FaceDef(1, "b1")]), net)
    net.engines = {"c1": c1, "b1": b1, "p1": p1}
    net.wire("c1", 1, "b1", 1)
    net.wire("b1", 2, "p1", 1)
    return net, c1, b1, p1


def test_classic_pull_round_trip():
    net, c1, b1, p1 = pull_line()
    name = Name.from_uri("/node/p1/latest")
    p1.cs.insert(name, b"position", 5)
    c1.handle_packet(Interest(name=name), APP_FACE)
    net.run()
    assert [d.payload for d in net.app.get("c1", [])] == [b"position"]
    # the broker cached the data and consumed its pending entry
    assert b1.cs.lookup(name).payload == b"position"
    assert b1.pit.lookup(name) is None


def test_interest_aggregation_two_faces():
    net, c1, b1, p1 = pull_line()
    name = Name.from_uri("/node/p1/latest")
    b1.handle_packet(Interest(name=name), in_face=1)
    b1.handle_packet(Interest(name=name), in_face=3)
    upstream = [pkt for n, f, pkt in net.queue if n == "p1"]
    assert len(upstream) == 1  # second interest aggregated, not re-forwarded
    assert b1.pit.lookup(name).faces == {1, 3}
    net.run()
    p1.cs.insert(name, b"v", 9)
    b1.handle_packet(Data(name=name, payload=b"v", ts=9), in_face=2)
    fan_out = [(n, f) for n, f, pkt in net.queue if isinstance(pkt, Data)]
    assert ("c1", 1) in fan_out
    assert b1.pit.lookup(name) is None


def test_unsolicited_data_dropped():
    eng, svc = single_broker()
    eng.handle_packet(Data(name=Name.from_uri("/nowhere/x"), payload=b"?", ts=1), in_face=1)
    assert svc.sent == []
    assert eng.counters["dropped"] == 1


def test_out_of_order_tuple_counted():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(5000), in_face=2)
    eng.handle_packet(gps_packet(1000), in_face=2)
    assert eng.counters.get("out_of_order", 0) == 1


def test_a_release_while_feeding_a_stream_skips_the_released_windows():
    """Both windows of a self-join read GPS_S1. The join found no match at
    1000, so after a Remove the first window's row at 2000 gives the root a
    result at 1000, and the root releases the second window before the row
    gets to it."""
    q = "JOIN(WINDOW(GPS_S1, 2), WINDOW(GPS_S1, 3), GPS_S1.'latitude' > 49)"
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=q, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000, lat=48.0), in_face=2)
    eng.handle_packet(RemoveQueryInterest(query=q, nonce="n2"), in_face=1)
    eng.handle_packet(gps_packet(2000, lat=50.0), in_face=2)
    assert eng.counters["released"] == 3
    assert eng.instances == {} and eng._stream_feeds == {}
    assert notifications(svc, 1) == []


# ---------------------------------------------------------------------------
# distributed coordination on a broker line


def line_topology():
    """p1 - b1 - b2 - b3 - c1, every node and link 1 ms."""
    roles = {"p1": "producer", "b1": "broker", "b2": "broker", "b3": "broker", "c1": "consumer"}
    return sim.TopologyConfig(
        name="line",
        nodes={n: sim.TopoNode(n, role, 1.0) for n, role in roles.items()},
        link_list=[
            sim.TopoLink(a, b, 1.0)
            for a, b in (("p1", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "c1"))
        ],
    )


def coordinator_b3():
    svc = FakeServices()
    cfg = NodeConfig(
        node_id="b3",
        role="broker",
        faces=[FaceDef(1, "b2"), FaceDef(9, "c1")],
        streams=default_streams(),
        fib_routes=[("/node/b1", 1), ("/node/b2", 1), ("/node/p1", 1)],
        mode="distributed",
        topology=line_topology(),
    )
    return Engine(cfg, svc), svc


def test_distributed_probe_then_deploy():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    probes = [
        p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"
    ]
    assert {p.name.to_uri() for p in probes} == {"/node/b1/delay", "/node/b2/delay"}

    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    deploys = [
        p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4
    ]
    targets = {p.name.components[1] for p in deploys}
    assert targets == {"b1", "b2"}

    # the window is pinned to the stream's ingress broker
    for p in deploys:
        doc = json.loads(base64.urlsafe_b64decode(p.name.components[3]))
        if p.name.components[1] == "b1":
            assert doc["mine"] == [1]
            assert doc["assign"]["1"] == "b1"
        else:
            assert doc["mine"] == []
            assert doc["routes"]  # pass-through hop for intermediate results
    # root filter runs locally on the coordinator
    accepted = [p for n, k, p in svc.events if k == "query_accepted"][0]
    assert (accepted["salted"], 0) in eng.instances

    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=2), in_face=1)
    deployed = [p for n, k, p in svc.events if k == "query_deployed"]
    assert len(deployed) == 1
    assert deployed[0]["mode"] == "distributed"


def test_distributed_result_flows_to_consumer():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=2), in_face=1)
    salted = [p for n, k, p in svc.events if k == "query_accepted"][0]["salted"]

    rows = [[1000, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0]]
    snap = json.dumps({"schema": "gps", "wm": 1000, "first": 0, "end": 1, "rows": rows})
    packet = DataStream(
        stream_name=Name(("state", salted, "1", "out")),
        tuple=Tuple(ts=1000, schema_id="snapshot", values=(1000, snap)),
    )
    eng.handle_packet(packet, in_face=1)
    out = notifications(svc, 9)
    assert len(out) == 1
    assert json.loads(out[0].payload)["rows"] == rows


def test_deploy_timeout_surfaces():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    svc.fire_timers()  # nobody acked the deployment
    kinds = [k for n, k, p in svc.events]
    assert "deploy_timeout" in kinds
    assert "query_deployed" not in kinds


def test_probe_timeout_marks_unreachable_and_proceeds():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    # only b1 answers; b2 is silent and must be routed around
    b1_probe = [p for p in probes if p.name.components[1] == "b1"][0]
    eng.handle_packet(Data(name=b1_probe.name, payload=b"1.0", ts=1), in_face=1)
    svc.fire_timers()
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    # with b2 unreachable there is no broker path b1..b3
    kinds = [k for n, k, p in svc.events]
    assert deploys == []
    assert "plan_failed" in kinds
    # b2's late reply finds no pending Interest, so the app never sees it
    b2_probe = [p for p in probes if p.name.components[1] == "b2"][0]
    eng.handle_packet(Data(name=b2_probe.name, payload=b"1.0", ts=1), in_face=1)
    assert sent_to(svc, APP_FACE) == []
    assert eng.pit.lookup(b2_probe.name) is None


def test_a_failed_plan_leaves_nothing_behind_and_a_later_add_plans_again():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    b1_probe = Name.from_uri("/node/b1/delay")
    eng.handle_packet(Data(name=b1_probe, payload=b"1.0", ts=1), in_face=1)
    svc.fire_timers()  # b2 stays silent: no broker path b1..b3
    assert [k for n, k, p in svc.events] == ["query_accepted", "plan_failed"]
    assert eng._trees == {} and eng.instances == {} and eng._pending == {}
    assert eng._reply_hooks == {} and len(eng.pit) == 0

    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=9)
    accepted = [p["nonce"] for n, k, p in svc.events if k == "query_accepted"]
    assert accepted == ["n1", "n2"]
    for uri in ("/node/b1/delay", "/node/b2/delay"):
        eng.handle_packet(Data(name=Name.from_uri(uri), payload=b"1.0", ts=2), in_face=1)
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=3), in_face=1)
    deployed = [p["nonce"] for n, k, p in svc.events if k == "query_deployed"]
    assert deployed == ["n2"]


def test_late_deploy_acks_are_dropped_as_unsolicited():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    for uri in ("/node/b1/delay", "/node/b2/delay"):
        eng.handle_packet(Data(name=Name.from_uri(uri), payload=b"1.0", ts=1), in_face=1)
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    assert len(deploys) == 2
    svc.fire_timers()  # the probe timeout finds probing over; the deploy timeout fires
    assert [k for n, k, p in svc.events] == ["query_accepted", "deploy_timeout"]
    dropped = eng.counters.get("dropped", 0)
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=2), in_face=1)
    assert eng.counters.get("dropped", 0) == dropped + len(deploys)
    assert "query_deployed" not in [k for n, k, p in svc.events]
    assert eng._reply_hooks == {} and eng._pending == {}
    assert all(eng.pit.lookup(p.name) is None for p in deploys)


Q3 = "FILTER(WINDOW(GPS_S1, 6s), 'latitude' < 48)"


def test_concurrent_plans_share_one_probe_per_broker():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    eng.handle_packet(AddQueryInterest(query=Q3, nonce="n2"), in_face=9)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    assert sorted(p.name.to_uri() for p in probes) == ["/node/b1/delay", "/node/b2/delay"]
    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    assert eng.counters.get("dropped", 0) == 0
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    assert len({p.name.components[3] for p in deploys}) == 4  # b1 and b2, for each plan
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=2), in_face=1)
    svc.fire_timers()
    kinds = [(p["nonce"], k) for n, k, p in svc.events]
    assert ("n1", "query_deployed") in kinds and ("n2", "query_deployed") in kinds
    assert not any(k in ("plan_failed", "deploy_timeout") for _, k in kinds)
    assert sent_to(svc, APP_FACE) == []


def test_a_probe_timeout_drops_only_its_own_wait():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    svc.clock = 100
    eng.handle_packet(AddQueryInterest(query=Q3, nonce="n2"), in_face=9)
    first_timeout = svc.timers.pop(0)[1]
    first_timeout()  # n1 gives up on both brokers; n2 still waits
    for uri in ("/node/b1/delay", "/node/b2/delay"):
        eng.handle_packet(Data(name=Name.from_uri(uri), payload=b"1.0", ts=1), in_face=1)
    kinds = [(p["nonce"], k) for n, k, p in svc.events]
    assert ("n1", "plan_failed") in kinds
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    assert {p.name.components[1] for p in deploys} == {"b1", "b2"}  # n2 planned


class RecordingNet(Net):
    def __init__(self):
        super().__init__()
        self.events = []

    def event(self, node_id, kind, payload):
        self.events.append((node_id, kind, payload))


def wired_line():
    """Engines on p1 - b1 - b2 - b3 - c1, delivering through a RecordingNet."""
    net = RecordingNet()
    topo = line_topology()
    peers = {"p1": ["b1"], "b1": ["p1", "b2"], "b2": ["b1", "b3"], "b3": ["b2", "c1"], "c1": ["b3"]}
    for node, near in peers.items():
        faces = [FaceDef(k, peer) for k, peer in enumerate(near, 1)]
        cfg = NodeConfig(
            node,
            topo.nodes[node].role,
            faces=faces,
            streams=default_streams(),
            mode="distributed",
            topology=topo,
        )
        net.engines[node] = Engine(cfg, net)
        for k, peer in enumerate(near, 1):
            net.links[(node, k)] = (peer, peers[peer].index(node) + 1)
    return net


def test_a_reply_reaches_interests_aggregated_on_the_nodes_own():
    net = wired_line()
    b2, b3 = net.engines["b2"], net.engines["b3"]
    b2.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), APP_FACE)  # b2 probes b1
    b3.handle_packet(AddQueryInterest(query=Q3, nonce="n3"), in_face=2)  # so does b3, via b2
    net.run()
    # b3's probe for /node/b1/delay waited on b2's pending one, and got its reply
    assert b2.counters["consumed"] >= 1 and b2.pit.lookup(Name.from_uri("/node/b1/delay")) is None
    deployed = [(n, p["nonce"]) for n, k, p in net.events if k == "query_deployed"]
    assert ("b2", "n2") in deployed and ("b3", "n3") in deployed
    assert net.timers and not any(k == "plan_failed" for _, k, _ in net.events)


def test_a_re_deployed_window_ships_a_keyframe_next():
    """Its parent may have been released and deployed afresh, with an empty mirror."""
    coordinator, svc = coordinator_b3()
    coordinator.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=9)
    for p in [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]:
        coordinator.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    order = next(p for p in sent_to(svc, 1, Interest) if p.name.components[:3] == ("node", "b1", "deploy"))
    b1_svc = FakeServices()
    cfg = NodeConfig(
        "b1",
        "broker",
        faces=[FaceDef(1, "p1"), FaceDef(2, "b2")],
        streams=default_streams(),
        mode="distributed",
        topology=line_topology(),
    )
    b1 = Engine(cfg, b1_svc)

    def last_delta():
        return json.loads(sent_to(b1_svc, 2, DataStream)[-1].tuple.values[1])

    b1.handle_packet(order, in_face=2)
    for ts in (1000, 2000, 3000):
        b1.handle_packet(gps_packet(ts), in_face=1)
    assert len(last_delta()["rows"]) == 1  # the window grew by one row
    b1.handle_packet(order, in_face=2)  # the same query, deployed again
    b1.handle_packet(gps_packet(4000), in_face=1)
    doc = last_delta()
    assert len(doc["rows"]) == doc["end"] - doc["first"] > 1
