"""Node data-plane behavior: query handling, evaluation, classic pull."""

import ast
import base64
import json
import math
import operator
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep import engine, operators, sim
from icncep.engine import (
    APP_FACE,
    Engine,
    NodeConfig,
)
from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    DeltaSender,
    Interest,
    MalformedPacket,
    Mirror,
    Name,
    RemoveQueryInterest,
    ResultRenderer,
    Tuple,
    decode_packet,
    encode_packet,
    result_payload,
)
from icncep.query import (
    OPERATORS,
    canonical_text,
    create_operator_graph,
    default_streams,
    query_hash,
)
from test_packet import (
    SNAP_STEP,
    SNAP_TS,
    SNAP_VALUES,
    carried,
    delta,
    next_output,
    row_of,
    state_blob,
    typed,
)

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


def topology(*links):
    """A TopologyConfig over `links` such as "c1-b1", every node and link 1 ms.

    A node's role follows its first letter.
    """
    roles = {"b": "broker", "p": "producer", "c": "consumer"}
    pairs = [link.split("-") for link in links]
    nodes = {n: sim.TopoNode(n, roles[n[0]], 1.0) for pair in pairs for n in pair}
    return sim.TopologyConfig("test", nodes, [sim.TopoLink(a, b, 1.0) for a, b in pairs])


def single_broker():
    """b1 with c1 on face 1 and p1 on face 2."""
    svc = FakeServices()
    cfg = NodeConfig(
        node_id="b1",
        topology=topology("c1-b1", "b1-p1"),
        streams=default_streams(),
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
    eng.handle_packet(RemoveQueryInterest(query="WINDOW(", nonce="ny"), in_face=1)  # no parse
    assert svc.sent == []
    assert eng.counters.get("dropped", 0) == 2


NESTED_TOO_DEEP = "FILTER(" * 3000 + "WINDOW(GPS_S1, 4s)" + ", 'speed' > 1)" * 3000


@pytest.mark.parametrize(
    "text", ["WINDOW(", "WINDOW(GPSé, 4s)", pytest.param(NESTED_TOO_DEEP, id="nested-too-deep")]
)
def test_malformed_query_nacked(text):
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=text, nonce="n9"), in_face=1)
    out = sent_to(svc, 1, Data)
    assert len(out) == 1
    assert out[0].name.components[0] == "nack"
    assert out[0].name.components[1] == "n9"
    assert out[0].payload  # carries the parser diagnostic
    assert eng.instances == {} and eng._parsed == {}
    # the consumer the Add came from hands the nack to its application
    c1_svc = FakeServices()
    c1 = Engine(NodeConfig("c1", eng.config.topology, default_streams()), c1_svc)
    c1.handle_packet(out[0], in_face=1)
    assert c1_svc.sent == [("c1", APP_FACE, out[0])] and c1.counters["consumed"] == 1


def test_an_engine_without_streams_nacks_a_query_on_a_built_in_alias():
    """The engine parses against its own stream table only, even an empty one."""
    svc = FakeServices()
    eng = Engine(NodeConfig(node_id="b1", topology=topology("c1-b1")), svc)
    assert eng.config.streams == {}
    eng.handle_packet(AddQueryInterest(query=Q1, nonce="n1"), in_face=1)
    assert [p.name.components for p in sent_to(svc, 1, Data)] == [("nack", "n1")]
    assert b"GPS_S1" in sent_to(svc, 1, Data)[0].payload
    assert eng.instances == {}
    assert [k for _, k, _ in svc.events if k in ("query_accepted", "query_deployed")] == []


def test_an_endpoint_sends_query_interests_up_to_its_ingress_broker():
    """c1's Adds and Removes go to b1 alone, unless they came from b1; c2, with
    no broker neighbour, sends them to c1, its next hop toward b1."""
    topo = topology("c1-b1", "c1-b2", "c1-c2", "c2-p1")  # c1: b1, b2, c2 on faces 1-3
    c1_svc, c2_svc = FakeServices(), FakeServices()
    c1 = Engine(NodeConfig("c1", topo, default_streams()), c1_svc)
    c2 = Engine(NodeConfig("c2", topo, default_streams()), c2_svc)
    c1.handle_packet(AddQueryInterest(query=Q1, nonce="a"), APP_FACE)
    c1.handle_packet(RemoveQueryInterest(query=Q1, nonce="r"), APP_FACE)
    c1.handle_packet(AddQueryInterest(query=Q2, nonce="b"), in_face=1)
    c2.handle_packet(AddQueryInterest(query=Q1, nonce="c"), APP_FACE)
    assert [(f, p.nonce) for _, f, p in c1_svc.sent] == [(1, "a"), (1, "r"), (2, "b"), (3, "b")]
    assert [(f, p.nonce) for _, f, p in c2_svc.sent] == [(1, "c")]


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
    key = canonical_text(create_operator_graph(Q2, default_streams()))
    assert list(eng._parsed) == [Q2, key]  # the key's entry is the text's
    assert eng._parsed[key] is eng._parsed[Q2]


def test_evaluation_charges_compute_cost():
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    charged = {ms for _, ms in svc.charges}
    assert OPERATORS["WINDOW"].cost_ms in charged
    assert OPERATORS["FILTER"].cost_ms in charged


def test_the_engine_names_no_operator_kind():
    """Each kind's state, evaluation and cost live in `operators` and `OPERATORS` alone."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    texts = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not texts & set(OPERATORS)
    assert all(op.cost_ms > 0 for op in OPERATORS.values())


def test_the_engine_keeps_no_delta_arithmetic():
    """A /state feed's row indices and shipped rows live in `packet.DeltaSender`
    and `packet.Mirror` alone: the engine reads none of their fields."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not read & {"first", "end", "base", "sent_rows", "sent_end"}


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
    real = operators.join_eval
    monkeypatch.setattr(operators, "join_eval", lambda *args: calls.append(args) or real(*args))
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
    assert [ms for _, ms in svc.charges].count(OPERATORS["JOIN"].cost_ms) == 5


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
# the rows of results and of /state deltas

RESULT_STEP = st.tuples(
    SNAP_STEP,
    st.sampled_from(["gps", "\u00e9\"\\"]),  # the schema of the step's new rows
    st.sampled_from(["u", "\u00e9\"\\"]),  # the query hash
    st.sampled_from([7, 0, 2**64 - 1, 7.0, True]),  # the timestamp
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RESULT_STEP, min_size=1, max_size=10))
def test_result_payloads_reuse_row_texts_by_identity_only(steps):
    """Each payload is `packet.result_payload`'s, byte for byte.

    A row of the last result, the same object, keeps its text; a new row
    equal to one of them (1, 1.0 and True; 0.0 and -0.0) prints its own, and
    nan, which equals nothing, prints as NaN. Only the last result's rows
    and texts are held. The hash, schema and timestamp around the rows may
    change from one result to the next.
    """
    renderer, last = ResultRenderer(), []
    for step, schema, qhash, ts in steps:
        rows = last = next_output(step, last, schema)
        if not rows:  # the engine notifies only results that have rows
            continue
        want = result_payload(qhash, ts, rows[0].schema_id, [r.values for r in rows])
        assert renderer.payload(qhash, ts, rows) == want
        assert renderer._rows == tuple(rows) and set(renderer._texts) == {id(r) for r in rows}


@pytest.mark.parametrize("bad", [[2000, [1]], [2000, {"a": 1}], [2000, None]])
def test_snapshot_row_of_unsupported_values_fails_tuple_validation(bad):
    with pytest.raises(MalformedPacket, match="text or numbers"):
        carried(delta(first=0, rows=[[2000, 1.0], bad]))


def deploy_order(doc, target="b2"):
    return deploy_text(json.dumps(doc), target)


def deploy_text(text, target="b2"):
    """A deploy order whose JSON text is `text`, which may repeat a key."""
    blob = base64.urlsafe_b64encode(text.encode("utf-8")).decode("ascii")
    return Interest(name=Name(("node", target, "deploy", blob)))


def stream_row(values):
    """A GPS_S1 packet carrying `values`."""
    return DataStream(Name.from_uri("/node/p1/gps"), Tuple.from_values("gps", values))


@pytest.mark.parametrize("query", [Q2, "AVG('speed', WINDOW(GPS_S1, 4s))"])
@pytest.mark.parametrize(
    "values",
    [(2000, 1.0, 49.5), (2000, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, "fast")],
    ids=["narrow", "text"],
)
def test_a_stream_row_off_its_schema_never_reaches_the_window(query, values):
    eng, svc = single_broker()
    eng.handle_packet(AddQueryInterest(query=query, nonce="n1"), in_face=1)
    eng.handle_packet(gps_packet(1000), in_face=2)
    buffers = [inst.op.state for inst in eng.instances.values() if inst.op.state]
    sent = len(svc.sent)
    eng.handle_packet(stream_row(values), in_face=2)
    assert eng.counters["malformed"] == 1
    assert len(svc.sent) == sent
    assert [inst.op.state for inst in eng.instances.values() if inst.op.state] == buffers
    assert eng.high_water == {("node", "p1", "gps"): 1000}


def filter_host(query=Q2):
    """b2 hosting `query`'s root (index 0) for query "s"; its WINDOW (index 1) ships from b1."""
    svc = FakeServices()
    cfg = NodeConfig(
        "b2", topology("b1-b2", "b2-b3"), streams=default_streams(), mode="distributed"
    )
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(query, default_streams()))
    doc = {"q": key, "salted": "s", "unsalted": "u", "assign": {"0": "b2", "1": "b1"}}
    eng.handle_packet(deploy_order(doc), in_face=1)
    assert [p.payload for p in sent_to(svc, 1)] == [b"ok"]
    svc.sent.clear()
    return eng, svc, doc


def unplaceable_order(doc):
    """Query "s2", whose assignment gives b2 operator 7, which Q2's tree lacks."""
    doc = dict(doc, salted="s2", assign={"0": "b2", "1": "b1", "7": "b2"})
    return deploy_order(dict(doc, routes=[["/state/s2/1", "b3"]]))


@pytest.mark.parametrize(
    "packet",
    [
        lambda doc: DataStream(Name.from_uri("/state/s/x/out"), carried(delta())),
        # /state packets that carry a Tuple, which the codec refuses to encode
        lambda doc: DataStream(Name.from_uri("/state/s/1/out"), Tuple(2000, "gps", (2000, 2.0))),
        lambda doc: DataStream(
            Name.from_uri("/state/s/1/out"),
            Tuple(2000, "snapshot", (2000, json.dumps(delta()))),  # the old wire layout
        ),
        lambda doc: Interest(name=Name.from_uri("/state/s/x/prune/5")),
        lambda doc: Interest(name=Name.from_uri("/state/s/1/prune/zz")),
        lambda doc: Interest(name=Name.from_uri("/node/b2/deploy/abcde")),
        lambda doc: deploy_order([1, 2]),
        lambda doc: deploy_order("doc"),
        lambda doc: deploy_order(dict(doc, assign=[["0", "b2"]])),
        lambda doc: Interest(name=Name(("node", "b2", "deploy", "W1tb" * 2000))),  # "[[[" * 2000
        unplaceable_order,
        lambda doc: stream_row((1000, 1.0, 49.5)),
        lambda doc: stream_row((1000, "1", 49.5, 8.65, 120.0, 5.0, 0.0, 10.0)),
        lambda doc: DataStream(Name.from_uri("/state/s/1/out"), carried(delta())),
        # <i> and <wm> spelled other than as a u64 in canonical decimal
        lambda doc: Interest(name=Name.from_uri("/state/s/01/prune/2000")),
        lambda doc: Interest(name=Name.from_uri("/state/s/+1/prune/2000")),
        lambda doc: Interest(name=Name(("state", "s", " 1", "prune", "2000"))),
        lambda doc: Interest(name=Name.from_uri("/state/s/\u0661/prune/2000")),
        lambda doc: Interest(name=Name.from_uri("/state/s/1/prune/02000")),
        lambda doc: Interest(name=Name.from_uri("/state/s/1/prune/-1")),
        lambda doc: DataStream(Name.from_uri("/state/s/01/out"), carried(delta())),
        lambda doc: DataStream(Name.from_uri("/state/s/+1/out"), carried(delta())),
        lambda doc: DataStream(Name.from_uri("/state/s/\u0661/out"), carried(delta())),
        # assign indices spelled other than in canonical decimal, which int() read as 0 and 1
        lambda doc: deploy_order(dict(doc, assign={"00": "b2", "1": "b1"})),
        lambda doc: deploy_order(dict(doc, assign={"0": "b2", "+1": "b1"})),
        lambda doc: deploy_order(dict(doc, assign={"0": "b2", " 1": "b1"})),
        # one index spelled twice: with int() the later spelling won
        lambda doc: deploy_order(dict(doc, assign={"0": "b2", "00": "b1", "1": "b1"})),
        # a key repeated, at the top or in `assign`: json.loads kept the later value
        lambda doc: deploy_text(json.dumps(doc)[:-1] + ', "salted": "s2"}'),
        lambda doc: deploy_text(
            json.dumps(dict(doc, assign={})).replace(
                '"assign": {}', '"assign": {"0": "b1", "0": "b2", "1": "b1"}'
            )
        ),
    ],
    ids=[
        "stream-index",
        "delta-as-a-plain-tuple",
        "delta-as-a-snapshot-tuple",
        "prune-index",
        "prune-watermark",
        "deploy-not-base64",
        "deploy-list",
        "deploy-string",
        "deploy-assign-list",
        "deploy-nested",
        "deploy-unknown-operator",
        "stream-row-width",
        "stream-row-text",
        "delta-rows-narrower-than-the-window",
        "prune-index-leading-zero",
        "prune-index-signed",
        "prune-index-spaced",
        "prune-index-arabic-indic",
        "prune-watermark-leading-zero",
        "prune-watermark-negative",
        "stream-index-leading-zero",
        "stream-index-signed",
        "stream-index-arabic-indic",
        "deploy-index-leading-zero",
        "deploy-index-signed",
        "deploy-index-spaced",
        "deploy-index-spelled-twice",
        "deploy-key-repeated",
        "deploy-assign-index-repeated",
    ],
)
def test_a_malformed_packet_is_dropped_and_counted(packet):
    eng, svc, doc = filter_host()

    def held():
        mirrors = {i: (m.base, list(m.rows)) for i, m in eng.instances[("s", 0)].received.items()}
        state = (eng._deployed, eng._fences, eng.instances)
        feeds = {name: list(keys) for name, keys in eng._feeds.items()}
        return eng.fib.dump(), [dict(d) for d in state], feeds, mirrors

    before = held()
    eng.handle_packet(packet(doc), in_face=1)
    assert eng.counters["malformed"] == 1
    assert svc.sent == []  # nothing forwarded, acked or pruned
    assert held() == before  # and nothing installed


def test_a_state_packet_that_carries_no_delta_is_not_forwarded():
    """A transit broker forwards /state deltas and counts anything else there malformed."""
    svc = FakeServices()
    cfg = NodeConfig(
        "b2", topology("b1-b2", "b2-b3"), streams=default_streams(), mode="distributed"
    )
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(Q2, default_streams()))
    doc = {"q": key, "salted": "s", "unsalted": "u", "assign": {"0": "b3", "1": "b1"}}
    eng.handle_packet(deploy_order(dict(doc, routes=[["/state/s/1", "b3"]])), in_face=1)
    svc.sent.clear()
    name = Name.from_uri("/state/s/1/out")
    good = delta(first=0, end=1, rows=[[2000, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0]])
    eng.handle_packet(DataStream(name, Tuple.from_values("gps", good["rows"][0])), in_face=1)
    assert eng.counters["malformed"] == 1
    assert svc.sent == [] and "forwarded" not in eng.counters
    eng.handle_packet(DataStream(name, carried(good)), in_face=1)
    assert [p.tuple for p in sent_to(svc, 2, DataStream)] == [carried(good)]
    assert eng.counters["malformed"] == eng.counters["forwarded"] == 1


def transit_broker():
    """b2 forwarding query "s"'s /state/s/1 feed from b1 (face 1) to b3 (face 2).

    Its face 3 leads to b4.
    """
    svc = FakeServices()
    cfg = NodeConfig(
        "b2",
        topology("b1-b2", "b2-b3", "b2-b4"),
        streams=default_streams(),
        mode="distributed",
    )
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(Q2, default_streams()))
    doc = {"q": key, "salted": "s", "unsalted": "u", "assign": {"0": "b3", "1": "b1"}}
    eng.handle_packet(deploy_order(dict(doc, routes=[["/state/s/1", "b3"]])), in_face=1)
    svc.sent.clear()
    return eng, svc, doc


@pytest.mark.parametrize("index", ["01", "+1", " 1", "\u0661"])
def test_a_prune_that_misspells_the_feed_index_keeps_its_route(index):
    """int() reads each of these as 1; the feed's route must not go with them."""
    eng, svc, _ = transit_broker()
    svc.clock = int(engine.DEPLOY_TIMEOUT_MS)  # late enough for the delta to set the fence
    eng.handle_packet(window_delta(2000), in_face=1)
    routes = eng.fib.dump()
    eng.handle_packet(Interest(name=Name(("state", "s", index, "prune", "2000"))), in_face=2)
    assert eng.counters["malformed"] == 1
    assert eng.fib.dump() == routes != "prefix,faces\n"


def window_delta(wm):
    """A /state/s/1/out packet whose one row has timestamp `wm`."""
    row = [wm, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0]
    doc = delta(wm=wm, first=0, end=1, rows=[row])
    return DataStream(Name.from_uri("/state/s/1/out"), carried(doc))


def test_a_prune_that_removes_the_route_empties_the_stream_faces_memo():
    eng, svc, _ = transit_broker()
    svc.clock = int(engine.DEPLOY_TIMEOUT_MS)  # late enough for the delta to set the fence
    eng.handle_packet(window_delta(2000), in_face=1)
    assert [(f, type(p)) for _, f, p in svc.sent] == [(2, DataStream)]
    hops = {comps: (hop.feed, hop.faces) for comps, hop in eng.fib.memo.items()}
    assert hops == {("state", "s", "1", "out"): (("s", 1), {1: [2]})}
    eng.handle_packet(Interest(name=Name.from_uri("/state/s/1/prune/2000")), in_face=2)
    assert eng.fib.dump() == "prefix,faces\n" and eng.fib.memo == {}
    svc.sent.clear()
    eng.handle_packet(window_delta(3000), in_face=1)  # not out on the remembered face 2
    assert [(f, p.name.to_uri()) for _, f, p in svc.sent] == [(1, "/state/s/1/prune/3000")]
    assert eng.counters["dropped"] == eng.counters["prunes_sent"] == 1


def name_tables(eng):
    """The size of each table of `eng` that a packet's name can add an entry to."""
    tables = (eng.fib.memo, eng._feeds, eng.high_water, eng._fences, eng._deployed, eng.instances)
    return [len(t) for t in tables] + [len(eng.fib), len(eng.pit), len(eng.cs)]


@pytest.mark.parametrize("host", [filter_host, transit_broker], ids=["root-host", "transit"])
def test_a_burst_of_unknown_and_misspelt_state_names_grows_no_table(host):
    """1,000 distinct /state/<q>/<i>/out names that no route or instance knows."""
    eng, svc, _ = host()
    svc.clock = int(engine.DEPLOY_TIMEOUT_MS)
    eng.pit.add_face("u", 2)  # a consumer behind b3, so the root keeps its query
    eng.handle_packet(window_delta(2000), in_face=1)  # the live feed, kept in the memo
    before, counters = name_tables(eng), dict(eng.counters)
    assert len(eng.fib.memo) == 1
    unknown = ["/state/s/%d/out" % (k + 2) for k in range(250)]
    unknown += ["/state/x%d/1/out" % k for k in range(250)]
    misspelt = ["/state/s/0%d/out" % k for k in range(250)]
    misspelt += [Name(("state", "s", "+%d" % k, "out")) for k in range(250)]
    delta_row = window_delta(3000).tuple
    for name in unknown + misspelt:
        name = name if isinstance(name, Name) else Name.from_uri(name)
        eng.handle_packet(DataStream(name, delta_row), in_face=1)
    assert name_tables(eng) == before
    verdicts = ("dropped", "malformed", "prunes_sent")
    counts = {k: eng.counters[k] - counters.get(k, 0) for k in verdicts}
    assert counts == {"dropped": 500, "malformed": 500, "prunes_sent": 500}


def test_a_route_added_after_a_drop_is_used_by_the_next_delta():
    eng, svc, doc = transit_broker()
    eng.handle_packet(window_delta(2000), in_face=1)  # out on face 2, remembered for face 1
    eng.handle_packet(window_delta(2000), in_face=2)  # back from b3: no face left, dropped
    assert eng.counters["dropped"] == 1
    eng.handle_packet(deploy_order(dict(doc, routes=[["/state/s/1", "b4"]])), in_face=1)
    svc.sent.clear()
    eng.handle_packet(window_delta(3000), in_face=1)
    assert [f for _, f, p in svc.sent] == [2, 3]
    assert eng.counters["forwarded"] == 2


def test_a_delta_whose_result_releases_its_query_is_consumed_and_sends_no_prune():
    """The FILTER root on b2 has no PIT entry, so its result releases the query
    while the delta that fed it is still being handled."""
    eng, svc, _ = filter_host()
    good = delta(first=0, end=1, rows=[[2000, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0]])
    eng.handle_packet(DataStream(Name.from_uri("/state/s/1/out"), carried(good)), in_face=1)
    assert eng.counters["released"] == 1 and eng.instances == {}
    assert eng.counters["consumed"] == 2  # the deploy order and the delta
    assert "dropped" not in eng.counters and "prunes_sent" not in eng.counters
    assert sent_to(svc, 1, Interest) == []


def test_a_delta_whose_result_releases_the_route_it_was_forwarded_on_is_only_consumed():
    """b2 still hosts query "s"'s WINDOW, shipping to b3, from a first deploy
    order when a second one gives it the FILTER root, fed from b1. A delta on
    /state/s/1/out then feeds the root and is forwarded to b3 too; once the
    root's result releases the query, with the WINDOW's route to b3, the next
    delta must not follow the faces that the route had."""
    svc = FakeServices()
    cfg = NodeConfig(
        "b2", topology("b1-b2", "b2-b3"), streams=default_streams(), mode="distributed"
    )
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(Q2, default_streams()))
    doc = {"q": key, "salted": "s", "unsalted": "u", "assign": {"0": "b3", "1": "b2"}}
    eng.handle_packet(deploy_order(dict(doc, routes=[["/state/s/1", "b3"]])), in_face=2)
    eng.handle_packet(deploy_order(dict(doc, assign={"0": "b2", "1": "b1"})), in_face=1)
    eng.pit.add_face("u", 1)
    svc.clock = int(engine.DEPLOY_TIMEOUT_MS)
    eng.handle_packet(window_delta(2000), in_face=1)
    assert [type(p) for p in sent_to(svc, 2)] == [Data, DataStream]  # an ack, then the delta
    eng.pit.remove("u")
    svc.sent.clear()
    eng.handle_packet(window_delta(3000), in_face=1)
    assert eng.counters["released"] == 2 and eng.fib.dump() == "prefix,faces\n"
    assert svc.sent == [] and eng.counters["forwarded"] == 1


# parents that read a number from their WINDOW's rows: query, row width, column read
NUMBER_READERS = {
    "AVG": ("AVG('speed', WINDOW(GPS_S1, 4s))", 8, 7),
    "HEATMAP": ("HEATMAP(0.01, 49.86, 49.92, 8.61, 8.69, WINDOW(GPS_S1, 4s))", 8, 2),
    "PREDICT": ("PREDICT(5m, WINDOW(PLUG_S1, 1m))", 7, 2),
}


@pytest.mark.parametrize("kind", sorted(NUMBER_READERS))
def test_a_delta_with_text_where_its_parent_reads_a_number_skips_the_evaluation(kind):
    query, width, column = NUMBER_READERS[kind]
    eng, svc, _ = filter_host(query)
    inst = eng.instances[("s", 0)]
    predict_state = inst.op.state
    row = [2000] + [1.0] * (width - 1)
    row[column] = "x"
    name = Name.from_uri("/state/s/1/out")
    eng.handle_packet(DataStream(name, carried(delta(first=0, end=1, rows=[row]))), in_face=1)
    c = eng.counters
    assert c["eval_skipped"] == 1 and "malformed" not in c
    assert c["received"] == c["consumed"] + c["forwarded"] + c["dropped"] + c["malformed"]
    assert svc.sent == [] and inst.op.last_emit == -1
    assert inst.op.state is predict_state
    assert [t.values for t in inst.received[1].rows] == [tuple(row)]  # the mirror keeps it
    # once the text row has slid out, the parent evaluates again
    good = [3000] + [1.0] * (width - 1)
    eng.handle_packet(DataStream(name, carried(delta(wm=3000, first=1, end=2, rows=[good]))), 1)
    assert c["eval_skipped"] == 1 and inst.op.last_emit >= 0
    assert c["received"] == c["consumed"] + c["forwarded"] + c["dropped"] + c["malformed"]


@pytest.mark.parametrize("deploy_first", [False, True], ids=["add-first", "deploy-first"])
def test_a_query_text_and_its_canonical_key_share_one_tree(deploy_first):
    eng, svc = single_broker()
    key = canonical_text(create_operator_graph(Q2, default_streams()))
    assert key != Q2
    order = {"q": key, "salted": "s", "unsalted": "u", "assign": {"0": "b1", "1": "b1"}}
    packets = [AddQueryInterest(query=Q2, nonce="n1"), deploy_order(order, "b1")]
    for p in packets[::-1] if deploy_first else packets:
        eng.handle_packet(p, in_face=1)
    assert set(eng._parsed) == {Q2, key} and len(eng._deployed) == 2
    trees = [tree for tree, _, _ in eng._parsed.values()]
    trees += [tree for tree, _ in eng._deployed.values()]
    assert all(tree is trees[0] for tree in trees)


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
        topology=topology("b1-b2", "b2-b3"),
        streams=default_streams(),
        mode="distributed",
    )
    svc = FakeServices()
    eng = Engine(cfg, svc)
    key = canonical_text(create_operator_graph(JOIN_HOST_QUERY % cond, default_streams()))
    hosts = {0: "b3", 1: "b2", 2: "b1", 3: "b1"}
    routes = [(Name.from_uri("/state/s/1"), 2)]  # the face to b3
    eng._install_assignment("s", "u", eng._parse(key)[0], hosts, routes)
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
    real = operators.join_eval

    def recording(*args):
        out = real(*args)
        evaluations.append((args, out))
        return out

    # each window's host ships deltas of its window; the parent mirrors the join's
    senders = {c: DeltaSender(Name(("state", "s", str(c), "out"))) for c in (2, 3)}
    streams = {
        child: [row_of(r, "gps") for r in rows] for child, (_, rows) in zip((2, 3), sides)
    }
    windows = {}
    parent = Mirror(inst.node.ctx.width)
    with mock.patch.object(operators, "join_eval", recording):
        for step in range(max(len(rows) for _, rows in sides)):
            for child, (width, _) in zip((2, 3), sides):
                windows[child] = streams[child][max(0, step - width + 1) : step + 1]
                snap = senders[child].delta(windows[child], step + 1, "gps")
                name = Name(("state", "s", str(child), "out"))
                evaluations.clear()
                shipped = len(svc.sent)
                eng.handle_packet(DataStream(stream_name=name, tuple=snap), in_face=1)

                for (left, right, compiled, memo), out in evaluations:
                    assert left is inst.op.inputs[2][0] and right is inst.op.inputs[3][0]
                    assert compiled is inst.op.cond and memo is inst.op.memo
                    unmemoized = real(left, right, compiled)
                    want = oracle_join_rows(windows[2], windows[3], cond == RESIDUAL_JOIN)
                    assert typed(out) == typed(unmemoized) == typed(want)
                    if out:
                        assert inst.out.rows is out
                        delta = svc.sent[-1][2].tuple
                        assert delta.schema == "join(gps,gps)"
                        got = parent.apply(delta)
                        assert delta.ts == min(inst.op.inputs[2][1], inst.op.inputs[3][1])
                        assert typed(got) == typed(out)
                assert len(svc.sent) - shipped <= 1
                # each mirror holds its window's rows, the objects the join saw,
                # which are the sender's own
                for idx, (rows_now, _) in inst.op.inputs.items():
                    mirror = inst.received[idx].rows
                    assert rows_now is not mirror
                    assert len(mirror) == len(rows_now) == len(windows[idx])
                    assert all(map(operator.is_, mirror, rows_now))
                    assert all(map(operator.is_, mirror, windows[idx]))
                memo = inst.op.memo
                ids = {id(t) for t in memo.rows[0]} | {id(t) for t in memo.rows[1]}
                assert {i for pair in memo.pairs for i in pair} <= ids
    assert eng.counters.get("state_gaps", 0) == 0


def test_a_prune_on_one_of_two_faces_keeps_the_feed_for_the_other():
    eng, svc, doc = transit_broker()
    eng.handle_packet(deploy_order(dict(doc, routes=[["/state/s/1", "b4"]])), in_face=1)
    svc.clock = int(engine.DEPLOY_TIMEOUT_MS)  # late enough for the delta to set the fence
    svc.sent.clear()
    eng.handle_packet(window_delta(2000), in_face=1)
    assert [f for _, f, _ in svc.sent] == [2, 3]
    eng.handle_packet(Interest(name=Name.from_uri("/state/s/1/prune/2000")), in_face=2)
    assert eng.fib.dump() == "prefix,faces\n/state/s/1,3\n"
    assert "s" in eng._deployed and ("s", 1) in eng._fences
    assert "released" not in eng.counters and "stale_prunes" not in eng.counters
    svc.sent.clear()
    eng.handle_packet(window_delta(3000), in_face=1)
    assert [f for _, f, _ in svc.sent] == [3]


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

    def wire(self, engines):
        """Deliver among `engines` by node id, each face to its peer's face back."""
        self.engines = engines
        for node, eng in engines.items():
            for face, fd in eng.faces.items():
                if fd.peer in engines:
                    self.links[(node, face)] = (fd.peer, engines[fd.peer]._face_of_peer[node])

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
    """c1 - b1 - p1, and c2 (no engine) on b1's face 2; p1 is on b1's face 3."""
    net = Net()
    topo = topology("c1-b1", "b1-p1", "b1-c2")
    net.wire({n: Engine(NodeConfig(n, topo), net) for n in ("c1", "b1", "p1")})
    return net, net.engines["c1"], net.engines["b1"], net.engines["p1"]


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
    b1.handle_packet(Interest(name=name), in_face=2)
    upstream = [pkt for n, f, pkt in net.queue if n == "p1"]
    assert len(upstream) == 1  # second interest aggregated, not re-forwarded
    assert b1.pit.lookup(name).faces == {1, 2}
    net.run()
    p1.cs.insert(name, b"v", 9)
    b1.handle_packet(Data(name=name, payload=b"v", ts=9), in_face=3)
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
    assert eng.instances == {} and eng._feeds == {}
    assert notifications(svc, 1) == []


# ---------------------------------------------------------------------------
# distributed coordination on a broker line


def line_topology():
    """p1 - b1 - b2 - b3 - c1, every node and link 1 ms."""
    return topology("p1-b1", "b1-b2", "b2-b3", "b3-c1")


def coordinator_b3():
    """b3 on the line, with b2 on face 1 and c1 on face 2."""
    svc = FakeServices()
    cfg = NodeConfig(
        node_id="b3",
        topology=line_topology(),
        streams=default_streams(),
        mode="distributed",
    )
    return Engine(cfg, svc), svc


def probed(eng, svc, query):
    """The brokers whose delay `eng` probes to plan `query`, in order."""
    eng.handle_packet(AddQueryInterest(query=query, nonce="n1"), in_face=APP_FACE)
    return [
        p.name.components[1]
        for _, _, p in svc.sent
        if isinstance(p, Interest) and p.name.components[-1] == "delay"
    ]


@pytest.mark.parametrize("qid", ["q1", "q2", "q3", "q4", "q5", "q6"])
def test_every_shipped_query_probes_every_other_broker_of_the_distributed_preset(qid):
    spec = sim.load_scenario(str(sim.data_path(qid + ".scn")))
    svc = FakeServices()
    eng = Engine(NodeConfig("b6", spec.topology, spec.bindings(), "distributed"), svc)
    assert probed(eng, svc, spec.queries[0].text) == ["b1", "b2", "b3", "b4", "b5"]


def test_a_side_branch_two_hops_off_the_path_gets_no_probe():
    # b1..b3 is the fewest-hop path from p1's broker; b4 is one hop off it, b5 two
    topo = topology("p1-b1", "b1-b2", "b2-b3", "b3-c1", "b2-b4", "b4-b5")
    svc = FakeServices()
    eng = Engine(NodeConfig("b3", topo, default_streams(), "distributed"), svc)
    assert probed(eng, svc, Q2) == ["b1", "b2", "b4"]


def test_distributed_probe_then_deploy():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
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
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=2), in_face=1)
    salted = [p for n, k, p in svc.events if k == "query_accepted"][0]["salted"]

    rows = [[1000, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0]]
    wire = state_blob(delta(wm=1000, first=0, end=1, rows=rows), "/state/%s/1/out" % salted)
    eng.handle_packet(decode_packet(wire), in_face=1)
    out = notifications(svc, 2)
    assert len(out) == 1
    assert json.loads(out[0].payload)["rows"] == rows


def test_deploy_timeout_surfaces():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    probes = [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]
    for p in probes:
        eng.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    svc.fire_timers()  # nobody acked the deployment
    kinds = [k for n, k, p in svc.events]
    assert "deploy_timeout" in kinds
    assert "query_deployed" not in kinds


def test_probe_timeout_marks_unreachable_and_proceeds():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
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


@pytest.mark.parametrize("reply", [b"-1", b"nan", b"-inf", b"abc", b"\xff"])
def test_a_probe_reply_that_is_no_delay_reads_like_a_silent_broker(reply):
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    eng.handle_packet(Data(name=Name.from_uri("/node/b1/delay"), payload=b"1.0", ts=1), in_face=1)
    eng.handle_packet(Data(name=Name.from_uri("/node/b2/delay"), payload=reply, ts=1), in_face=1)
    # without b2 no broker path joins b1 to b3
    assert [k for n, k, p in svc.events] == ["query_accepted", "plan_failed"]
    unsalted = svc.events[0][2]["unsalted"]
    assert [p.name.components for p in sent_to(svc, 2)] == [("nack", unsalted, "n1")]
    assert eng._deployed == {} and len(eng.pit) == 0
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    assert [p["nonce"] for n, k, p in svc.events if k == "query_accepted"] == ["n1", "n2"]
    # b1's answer is on record and b2's is not, so only b2 is probed again
    probes = [p.name.components[1] for p in sent_to(svc, 1, Interest)]
    assert probes == ["b1", "b2", "b2"] and eng.counters["delays_reused"] == 1


def test_a_failed_plan_leaves_nothing_behind_and_a_later_add_plans_again():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    b1_probe = Name.from_uri("/node/b1/delay")
    eng.handle_packet(Data(name=b1_probe, payload=b"1.0", ts=1), in_face=1)
    svc.fire_timers()  # b2 stays silent: no broker path b1..b3
    assert [k for n, k, p in svc.events] == ["query_accepted", "plan_failed"]
    reason = svc.events[-1][2]["reason"]
    assert reason == "no priced broker path joins b1 to b3"  # b2 is unpriced
    nacks = [(p.name.components, p.payload) for p in sent_to(svc, 2)]
    # the consumer is told, by a nack that names the query's PIT entry
    unsalted = svc.events[0][2]["unsalted"]
    assert nacks == [(("nack", unsalted, "n1"), reason.encode("utf-8"))]
    assert eng._deployed == {} and eng.instances == {} and len(eng.pit) == 0

    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), in_face=2)
    accepted = [p["nonce"] for n, k, p in svc.events if k == "query_accepted"]
    assert accepted == ["n1", "n2"]
    # b1's answer is on record, so only the silent b2 is probed again
    assert [p.name.components[1] for p in sent_to(svc, 1, Interest)] == ["b1", "b2", "b2"]
    eng.handle_packet(Data(name=Name.from_uri("/node/b2/delay"), payload=b"1.0", ts=2), in_face=1)
    deploys = [p for p in sent_to(svc, 1, Interest) if len(p.name.components) == 4]
    for p in deploys:
        eng.handle_packet(Data(name=p.name, payload=b"ok", ts=3), in_face=1)
    deployed = [p["nonce"] for n, k, p in svc.events if k == "query_deployed"]
    assert deployed == ["n2"]


def test_late_deploy_acks_are_dropped_as_unsolicited():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
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
    assert all(eng.pit.lookup(p.name) is None for p in deploys)
    assert len(eng.pit) == 1  # only the query's own entry: no Interest is pending


Q3 = "FILTER(WINDOW(GPS_S1, 6s), 'latitude' < 48)"


def test_concurrent_plans_share_one_probe_per_broker():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    eng.handle_packet(AddQueryInterest(query=Q3, nonce="n2"), in_face=2)
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


def plan_in_rounds(eng, svc, query, nonce):
    """Plan `query` on coordinator `eng`, answering each round of its Interests 10 ms on.

    Returns the brokers it probed, in order, and its query_deployed event.
    """
    done = len(svc.sent)
    eng.handle_packet(AddQueryInterest(query=query, nonce=nonce), in_face=2)
    probed = []
    while True:
        asked = [p for _, _, p in svc.sent[done:] if isinstance(p, Interest)]
        done = len(svc.sent)
        if not asked:
            break
        svc.clock += 10
        for p in asked:
            is_probe = p.name.components[2] == "delay"
            probed += [p.name.components[1]] if is_probe else []
            reply = Data(name=p.name, payload=b"1.0" if is_probe else b"ok", ts=svc.clock)
            eng.handle_packet(reply, in_face=1)
    (deployed,) = [p for _, k, p in svc.events if k == "query_deployed" and p["nonce"] == nonce]
    return probed, deployed


def test_a_second_plan_probes_no_broker_whose_delay_it_holds():
    eng, svc = coordinator_b3()
    assert plan_in_rounds(eng, svc, Q2, "n1")[0] == ["b1", "b2"]
    timers = len(svc.timers)  # a probe timer and a deploy timer
    probed, second = plan_in_rounds(eng, svc, Q3, "n2")
    assert probed == [] and eng.counters["delays_reused"] == 2
    assert len(svc.timers) == timers + 1  # only the deploy stage's
    fresh, fresh_svc = coordinator_b3()
    fresh_probed, first = plan_in_rounds(fresh, fresh_svc, Q3, "n2")
    assert fresh_probed == ["b1", "b2"] and "delays_reused" not in fresh.counters
    # one round trip sooner, to the same plan
    assert second["placement_sim_ms"] == 10.0 < first["placement_sim_ms"] == 20.0
    assert (second["assignments"], second["path"]) == (first["assignments"], first["path"])


def test_a_broker_reuses_a_probe_reply_it_only_forwarded():
    net = wired_line()
    sent = []
    send = net.send
    net.send = lambda node, face, p: (sent.append((node, p)), send(node, face, p))
    b2, b3 = net.engines["b2"], net.engines["b3"]
    b3.handle_packet(AddQueryInterest(query=Q3, nonce="n3"), in_face=2)  # b3 probes b1 via b2
    net.run()
    b1_delay = Name.from_uri("/node/b1/delay")
    assert [n for n, p in sent if isinstance(p, Interest) and p.name == b1_delay] == ["b3", "b2"]
    sent.clear()
    b2.handle_packet(AddQueryInterest(query=Q2, nonce="n2"), APP_FACE)
    net.run()
    assert not any(isinstance(p, Interest) and p.name == b1_delay for _, p in sent)
    assert b2.counters["delays_reused"] == 1
    deployed = [(n, p["nonce"]) for n, k, p in net.events if k == "query_deployed"]
    assert deployed == [("b3", "n3"), ("b2", "n2")]


def test_a_centralized_coordinator_probes_nothing_even_with_delays_on_record():
    svc = FakeServices()
    eng = Engine(NodeConfig("b3", line_topology(), default_streams(), "centralized"), svc)
    assert plan_in_rounds(eng, svc, Q2, "n1")[0] == []
    eng.cs.insert(Name.from_uri("/node/b1/delay"), b"1.0", 1)
    assert plan_in_rounds(eng, svc, Q3, "n2")[0] == []
    assert "delays_reused" not in eng.counters


def test_a_probe_timeout_drops_only_its_own_wait():
    eng, svc = coordinator_b3()
    eng.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    svc.clock = 100
    eng.handle_packet(AddQueryInterest(query=Q3, nonce="n2"), in_face=2)
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
    net.wire(
        {n: Engine(NodeConfig(n, topo, default_streams(), "distributed"), net) for n in topo.nodes}
    )
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
    coordinator.handle_packet(AddQueryInterest(query=Q2, nonce="n1"), in_face=2)
    for p in [p for p in sent_to(svc, 1, Interest) if p.name.components[-1] == "delay"]:
        coordinator.handle_packet(Data(name=p.name, payload=b"1.0", ts=1), in_face=1)
    order = next(p for p in sent_to(svc, 1, Interest) if p.name.components[:3] == ("node", "b1", "deploy"))
    b1_svc = FakeServices()
    b1 = Engine(NodeConfig("b1", line_topology(), default_streams(), "distributed"), b1_svc)

    def last_delta():
        """b1's last delta, as the codec reads it back from its bytes."""
        blob = encode_packet(sent_to(b1_svc, 1, DataStream)[-1])  # face 1 leads to b2
        return decode_packet(blob).tuple

    b1.handle_packet(order, in_face=1)
    for ts in (1000, 2000, 3000):
        b1.handle_packet(gps_packet(ts), in_face=2)
    assert len(last_delta().rows) == 1  # the window grew by one row
    b1.handle_packet(order, in_face=1)  # the same query, deployed again
    b1.handle_packet(gps_packet(4000), in_face=2)
    sent = last_delta()
    assert len(sent.rows) == sent.end - sent.first > 1
