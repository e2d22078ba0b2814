"""Harness behavior: config parsing, replay, determinism, conservation."""

import gc
import hashlib
import heapq
import io
import json
import random
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep import sim
from icncep.engine import APP_FACE, Engine, NodeConfig
from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    Interest,
    Name,
    RemoveQueryInterest,
    Tuple,
)
from icncep.placement import NoPath, corridor
from icncep.query import STREAM_SCHEMAS, StreamBinding, create_operator_graph
from icncep.sim import (
    ConfigError,
    Metrics,
    QueryDef,
    QueryMetrics,
    ScenarioSpec,
    SchemaMismatch,
    Simulator,
    StreamDef,
    TopoLink,
    TopoNode,
    TopologyConfig,
    Trace,
    data_path,
    emit_metrics,
    generate_gps_csv,
    generate_plug_csv,
    load_scenario,
    load_topology,
    override_scenario,
    replay_dataset,
    run_scenario,
)
from digests import wire_digest


# ---------------------------------------------------------------------------
# topology loading


def test_centralized_preset_shape():
    topo = load_topology("centralized")
    assert len(topo.nodes) == 4
    assert len(topo.link_list) == 3
    assert topo.broker_ids() == ["b1"]


def test_distributed_preset_shape():
    topo = load_topology("distributed")
    assert len(topo.nodes) == 9
    roles = [n.role for n in topo.nodes.values()]
    assert roles.count("broker") == 6
    assert roles.count("producer") == 2
    assert roles.count("consumer") == 1


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("node a weird 1\n", "unknown role"),
        ("node a broker 1\nnode a broker 1\n", "duplicate node"),
        ("node a broker 1\nlink a ghost 1\n", "unknown endpoint"),
        ("node a broker 1\nlink a a x\n", "bad delay"),
        ("node a broker -1\n", "negative delay"),
        ("node a broker 1\nnode b broker nan\n", "line 2: delay 'nan' is not finite"),
        ("node a broker inf\n", "line 1: delay 'inf' is not finite"),
        ("node a broker -inf\n", "line 1: delay '-inf' is not finite"),
        ("node a broker 1\nnode b broker 1\nlink a b nan\n", "line 3: delay 'nan' is not finite"),
        ("node a broker 1\nnode b broker 1\nlink a b inf\n", "line 3: delay 'inf' is not finite"),
        ("node a broker 1\nnode b broker 1\nlink a b -inf 4\n", "line 3: delay '-inf' is not finite"),
        ("garble\n", "unknown directive"),
        ("node a broker 1\nnode b broker 1\n", "disconnected"),
        ("node a broker 1\nnode b broker 1\nlink a b 1 0\n", "capacity"),
        ("node a broker\n", "line 1: node takes <id> <role> <delay_ms>"),
        ("node a broker 1\nnode b broker 1\nlink a b\n", "line 3: link takes <a> <b>"),
        ("node a broker 1\nnode b broker 1\nlink a b 1 x\n", "line 3: bad capacity 'x'"),
        ("# nothing but a comment\n", "defines no nodes"),
    ],
)
def test_topology_errors_carry_diagnostics(tmp_path, body, fragment):
    p = tmp_path / "t.topo"
    p.write_text(body)
    with pytest.raises(ConfigError) as err:
        load_topology(str(p))
    assert fragment in str(err.value)


@pytest.mark.parametrize("name", ["distributed", "distributed.topo"])
def test_topology_preset_resolves_with_or_without_suffix(name):
    """A ".topo" suffix on a preset name raised "topology not found"."""
    shipped = load_topology(str(data_path("distributed.topo")))
    assert load_topology(name).link_list == shipped.link_list


@pytest.mark.parametrize("name", ["q1", "q1.scn"])
def test_scenario_preset_resolves_with_or_without_suffix(name):
    assert load_scenario(name).queries == load_scenario(str(data_path("q1.scn"))).queries


def test_missing_topology_file():
    with pytest.raises(ConfigError):
        load_topology("/no/such/file.topo")


# ---------------------------------------------------------------------------
# graph queries against a frozen oracle: the searches TopologyConfig replaced,
# kept verbatim apart from taking the topology as an argument


def oracle_neighbors(topo, node_id):
    out = set()
    for l in topo.link_list:
        if l.a == node_id:
            out.add(l.b)
        elif l.b == node_id:
            out.add(l.a)
    return sorted(out)


def oracle_next_hop(topo, src, dst):
    if src == dst:
        return None
    parents = {src: None}
    order = [src]
    i = 0
    while i < len(order):
        n = order[i]
        i += 1
        for peer in oracle_neighbors(topo, n):
            if peer not in parents:
                parents[peer] = n
                order.append(peer)
                if peer == dst:
                    node = peer
                    while parents[node] != src:
                        node = parents[node]
                    return node
    return None


def oracle_hops(topo, src, dst):
    """Fewest-hop node path over the static topology, smallest ids first."""
    if src == dst:
        return [src]
    adj = {}
    for link in topo.link_list:
        adj.setdefault(link.a, []).append(link.b)
        adj.setdefault(link.b, []).append(link.a)
    seen = {src}
    frontier = [[src]]
    while frontier:
        nxt = []
        for path in frontier:
            for peer in sorted(adj.get(path[-1], [])):
                if peer in seen:
                    continue
                if peer == dst:
                    return path + [peer]
                seen.add(peer)
                nxt.append(path + [peer])
        frontier = nxt
    raise NoPath("%s cannot reach %s" % (src, dst))


def oracle_ingress_broker(topo, node_id):
    """The broker with the fewest hops from `node_id`, then the smallest id."""
    reachable = []
    for b in topo.broker_ids():
        try:
            reachable.append((len(oracle_hops(topo, node_id, b)), b))
        except NoPath:
            pass
    return min(reachable)[1] if reachable else None


def interest_peers(simulator, src, uri):
    """The peers that `src`'s engine forwards a locally asked Interest for `uri` to."""
    engine = simulator.engines[src]
    simulator._ctx_out = []
    engine.handle_interest(Interest(name=Name.from_uri(uri)), APP_FACE)
    return [engine.faces[face].peer for face, _packet in simulator._ctx_out]


def assert_graph_matches_oracle(topo):
    simulator = Simulator(ScenarioSpec(topology=topo, streams=[], queries=[]))
    for src in topo.nodes:
        assert topo.neighbors(src) == oracle_neighbors(topo, src)
        assert topo.ingress_broker(src) == oracle_ingress_broker(topo, src)
        for dst in topo.nodes:
            hop = oracle_next_hop(topo, src, dst)
            assert topo.next_hop(src, dst) == hop
            assert topo.hop_path(src, dst) == oracle_hops(topo, src, dst)
            if hop is not None:
                assert interest_peers(simulator, src, "/node/%s/delay" % dst) == [hop]
        assert interest_peers(simulator, src, "/node/%s/x" % src) == []
        assert interest_peers(simulator, src, "/node/no-such-node/x") == []


@st.composite
def connected_topologies(draw):
    """A spanning tree plus extra links that may repeat, close cycles or loop."""
    n = draw(st.integers(min_value=1, max_value=12))
    # shuffled ids, so that id order and attachment order disagree
    ids = draw(st.permutations(["n%02d" % i for i in range(n)]))
    roles = draw(st.lists(st.sampled_from(["broker", "producer", "consumer"]), min_size=n, max_size=n))
    pairs = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2 * n))
    pairs = draw(st.permutations(pairs))
    delays = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    return TopologyConfig(
        name="drawn",
        nodes={nid: TopoNode(nid, role, 1.0) for nid, role in zip(ids, roles)},
        link_list=[TopoLink(a, b, float(d)) for (a, b), d in zip(pairs, delays)],
    )


@given(topo=connected_topologies())
@settings(max_examples=150, deadline=None)
def test_graph_queries_match_oracle_on_drawn_topologies(topo):
    assert_graph_matches_oracle(topo)


@given(topo=connected_topologies())
@settings(max_examples=150, deadline=None)
def test_engines_wire_themselves_from_drawn_topologies(topo):
    """Face k leads to the k-th sorted neighbour, and only a producer starts with
    routes: its own streams, on the face toward its nearest broker. Every node has a
    stream."""
    streams = {
        n: StreamBinding(n, Name(("node", n, "s")), STREAM_SCHEMAS["gps"]) for n in topo.nodes
    }
    for nid, tnode in topo.nodes.items():
        eng = Engine(NodeConfig(nid, topo, streams), services=None)
        peers = oracle_neighbors(topo, nid)
        assert {k: fd.peer for k, fd in eng.faces.items()} == dict(enumerate(["app"] + peers))
        assert eng._face_of_peer == {peer: k for k, peer in enumerate(peers, 1)}
        assert eng.role == tnode.role
        broker = oracle_ingress_broker(topo, nid)
        routes = []
        if tnode.role == "producer" and broker is not None:
            up = oracle_next_hop(topo, nid, broker)
            routes = ["/node/%s/s,%d" % (nid, peers.index(up) + 1)]
        assert eng.fib.dump().splitlines() == ["prefix,faces"] + routes


@pytest.mark.parametrize("preset", ["centralized", "distributed"])
def test_graph_queries_match_oracle_on_presets(preset):
    assert_graph_matches_oracle(load_topology(preset))


def test_hop_path_raises_and_next_hop_is_none_when_unreachable():
    topo = TopologyConfig(
        name="split",
        nodes={n: TopoNode(n, "broker", 1.0) for n in ("a", "b", "c")},
        link_list=[TopoLink("a", "b", 1.0)],
    )
    assert topo.next_hop("a", "c") is None
    with pytest.raises(NoPath):
        topo.hop_path("a", "c")


def test_setup_of_200_brokers_is_fast(tmp_path):
    rng = random.Random(200)
    ids = ["b%03d" % i for i in range(200)]
    edges = {tuple(sorted((ids[i], rng.choice(ids[:i])))) for i in range(1, 200)}
    while len(edges) < 199 + 100:
        edges.add(tuple(sorted(rng.sample(ids, 2))))
    lines = ["node %s broker 1" % b for b in ids]
    lines += ["link %s %s %d" % (a, b, rng.randint(1, 3)) for a, b in sorted(edges)]
    path = tmp_path / "n200.topo"
    path.write_text("\n".join(lines) + "\n")

    started = time.perf_counter()
    topo = load_topology(str(path))
    Simulator(ScenarioSpec(topology=topo, streams=[], queries=[]))
    assert time.perf_counter() - started < 2.0


def test_setup_of_1000_brokers_installs_only_stream_routes_and_one_bfs(tmp_path):
    ids = ["b%04d" % i for i in range(1000)]
    lines = ["node %s broker 1" % b for b in ids] + ["node p1 producer 1", "node c1 consumer 1"]
    lines += ["link %s %s 1" % (b, ids[(i + 1) % 1000]) for i, b in enumerate(ids)]  # ring
    lines += ["link %s %s 2" % (b, ids[(i + 37) % 1000]) for i, b in enumerate(ids[::10])]
    lines += ["link p1 b0000 1", "link c1 b0500 1"]
    path = tmp_path / "n1000.topo"
    path.write_text("\n".join(lines) + "\n")
    streams = [
        StreamDef("GPS_S1", "/node/p1/gps", "gps", "unused.csv"),
        StreamDef("GPS_S2", "/node/p1/gps2", "gps", "unused.csv"),
    ]

    topo = load_topology(str(path))
    simulator = Simulator(ScenarioSpec(topology=topo, streams=streams, queries=[]))
    routes = {
        (nid, e.prefix.to_uri(), tuple(sorted(e.faces)))
        for nid, engine in simulator.engines.items()
        for e in engine.fib.entries()
    }
    assert routes == {("p1", "/node/p1/gps", (1,)), ("p1", "/node/p1/gps2", (1,))}
    assert len(topo._parents) <= 1


def tree_and_chords_topology(seed, brokers):
    """A seeded random spanning tree over `brokers` brokers plus brokers/2
    chords, links of 1-3 ms; producers p1, p2 and consumers c1..c8 each hang
    off a random broker."""
    rng = random.Random(seed)
    ids = ["b%03d" % i for i in range(brokers)]
    pairs = [(ids[i], rng.choice(ids[:i])) for i in range(1, brokers)]
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(brokers // 2)]
    ends = {"p1": "producer", "p2": "producer"}
    ends.update(("c%d" % k, "consumer") for k in range(1, 9))
    pairs += [(n, rng.choice(ids)) for n in ends]
    nodes = {n: TopoNode(n, "broker", 1.0) for n in ids}
    nodes.update((n, TopoNode(n, role, 1.0)) for n, role in ends.items())
    links = [TopoLink(a, b, float(rng.randint(1, 3))) for a, b in pairs]
    return TopologyConfig("tree%d" % brokers, nodes, links)


def test_distributed_plans_on_256_brokers_probe_only_their_corridors(tmp_path, monkeypatch):
    """Probing all 255 other brokers cannot end within the 200 ms probe
    timeout; each plan probes only its corridor, and every query deploys."""
    topo = tree_and_chords_topology(256, 256)
    streams = []
    for k in (1, 2):
        csv = str(tmp_path / ("gps%d.csv" % k))
        generate_gps_csv(csv, seed=k, s_id=k, rows=12)
        streams.append(StreamDef("GPS_S%d" % k, "/node/p%d/gps" % k, "gps", csv))
    texts = [
        "FILTER(WINDOW(GPS_S1, 4s), 'speed' > 5)",
        "FILTER(WINDOW(GPS_S2, 3s), 'latitude' < 50)",
        "AVG('speed', WINDOW(GPS_S1, 4s))",
        "AVG('altitude', WINDOW(GPS_S2, 5s))",
        "JOIN(WINDOW(GPS_S1, 4s), WINDOW(GPS_S2, 3s), GPS_S1.'ts' = GPS_S2.'ts')",
        "SEQUENCE(FILTER(WINDOW(GPS_S1, 4s), 'accuracy' < 8) -> WINDOW(GPS_S2, 4s))",
        "FILTER(WINDOW(GPS_S1, 2s), 'speed' >= 0)",
        "AVG('distance', WINDOW(GPS_S2, 2s))",
    ]
    queries = [
        QueryDef("q%d" % k, "c%d" % k, 100 * k, None, "distributed", text)
        for k, text in enumerate(texts, 1)
    ]
    spec = ScenarioSpec(topo, streams, queries)
    probes = {}
    originate = Engine._originate_interest

    def record(eng, name, pending):
        if name.components[-1] == "delay":
            probes.setdefault(pending.nonce, []).append(name.components[1])
        originate(eng, name, pending)

    monkeypatch.setattr(Engine, "_originate_interest", record)
    metrics = run_scenario(spec, collect_trace=False)
    kinds = [k for _, k, _ in metrics.events]
    assert kinds.count("query_deployed") == 8 and "plan_failed" not in kinds
    assert sum(c.get("errors", 0) for c in metrics.nodes.values()) == 0
    bindings = spec.bindings()
    for node, kind, p in metrics.events:
        if kind == "query_accepted":
            tree = create_operator_graph(p["key"], bindings)
            near = corridor(topo, tree, bindings, node)
            assert len(probes[p["nonce"]]) <= len(near) < 64  # under a quarter of 256
            assert set(probes[p["nonce"]]) < set(near)


# ---------------------------------------------------------------------------
# scenario loading


TOPO = "topology centralized\n"
STREAM = "stream GPS_S1 /node/p1/gps gps g.csv 1.0\n"
QUERY = "query a c1 0 1000 centralized WINDOW(GPS_S1, 4s)\n"


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("topology a b\n", "line 1: topology takes one name or path"),
        (TOPO + "seed\n", "line 2: seed takes one integer"),
        (TOPO + "seed x\n", "line 2: bad seed 'x'"),
        (TOPO + "stream GPS_S1 /node/p1/gps gps\n", "line 2: stream takes <alias>"),
        (TOPO + "stream GPS_S1 /node/p1/gps gps g.csv fast\n", "line 2: bad rate 'fast'"),
        (TOPO + "query a c1 0 1000 centralized\n", "line 2: query takes <id>"),
        (TOPO + "query a c1 0 1000 centralized poll=x WINDOW(GPS_S1, 4s)\n", "line 2: bad poll"),
        (TOPO + "query a c1 0 1000 centralized poll=5\n", "line 2: query text missing"),
        (TOPO + "query a c1 zero 1000 centralized WINDOW(GPS_S1, 4s)\n", "line 2: bad start/stop"),
        (TOPO + "garble\n", "line 2: unknown directive 'garble'"),
        (STREAM + QUERY, "no topology line"),
        (TOPO + STREAM, "no query line"),
        (
            TOPO + "stream GPS_S1 /node/p9/gps gps g.csv 1.0\n" + QUERY,
            "stream GPS_S1 names unknown producer p9",
        ),
    ],
)
def test_scenario_errors_carry_diagnostics(tmp_path, body, fragment):
    p = tmp_path / "s.scn"
    p.write_text(body)
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert fragment in str(err.value)


def test_shipped_scenarios_load():
    for qid in ("q1", "q2", "q3", "q4", "q5", "q6"):
        spec = load_scenario(qid)
        assert spec.queries[0].query_id == qid
        assert spec.topology.name == "distributed"


def test_scenario_rejects_unbound_alias(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "query q c1 0 1000 centralized WINDOW(GPS_S9, 4s)\n"
    )
    with pytest.raises(ConfigError):
        load_scenario(str(p))


def test_scenario_rejects_mixed_modes(tmp_path):
    csv = tmp_path / "g.csv"
    generate_gps_csv(str(csv), rows=3)
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps g.csv 1.0\n"
        "query a c1 0 1000 centralized WINDOW(GPS_S1, 4s)\n"
        "query b c1 0 2000 distributed WINDOW(GPS_S1, 2s)\n"
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "mix" in str(err.value)


def test_scenario_rejects_unknown_consumer(tmp_path):
    csv = tmp_path / "g.csv"
    generate_gps_csv(str(csv), rows=3)
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps g.csv 1.0\n"
        "query a ghost 0 1000 centralized WINDOW(GPS_S1, 4s)\n"
    )
    with pytest.raises(ConfigError):
        load_scenario(str(p))


BAD_RATE = "stream GPS_S1 rate must be a finite number > 0"


@pytest.mark.parametrize("rate", ["0", "-2", "inf", "nan"])
def test_scenario_rejects_a_rate_that_is_not_a_finite_number_above_zero(tmp_path, rate):
    """A rate of inf would inject every tuple of the stream at t = 0."""
    generate_gps_csv(str(tmp_path / "g.csv"), rows=3)
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps g.csv %s\n"
        "query a c1 0 1000 centralized WINDOW(GPS_S1, 4s)\n" % rate
    )
    with pytest.raises(ConfigError, match=BAD_RATE):
        load_scenario(str(p))


def streams_scenario(tmp_path, uris):
    generate_gps_csv(str(tmp_path / "g.csv"), rows=3)
    lines = ["topology centralized"]
    lines += ["stream GPS_S%d %s gps g.csv 1.0" % (k, uri) for k, uri in enumerate(uris, 1)]
    lines.append("query a c1 0 1000 centralized WINDOW(GPS_S1, 4s)")
    p = tmp_path / "s.scn"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.mark.parametrize(
    "outer,inner", [("/node/p1/gps", "/node/p1/gps/raw"), ("/node/p1", "/node/p1/gps")]
)
def test_scenario_rejects_a_stream_nested_in_another(tmp_path, outer, inner):
    with pytest.raises(ConfigError) as err:
        load_scenario(streams_scenario(tmp_path, [inner, "/node/p1/gpsx", outer]))
    assert "%s nests inside stream %s" % (inner, outer) in str(err.value)


def test_scenario_accepts_streams_that_share_only_leading_text(tmp_path):
    uris = ["/node/p1/gps", "/node/p1/gpsx", "/node/p1/gps2/raw"]
    assert len(load_scenario(streams_scenario(tmp_path, uris)).streams) == 3


def test_scenario_rejects_a_stream_uri_without_a_producer(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_scenario(streams_scenario(tmp_path, ["/gps"]))
    assert "stream GPS_S1 URI /gps names no producer" in str(err.value)


def test_scenario_rejects_a_stream_in_the_state_namespace(tmp_path):
    """/state/<q>/<i>/out names intermediate results; a producer stream there
    would have every tuple counted malformed and fail the packet codec."""
    with pytest.raises(ConfigError) as err:
        load_scenario(streams_scenario(tmp_path, ["/state/p1/0/out"]))
    assert "stream GPS_S1 URI /state/p1/0/out is in the reserved /state namespace" in str(
        err.value
    )


@pytest.mark.parametrize("poll", [0, -5])
def test_scenario_rejects_a_poll_interval_that_is_not_positive(tmp_path, poll):
    # only load the spec: run, a negative interval would inject polls forever
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "query a c1 0 1000 centralized poll=%d WINDOW(GPS_S1, 4s)\n" % poll
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "poll interval must be positive" in str(err.value)


def test_scenario_rejects_a_poller_without_a_stop_time(tmp_path):
    # without a stop time the poll loop would have no end to poll up to
    p = tmp_path / "s.scn"
    p.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps feed.csv 1.0\n"
        "query q1 c1 50 - centralized poll=5000 WINDOW(GPS_S1, 4s)\n"
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "query q1 polls but has no stop time" in str(err.value)


def test_scenario_rejects_bad_query_text(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text("topology centralized\nquery a c1 0 1000 centralized WINDOW(\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "does not parse" in str(err.value)


@pytest.mark.parametrize(
    "queries, message",
    [
        (lambda q: [replace(q, poll_ms=5000, stop_ms=None)], "query q1 polls but has no stop time"),
        (lambda q: [replace(q, mode="foo")], "query q1 has unknown mode 'foo'"),
        (lambda q: [replace(q, stop_ms=99)], "query q1 stops before it starts"),
        (lambda q: [q, replace(q, start_ms=200)], "duplicate query id 'q1'"),
        (lambda q: [replace(q, poll_ms=0)], "query q1 poll interval must be positive"),
        # unchecked, the poll loop stepped backwards from the stop time for ever
        (lambda q: [replace(q, poll_ms=-5)], "query q1 poll interval must be positive"),
    ],
    ids=[
        "poll-without-stop",
        "unknown-mode",
        "stop-before-start",
        "duplicate-id",
        "zero-poll",
        "negative-poll",
    ],
)
def test_run_scenario_checks_a_spec_built_in_code(queries, message):
    """A spec built in code is checked as a loaded one, before anything runs."""
    spec = load_scenario("q1")
    spec.queries = queries(spec.queries[0])
    with pytest.raises(ConfigError) as err:
        run_scenario(spec, collect_trace=False)
    assert str(err.value) == "run_scenario: " + message


@pytest.mark.parametrize(
    "streams, message",
    [
        (lambda s: [replace(s, schema="foo")], "stream GPS_S1 has unknown schema 'foo'"),
        (lambda s: [s, replace(s, uri="/node/p1/gps2")], "duplicate stream alias 'GPS_S1'"),
        (lambda s: [replace(s, rate=0.0)], BAD_RATE),
        (lambda s: [replace(s, rate=-1.0)], BAD_RATE),
        (lambda s: [replace(s, rate=float("inf"))], BAD_RATE),
        (lambda s: [replace(s, rate=float("nan"))], BAD_RATE),
        (
            lambda s: [replace(s, uri="/state/p1/0/out")],
            "stream GPS_S1 URI /state/p1/0/out is in the reserved /state namespace",
        ),
    ],
    ids=[
        "unknown-schema",
        "duplicate-alias",
        "zero-rate",
        "negative-rate",
        "infinite-rate",
        "nan-rate",
        "state-namespace",
    ],
)
def test_run_scenario_checks_the_streams_of_a_spec_built_in_code(streams, message):
    """The stream checks a loaded spec gets, not a KeyError from its bindings."""
    spec = load_scenario("q1")
    spec.streams = streams(spec.streams[0])
    with pytest.raises(ConfigError) as err:
        run_scenario(spec, collect_trace=False)
    assert str(err.value) == "run_scenario: " + message


# ---------------------------------------------------------------------------
# dataset replay


def test_replay_three_rows_in_order(tmp_path):
    csv = tmp_path / "g.csv"
    generate_gps_csv(str(csv), rows=3)
    schedule, warnings = replay_dataset(
        StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)
    )
    assert warnings == 0
    assert len(schedule) == 3
    assert [p.tuple.ts for _, p in schedule] == [1000, 2000, 3000]
    assert all(isinstance(p, DataStream) for _, p in schedule)


def test_replay_rate_scales_emission_times(tmp_path):
    csv = tmp_path / "g.csv"
    generate_gps_csv(str(csv), rows=2)
    schedule, _ = replay_dataset(StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 2.0))
    assert [t for t, _ in schedule] == [500.0, 1000.0]


def test_replay_header_mismatch(tmp_path):
    csv = tmp_path / "g.csv"
    csv.write_text("ts,s_id,longitude\n1,1,8.6\n")
    with pytest.raises(SchemaMismatch):
        replay_dataset(StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0))


GPS_HEADER = "ts,s_id,latitude,longitude,altitude,accuracy,distance,speed\n"


@pytest.mark.parametrize(
    "schema,body,fragment",
    [
        ("foo", GPS_HEADER, "unknown schema 'foo'"),
        ("gps", GPS_HEADER + "1000,1,49.87\n", "line 2 has 3 fields, expected 8"),
        ("gps", GPS_HEADER + "1000,1,49.87,8.65,100,1,0,fast\n", "line 2: could not convert"),
        ("gps", GPS_HEADER + "-1,1,49.87,8.65,100,1,0,10\n", "line 2: negative timestamp"),
    ],
)
def test_replay_errors_carry_diagnostics(tmp_path, schema, body, fragment):
    csv = tmp_path / "g.csv"
    csv.write_text(body)
    with pytest.raises(SchemaMismatch) as err:
        replay_dataset(StreamDef("GPS_S1", "/node/p1/gps", schema, str(csv), 1.0))
    assert fragment in str(err.value)


def test_replay_missing_file():
    with pytest.raises(SchemaMismatch):
        replay_dataset(StreamDef("GPS_S1", "/node/p1/gps", "gps", "/no/file.csv", 1.0))


def test_replay_reorders_nonmonotone_rows(tmp_path):
    csv = tmp_path / "g.csv"
    header = "ts,s_id,latitude,longitude,altitude,accuracy,distance,speed"
    csv.write_text(
        header + "\n"
        "3000,1,49.87,8.65,100,1,0,10\n"
        "1000,1,49.87,8.65,100,1,0,10\n"
        "2000,1,49.87,8.65,100,1,0,10\n"
    )
    schedule, warnings = replay_dataset(
        StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)
    )
    assert [p.tuple.ts for _, p in schedule] == [1000, 2000, 3000]
    assert warnings == 2


# ---------------------------------------------------------------------------
# scenario execution


def small_spec(tmp_path, rows=20, mode="centralized", topology="centralized", poll=None):
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=rows)
    stop = 1000 * rows + 5000
    return ScenarioSpec(
        topology=load_topology(topology),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[QueryDef("q", "c1", 100, stop, mode, "WINDOW(GPS_S1, 4s)", poll)],
    )


def test_run_is_deterministic(tmp_path):
    spec = small_spec(tmp_path)
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a.trace == b.trace
    assert a.trace_hash == b.trace_hash


def test_push_counts_one_notification_per_tuple(tmp_path):
    m = run_scenario(small_spec(tmp_path, rows=20))
    q = m.queries["q"]
    assert q.notifications == 20
    assert q.control_packets == 2  # one add, one remove
    assert q.graph_ms > 0
    assert q.placement_ms == 0.0
    assert abs(q.total_ms - (q.graph_ms + q.placement_ms + q.communication_ms)) < 1e-9


def test_polling_needs_a_control_packet_per_round(tmp_path):
    push = run_scenario(small_spec(tmp_path, rows=20)).queries["q"]
    poll = run_scenario(small_spec(tmp_path, rows=20, poll=1000)).queries["q"]
    assert push.control_packets == 2
    assert poll.control_packets >= 20


def test_causality_no_receive_before_send_plus_delay(tmp_path):
    m = run_scenario(small_spec(tmp_path, rows=10))
    sends = {}
    for line in m.trace:
        t_s, node, kind, rest = line.split(" ", 3)
        if kind not in ("send", "recv"):
            continue
        uid = int(rest.split(" ", 1)[0][4:])
        if uid == 0:
            continue
        if kind == "send":
            sends[uid] = float(t_s)
        else:
            assert uid in sends
            assert float(t_s) >= sends[uid] + 1.0 - 1e-9  # preset link delay 1ms


def test_packet_conservation_per_node(tmp_path):
    for topology, mode in (("centralized", "centralized"), ("distributed", "distributed")):
        m = run_scenario(small_spec(tmp_path, rows=15, mode=mode, topology=topology))
        for node, c in m.nodes.items():
            classified = c.get("consumed", 0) + c.get("forwarded", 0) + c.get("dropped", 0)
            assert c.get("received", 0) == classified, (node, c)


def test_distributed_mode_reports_placement_time(tmp_path):
    m = run_scenario(small_spec(tmp_path, rows=10, mode="distributed", topology="distributed"))
    q = m.queries["q"]
    assert q.placement_ms > 0
    assert q.notifications == 10


def test_query_metrics_come_from_the_exact_query_id(tmp_path):
    # "a:b" deploys first; its nonces "a:b:<k>" also start with "a:"
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=20)
    spec = ScenarioSpec(
        topology=load_topology("distributed"),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[
            QueryDef("a:b", "c1", 50, 25000, "distributed", "WINDOW(GPS_S1, 4s)"),
            QueryDef("a", "c1", 5000, 25000, "distributed",
                     "FILTER(WINDOW(GPS_S1, 4s), 'latitude' < 50)"),
        ],
    )
    m = run_scenario(spec, collect_trace=False)
    deployed = {p["nonce"]: p for _, kind, p in m.events if kind == "query_deployed"}
    accepted = {p["nonce"]: p for _, kind, p in m.events if kind == "query_accepted"}
    for qid in ("a:b", "a"):
        q, dep = m.queries[qid], deployed[qid + ":1"]
        assert q.deployed_t == float(dep["t1"])
        assert q.placement_ms == dep["placement_sim_ms"] + dep["plan_real_ms"]
        assert (q.placement_sim_ms, q.plan_real_ms) == (dep["placement_sim_ms"], dep["plan_real_ms"])
        assert q.graph_ms == accepted[qid + ":1"]["graph_real_ms"]
    assert m.queries["a"].deployed_t > 5000


def test_untraced_run_matches_the_traced_one_without_a_trace():
    spec = load_scenario(str(data_path("q3.scn")))
    traced = run_scenario(spec)
    untraced = run_scenario(spec, collect_trace=False)

    def events(m):
        return [
            (node, kind, {k: v for k, v in p.items() if not k.endswith("_real_ms")})
            for node, kind, p in m.events
        ]

    assert traced.trace and untraced.trace == []
    assert events(untraced) == events(traced)
    assert untraced.app_deliveries == traced.app_deliveries
    assert untraced.nodes == traced.nodes
    assert untraced.link_drops == traced.link_drops
    notified = {qid: q.notifications for qid, q in traced.queries.items()}
    assert {qid: q.notifications for qid, q in untraced.queries.items()} == notified
    assert notified["q3"] > 0


def test_flow_control_sheds_oldest_stream_packets(tmp_path):
    topo = tmp_path / "t.topo"
    topo.write_text(
        "node p1 producer 1\n"
        "node b1 broker 1\n"
        "node c1 consumer 1\n"
        "link p1 b1 400 2\n"  # slow, shallow link: packets pile up in flight
        "link c1 b1 1\n"
    )
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=40, step_ms=10)
    spec = ScenarioSpec(
        topology=load_topology(str(topo)),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[QueryDef("q", "c1", 10, 20000, "centralized", "WINDOW(GPS_S1, 4s)")],
    )
    m = run_scenario(spec)
    assert sum(m.link_drops.values()) > 0
    assert m.queries["q"].notifications < 40
    assert any("drop" in line and "reason=capacity" in line for line in m.trace)


def test_links_deliver_in_the_order_they_send(tmp_path, monkeypatch):
    """`_deliver` drops a packet that does not head its link's queue as shed.

    That holds only if each link delivers in the order it sends, that is of
    its packets' uids, and if every packet dropped there was shed.
    """
    last, calls, delivered = {}, [], []
    original = Simulator._deliver

    def deliver(self, key, uid, packet):
        assert uid > last.get(key, 0)
        last[key] = uid
        calls.append(uid)
        if self._in_flight[key] and self._in_flight[key][0][0] == uid:
            delivered.append(uid)
        original(self, key, uid, packet)

    def uids(trace, kind):
        return {int(line.split("uid=")[1].split()[0]) for line in trace if kind in line}

    monkeypatch.setattr(Simulator, "_deliver", deliver)
    m = run_scenario(load_scenario(str(data_path("q3.scn"))))
    assert m.queries["q3"].notifications and not m.link_drops
    assert delivered == calls
    for seen in (last, calls, delivered):
        seen.clear()
    shed = run_scenario(burst_spec(tmp_path))
    dropped = uids(shed.trace, " drop uid=")
    assert len(dropped) == sum(shed.link_drops.values()) > 0
    assert set(delivered) == uids(shed.trace, " recv uid=") - {0}
    assert set(calls) - set(delivered) <= dropped
    assert not dropped & set(delivered)


def burst_spec(tmp_path):
    """A burst of tuples, then calm, over a slow and shallow broker link."""
    topo = tmp_path / "t.topo"
    topo.write_text(
        "node p1 producer 1\n"
        "node b1 broker 1\n"
        "node b2 broker 1\n"
        "node c1 consumer 1\n"
        "link p1 b1 1\n"
        "link b1 b2 40 2\n"  # the window on b1 ships to the filter on b2 here
        "link b2 c1 1\n"
    )
    burst, calm = tmp_path / "burst.csv", tmp_path / "calm.csv"
    generate_gps_csv(str(burst), seed=5, rows=20, start_ts=1000, step_ms=5)
    generate_gps_csv(str(calm), seed=6, rows=10, start_ts=2000, step_ms=1000)
    csv = tmp_path / "gps.csv"
    csv.write_text(burst.read_text() + calm.read_text().split("\n", 1)[1])
    return ScenarioSpec(
        topology=load_topology(str(topo)),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[
            QueryDef("q", "c1", 10, 20000, "distributed", "FILTER(WINDOW(GPS_S1, 3), 'speed' < 20)")
        ],
    )


def test_lost_state_deltas_never_evaluate_a_partial_mirror(tmp_path):
    """The broker link sheds /state deltas during the burst.

    The receiver must not evaluate while its mirror misses rows; every result
    it emits equals the filter over the full window, and results resume once
    the lost rows have slid out of the window.
    """
    spec = burst_spec(tmp_path)
    m = run_scenario(spec)
    assert any("drop" in line and "/state/" in line for line in m.trace)
    assert m.nodes["b2"]["state_gaps"] > 0
    assert not any(n.get("errors") for n in m.nodes.values())

    # the oracle: the last three tuples up to the result's timestamp, filtered
    lines = [l.split(",") for l in (tmp_path / "gps.csv").read_text().splitlines()[1:]]
    stream = [[int(r[0])] + [float(v) for v in r[1:]] for r in lines]

    def oracle(ts):
        window = [r for r in stream if r[0] <= ts][-3:]
        return [r for r in window if r[7] < 20]

    results = [
        json.loads(p.payload)
        for _, p in m.app_deliveries["c1"]
        if isinstance(p, Data) and p.name.components[0] == "ce"
    ]
    assert results
    for doc in results:
        assert json.dumps(doc["rows"]) == json.dumps(oracle(doc["ts"]))
    calm_ts = [r[0] for r in stream if r[0] >= 2000]
    resumed = [ts for ts in calm_ts[2:] if oracle(ts)]
    assert resumed and set(resumed) <= {doc["ts"] for doc in results}
    assert len(results) < len([r for r in stream if oracle(r[0])])  # some were lost


def capacity_one_link():
    """Brokers b1 and b2 on a link that holds one packet in flight."""
    topo = TopologyConfig(
        name="pair",
        nodes={n: TopoNode(n, "broker", 1.0) for n in ("b1", "b2")},
        link_list=[TopoLink("b1", "b2", 5.0, 1)],
    )
    return Simulator(ScenarioSpec(topology=topo, streams=[], queries=[]))


def stream_packet(ts):
    t = Tuple.from_values("gps", (ts, 1.0, 49.5, 8.65, 120.0, 5.0, 0.0, 10.0))
    return DataStream(stream_name=Name.from_uri("/node/p1/gps"), tuple=t)


def assert_shed_and_kept(simulator, shed, kept):
    """`shed` and `kept` are trace summaries of the two packets."""
    lines = simulator.trace
    drops = [l for l in lines if " drop " in l]
    assert len(drops) == 1 and drops[0].endswith(" %s link=b1->b2 reason=capacity" % shed)
    uid = drops[0].split(" ")[3]
    assert not any(" recv %s " % uid in l for l in lines)
    assert any(" recv " in l and kept in l for l in lines)
    assert simulator.link_drops == {"b1->b2": 1}
    assert simulator.engines["b2"].counters["received"] == 1
    return uid


STREAM = "DataStream /node/p1/gps ts=1000"
CONTROL = "Interest /x/y"


def test_a_control_packet_sheds_an_older_stream_packet_at_a_full_link():
    simulator = capacity_one_link()
    simulator._dispatch("b1", 1, stream_packet(1000), 0.0)
    simulator._dispatch("b1", 1, Interest(name=Name.from_uri("/x/y")), 0.0)
    simulator.run()
    assert_shed_and_kept(simulator, shed=STREAM, kept=CONTROL)


def test_a_stream_packet_is_lost_at_a_link_full_of_control_packets():
    simulator = capacity_one_link()
    simulator._dispatch("b1", 1, Interest(name=Name.from_uri("/x/y")), 0.0)
    simulator._dispatch("b1", 1, stream_packet(1000), 0.0)
    simulator.run()
    uid = assert_shed_and_kept(simulator, shed=STREAM, kept=CONTROL)
    assert not any(" send %s " % uid in l for l in simulator.trace)


def test_dispatch_returns_a_uid_only_for_a_packet_it_put_on_a_link():
    simulator = capacity_one_link()
    sent = [
        simulator._dispatch("b1", face, packet, 0.0)
        for face, packet in (
            (APP_FACE, stream_packet(1000)),
            (1, Interest(name=Name.from_uri("/x/y"))),
            (1, stream_packet(2000)),  # shed at once: the link is full of control packets
        )
    ]
    assert sent[0] is None and sent[2] is None
    assert [l.split(" ")[3] for l in simulator.trace if " send " in l] == ["uid=%d" % sent[1]]


LOOP_LINKS = (
    ("b1", "b2"), ("b1", "b3"), ("b1", "b5"), ("b2", "b3"), ("b2", "b5"), ("b2", "b6"),
    ("b3", "b4"), ("b3", "b5"), ("b4", "b8"), ("b5", "b7"), ("b6", "b8"),
)


class EventBudgetExhausted(BaseException):
    """Not an Exception, so the simulator's per-handler catch cannot swallow it."""


def test_stream_never_loops_round_a_cyclic_mesh(tmp_path, monkeypatch):
    """Bare-WINDOW roots on a cyclic 8-broker mesh: the run ends.

    A broker without a route for the stream name once fell back to the
    /node/<producer> route and sent each tuple round a cycle for ever.
    """
    topo = tmp_path / "loop.topo"
    nodes = ["node b%d broker 1" % k for k in range(1, 9)]
    nodes += ["node p1 producer 1", "node c1 consumer 1", "node c2 consumer 1", "node c3 consumer 1"]
    links = ["link %s %s 1" % ab for ab in LOOP_LINKS]
    links += ["link p1 b1 1", "link c1 b8 1", "link c2 b6 1", "link c3 b2 1"]
    topo.write_text("\n".join(nodes + links) + "\n")
    csv = tmp_path / "loop.csv"
    generate_gps_csv(str(csv), seed=1, s_id=1, rows=60)
    queries = [
        QueryDef("w%d" % k, "c%d" % k, 100 * k, None, "distributed", "WINDOW(GPS_S1, %ds)" % (k + 3))
        for k in (1, 2, 3)
    ]
    spec = ScenarioSpec(
        topology=load_topology(str(topo)),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=queries,
    )
    events = [0]
    original = Simulator._at

    def budgeted(self, t, fn):
        events[0] += 1
        if events[0] > 20000:
            raise EventBudgetExhausted()
        original(self, t, fn)

    monkeypatch.setattr(Simulator, "_at", budgeted)
    m = run_scenario(spec)
    assert {qid: q.notifications for qid, q in m.queries.items()} == {"w1": 60, "w2": 60, "w3": 60}
    assert not any(n.get("errors") for n in m.nodes.values())


class Beacon:
    """A packet kind the simulator does not know."""


@pytest.mark.parametrize(
    "packet, text",
    [
        (AddQueryInterest(query="WINDOW(GPS_S1, 4s)", nonce="q1:1"),
         "AddQueryInterest nonce=q1:1 q=WINDOW(GPS_S1, 4s)"),
        (RemoveQueryInterest(query="WINDOW(GPS_S1, 4s)", nonce="q1:end"),
         "RemoveQueryInterest nonce=q1:end q=WINDOW(GPS_S1, 4s)"),
        (DataStream(Name.from_uri("/node/p1/gps"), Tuple.from_values("gps", (1000, 1.0))),
         "DataStream /node/p1/gps ts=1000"),
        (Data(name=Name.from_uri("/ce/abc/2000"), payload=b"{}", ts=2000),
         "Data /ce/abc/2000 ts=2000"),
        (Interest(name=Name.from_uri("/node/b1/delay")), "Interest /node/b1/delay"),
        (Beacon(), "Beacon"),
    ],
    ids=["add", "remove", "stream", "data", "interest", "unknown"],
)
def test_each_packet_kind_has_its_trace_summary(packet, text):
    """Trace lines carry these texts, so their hashes pin them too."""
    assert sim._summary(packet) == text


# ---------------------------------------------------------------------------
# each node serves its handlers first come, first served


def fifo_recorder(runs):
    """The simulator as shipped, adding to `runs` each instance it makes.

    Each instance numbers, per node, the handlers as they reach `_exec`, and
    notes the numbers in the order the handlers start, any handler that
    starts while its node is busy, and how many started later than they
    arrived.
    """

    class FifoRecorder(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.reached, self.started, self.early, self.waited = Counter(), {}, [], 0
            runs.append(self)

        def _exec(self, node, thunk, *rest):
            k = self.reached[node]
            self.reached[node] += 1
            super()._exec(node, partial(self._start, node, k, self.t, thunk), *rest)

        def _start(self, node, k, reached_t, thunk):
            if self.busy_until[node] > self.t:
                self.early.append((self.t, node, k))
            self.waited += self.t > reached_t
            self.started.setdefault(node, []).append(k)
            thunk()

    return FifoRecorder


def run_with(simulator, spec):
    """`run_scenario` with another `Simulator` class in its place."""
    shipped = sim.Simulator
    sim.Simulator = simulator
    try:
        return run_scenario(spec)
    finally:
        sim.Simulator = shipped


BUSY_QUERIES = (
    "WINDOW(GPS_S1, 3)",
    "FILTER(WINDOW(GPS_S1, 4), 'speed' < 20)",
    "AVG('speed', WINDOW(GPS_S2, 2s))",
    "JOIN(WINDOW(GPS_S1, 2s), WINDOW(GPS_S2, 2s), GPS_S1.'ts' = GPS_S2.'ts')",
)


@st.composite
def busy_scenarios(draw):
    """A broker ring with a chord, integer delays and streams a few ms apart.

    Arrivals then often land exactly on a node's busy_until, and several
    events share one time, which is where a node's line must keep its order.
    """
    ms = st.integers(0, 3)
    k = draw(st.integers(3, 5))
    brokers = ["b%d" % i for i in range(1, k + 1)]
    lines = ["node %s broker %d" % (b, draw(st.integers(0, 4))) for b in brokers]
    lines += ["node p1 producer 1", "node p2 producer 1", "node c1 consumer 1", "node c2 consumer 1"]
    lines += ["link %s %s %d" % (brokers[i], brokers[(i + 1) % k], draw(ms)) for i in range(k)]
    lines.append("link b1 b%d %d" % (draw(st.integers(3, k)), draw(ms)))
    for end in ("p1", "p2", "c1", "c2"):
        lines.append("link %s %s %d" % (end, draw(st.sampled_from(brokers)), draw(ms)))
    streams = [(k, draw(st.integers(10, 25)), draw(st.sampled_from([1, 2, 3, 5]))) for k in (1, 2)]
    queries = [
        (
            "c%d" % draw(st.integers(1, 2)),
            draw(st.integers(0, 900)),
            draw(st.sampled_from([None, 1040, 1200])),
            draw(st.sampled_from([None, 10, 25])),
            text,
        )
        for text in draw(st.lists(st.sampled_from(BUSY_QUERIES), min_size=1, max_size=3, unique=True))
    ]
    mode = draw(st.sampled_from(["centralized", "distributed"]))
    return lines, streams, queries, mode


def busy_spec(tmp_path, drawn):
    lines, streams, queries, mode = drawn
    topo = tmp_path / "busy.topo"
    topo.write_text("\n".join(lines) + "\n")
    defs = []
    for k, rows, step in streams:
        csv = tmp_path / ("gps_%d_%d_%d.csv" % (k, rows, step))
        if not csv.exists():
            generate_gps_csv(str(csv), seed=k, s_id=k, rows=rows, step_ms=step)
        defs.append(StreamDef("GPS_S%d" % k, "/node/p%d/gps" % k, "gps", str(csv), 1.0))
    qdefs = [
        QueryDef("q%d" % i, consumer, start, stop, mode, text, poll if stop else None)
        for i, (consumer, start, stop, poll, text) in enumerate(queries)
    ]
    return ScenarioSpec(topology=load_topology(str(topo)), streams=defs, queries=qdefs)


def test_each_node_runs_its_handlers_in_the_order_they_arrive(tmp_path):
    """A handler that reaches a node while it is busy, or while others wait
    there, starts after them: also when it arrives at the very time the node
    turns idle. No handler starts while its node is busy."""
    runs, waited = [], [0]
    recorder = fifo_recorder(runs)

    @given(drawn=busy_scenarios())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def check(drawn):
        runs.clear()
        run_with(recorder, busy_spec(tmp_path, drawn))
        (run,) = runs
        assert run.early == []
        for node, n in run.reached.items():
            assert run.started.get(node, []) == list(range(n)), node
        waited[0] += run.waited

    check()
    assert waited[0] > 0


def test_every_link_send_of_a_busy_scenario_survives_the_codec(tmp_path):
    """Each drawn scenario in both modes: every link send decodes back equal,
    each /ce result takes type tag 6 and each /state delta tag 7 (`wire_digest`)."""
    sent = Counter()

    @given(drawn=busy_scenarios())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def check(drawn):
        for mode in ("centralized", "distributed"):
            with wire_digest():
                metrics = run_scenario(busy_spec(tmp_path, drawn[:3] + (mode,)))
            for line in metrics.trace:
                if " send uid=" in line:
                    sent.update(k for k in ("DataStream /state/", "Data /ce/") if k in line)

    check()
    assert sent["DataStream /state/"] > 0 and sent["Data /ce/"] > 0


def slow_broker_spec(tmp_path):
    """300 stream packets, 1 ms apart, into a broker that takes 5 ms for each."""
    topo = tmp_path / "burst.topo"
    topo.write_text(
        "node p1 producer 0\n"
        "node b1 broker 5\n"
        "node c1 consumer 0\n"
        "link p1 b1 1 1000\n"
        "link b1 c1 1 1000\n"
    )
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=300, step_ms=1)
    return ScenarioSpec(
        topology=load_topology(str(topo)),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[QueryDef("q", "c1", 10, None, "centralized", "WINDOW(GPS_S1, 3)")],
    )


def count_heap_pushes(monkeypatch):
    """Count every `heappush` the simulator makes; returns the one-element count."""
    pushes = [0]

    def counting(heap, entry):
        pushes[0] += 1
        heapq.heappush(heap, entry)

    monkeypatch.setattr(sim, "heappush", counting)
    return pushes


def test_a_burst_into_a_busy_broker_costs_linear_heap_pushes(tmp_path, monkeypatch):
    """300 stream packets queue at a slow broker; waiting must not re-push them."""
    pushes = count_heap_pushes(monkeypatch)
    m = run_scenario(slow_broker_spec(tmp_path), collect_trace=False)
    handled = sum(c.get("received", 0) for c in m.nodes.values())
    assert m.nodes["b1"]["received"] >= 300 and m.queries["q"].notifications == 300
    assert pushes[0] < 3 * handled


def test_every_heap_push_goes_through_at(tmp_path, monkeypatch):
    """The node lines' pushes too, so a wrapper of `_at` sees every heap event."""
    pushes, calls = count_heap_pushes(monkeypatch), [0]
    at = Simulator._at

    def counted(self, t, fn):
        calls[0] += 1
        at(self, t, fn)

    monkeypatch.setattr(Simulator, "_at", counted)
    run_scenario(slow_broker_spec(tmp_path), collect_trace=False)
    assert calls[0] == pushes[0] > 600


def test_a_finished_run_is_freed_by_refcount(tmp_path, monkeypatch):
    runs = []
    run = Simulator.run

    def keep_a_weakref(self):
        runs.append(weakref.ref(self))
        run(self)

    monkeypatch.setattr(Simulator, "run", keep_a_weakref)
    spec = small_spec(tmp_path, rows=10, mode="distributed", topology="distributed")
    gc.disable()
    try:
        metrics = run_scenario(spec)
        assert runs[0]() is None
    finally:
        gc.enable()
    assert metrics.queries["q"].notifications == 10


@pytest.mark.engine_errors
def test_engine_errors_surface_in_trace_without_abort(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, rows=5)
    sim_metrics = run_scenario(spec)
    # sanity: a healthy run has no error lines
    assert not any(" error " in line for line in sim_metrics.trace)

    original = Engine.handle_data_stream
    raised = []

    def handle_data_stream(self, p, in_face):
        if self.node_id == "b1" and not raised:
            raised.append(p)
            raise RuntimeError("boom")
        original(self, p, in_face)

    monkeypatch.setattr(Engine, "handle_data_stream", handle_data_stream)
    m = run_scenario(spec)
    assert len(raised) == 1 and m.nodes["b1"]["errors"] == 1
    assert [line.split(" ", 1)[1] for line in m.trace if " error " in line] == [
        "b1 error RuntimeError: boom"
    ]
    assert m.queries["q"].notifications == 4  # every later tuple still reaches c1


@pytest.mark.parametrize("relay", [False, True], ids=["direct", "relay"])
def test_a_plan_failed_nack_clears_each_pit_entry_on_its_way_to_the_consumer_app(tmp_path, relay):
    """b2 coordinates c1's query, but its only path to b1 runs through consumer x1.

    With `relay` c1 reaches b2 through consumer c2. The nack must reach c1's
    app and clear the query's PIT entry at each endpoint, so that the same
    query issued again is planned (and fails) again.
    """
    roles = {"p1": "producer", "b1": "broker", "x1": "consumer", "b2": "broker", "c1": "consumer"}
    pairs = [("p1", "b1"), ("b1", "x1"), ("x1", "b2")]
    if relay:
        roles["c2"] = "consumer"
        pairs += [("b2", "c2"), ("c2", "c1")]
    else:
        pairs.append(("b2", "c1"))
    topo = TopologyConfig(
        name="cut",
        nodes={n: TopoNode(n, role, 1.0) for n, role in roles.items()},
        link_list=[TopoLink(a, b, 1.0) for a, b in pairs],
    )
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=5)
    text = "WINDOW(GPS_S1, 4s)"
    spec = ScenarioSpec(
        topology=topo,
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[
            QueryDef("q", "c1", 100, None, "distributed", text),
            QueryDef("r", "c1", 2000, None, "distributed", text),
        ],
    )
    m = run_scenario(spec)
    failed = [(n, p["nonce"]) for n, k, p in m.events if k == "plan_failed"]
    assert failed == [("b2", "q:1"), ("b2", "r:1")]
    unsalted = {p["unsalted"] for n, k, p in m.events if k == "query_accepted"}
    assert len(unsalted) == 1
    h = unsalted.pop()
    nacks = ["/nack/%s/q:1" % h, "/nack/%s/r:1" % h]
    assert {n: [p.name.to_uri() for _, p in d] for n, d in m.app_deliveries.items()} == {"c1": nacks}
    hop = "c2" if relay else "b2"
    recvs = [line for line in m.trace if " c1 recv " in line and "/nack/" in line]
    assert len(recvs) == 2 and all(line.endswith(" <- " + hop) for line in recvs)


@pytest.mark.xfail(
    strict=True, reason="probes and their replies take the fewest-hop route through slow b2"
)
def test_a_slow_broker_on_the_fewest_hop_route_does_not_fail_the_plan(tmp_path):
    """p1-b1-b2-b3-c1, with the detour b1-b4-b5-b6-b3 around b2 (50 ms a packet).

    `_fib_faces` routes b3's probes of b1 and b4, and their replies, through
    b2 by fewest hops. b1's answer queues behind b2 and misses
    PROBE_TIMEOUT_MS, so the plan fails though the detour is fast.
    """
    roles = {"p1": "producer", "c1": "consumer"}
    roles.update((b, "broker") for b in ("b1", "b2", "b3", "b4", "b5", "b6"))
    pairs = [("p1", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "c1")]
    pairs += [("b1", "b4"), ("b4", "b5"), ("b5", "b6"), ("b6", "b3")]
    topo = TopologyConfig(
        name="detour",
        nodes={n: TopoNode(n, role, 50.0 if n == "b2" else 1.0) for n, role in roles.items()},
        link_list=[TopoLink(a, b, 1.0) for a, b in pairs],
    )
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=10)
    spec = ScenarioSpec(
        topology=topo,
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[QueryDef("q", "c1", 100, 15000, "distributed", "WINDOW(GPS_S1, 4s)")],
    )
    m = run_scenario(spec)
    assert [k for _, k, _ in m.events if k in ("plan_failed", "query_deployed")] == [
        "query_deployed"
    ]
    assert m.queries["q"].notifications > 0


def test_notification_payload_rows_match_window(tmp_path):
    m = run_scenario(small_spec(tmp_path, rows=6))
    ce = [
        p
        for _, p in m.app_deliveries["c1"]
        if isinstance(p, Data) and p.name.components[0] == "ce"
    ]
    first = json.loads(ce[0].payload)
    assert first["ts"] == 1000
    assert len(first["rows"]) == 1
    last = json.loads(ce[-1].payload)
    # 4s extent: at ts 6000 the window holds 3000..6000
    assert [r[0] for r in last["rows"]] == [3000, 4000, 5000, 6000]


def test_override_scenario_redirects_topology_and_mode():
    spec = load_scenario("q1")
    cent = override_scenario(spec, topology="centralized", mode="centralized")
    assert cent.topology.name == "centralized"
    assert all(q.mode == "centralized" for q in cent.queries)
    # the original is untouched
    assert spec.topology.name == "distributed"
    assert spec.queries[0].mode == "distributed"


# ---------------------------------------------------------------------------
# metrics output


def test_emit_metrics_rows_and_sum_property(tmp_path):
    metrics = Metrics(
        queries={
            "q2": QueryMetrics("q2", "centralized", 1.0005, 2.0, 3.25),
            "q1": QueryMetrics("q1", "centralized", 0.5, 0.0, 9.0),
        }
    )
    out = tmp_path / "m.csv"
    emit_metrics(metrics, str(out))
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments and "total_ms = graph_ms + placement_ms + communication_ms" in comments[0]
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "query,total_ms,graph_ms,placement_ms,communication_ms"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert [r.split(",")[0] for r in rows] == ["q1", "q2"]
    for row in rows:
        _, total, g, p, c = row.split(",")
        assert abs(float(total) - (float(g) + float(p) + float(c))) < 1e-9


def test_emit_metrics_empty_is_header_only(tmp_path):
    out = tmp_path / "m.csv"
    emit_metrics(Metrics(), str(out))
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows == ["query,total_ms,graph_ms,placement_ms,communication_ms"]


def test_generators_are_seed_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_plug_csv(str(a), seed=9, plug_id=3, rows=5)
    generate_plug_csv(str(b), seed=9, plug_id=3, rows=5)
    assert a.read_text() == b.read_text()
    generate_plug_csv(str(b), seed=10, plug_id=3, rows=5)
    assert a.read_text() != b.read_text()


def test_shipped_datasets_match_their_schemas():
    for name, schema in (
        ("gps_s1.csv", "gps"),
        ("gps_s2.csv", "gps"),
        ("plug_s1.csv", "plug"),
        ("plug_s2.csv", "plug"),
    ):
        schedule, warnings = replay_dataset(
            StreamDef("X", "/node/p1/x", schema, str(data_path(name)), 1.0)
        )
        assert warnings == 0
        assert len(schedule) >= 300


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_trace_hash_equals_the_hash_of_the_joined_lines(n):
    """A `Trace` gives back the lines appended, and hashes and writes them joined.

    Among the lines are empty ones, non-ASCII ones and ones holding newlines.
    """
    lines = [
        "" if i % 3 == 0 else "%d é\n%d" % (i, i) if i % 7 == 0 else "%d é" % i for i in range(n)
    ]
    trace = Trace()
    for line in lines:
        trace.append(line)
        if len(trace.open_lines) >= sim.SEAL_LINES:
            trace.seal()
    assert len(trace) == n and bool(trace) == (n > 0)
    assert list(trace) == lines and trace == lines
    joined = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert trace.hexdigest() == joined
    assert list(trace) == lines and len(trace) == n  # hashing seals; the lines stay
    out = io.StringIO()
    trace.write(out)
    assert out.getvalue() == "\n".join(lines) + "\n"


def held_bytes(obj, seen):
    """`sys.getsizeof` of `obj` and of the lists, tuples and slots it holds."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(held_bytes(x, seen) for x in obj)
    else:
        slots = getattr(type(obj), "__slots__", ())
        size += sum(held_bytes(getattr(obj, a), seen) for a in slots if hasattr(obj, a))
    return size


def test_a_trace_holds_its_lines_compressed_to_under_a_third_of_their_characters():
    trace = run_scenario(load_scenario(str(data_path("q3.scn")))).trace
    chars = sum(len(line) for line in trace)
    assert chars > 100_000
    assert held_bytes(trace, set()) <= 0.3 * chars


@pytest.mark.parametrize(
    "links",
    [
        [("p1", "b1"), ("b1", "b2"), ("c1", "b1"), ("c1", "b2")],
        # c1 reaches b1 through c2 and b2 through c3, both two hops away
        [("p1", "b1"), ("b1", "b2"), ("c1", "c2"), ("c2", "b1"), ("c1", "c3"), ("c3", "b2")],
    ],
    ids=["linked", "relayed"],
)
def test_a_consumer_that_reaches_two_brokers_is_coordinated_once(links):
    """Its Add goes toward its nearest broker b1 alone; flooded toward b2 as
    well, both brokers coordinated the query and every result arrived twice."""
    roles = {"p1": "producer", "b1": "broker", "b2": "broker"}
    roles.update((n, "consumer") for link in links for n in link if n[0] == "c")
    topo = TopologyConfig(
        "two-brokers",
        {n: TopoNode(n, role, 1.0) for n, role in roles.items()},
        [TopoLink(a, b, 1.0) for a, b in links],
    )
    stream = StreamDef("GPS_S1", "/node/p1/gps", "gps", str(data_path("gps_s1.csv")))
    text = "FILTER(WINDOW(GPS_S1, 4s), 'latitude' < 50)"
    spec = ScenarioSpec(topo, [stream], [QueryDef("q", "c1", 0, 20000, "centralized", text)])
    metrics = run_scenario(spec, collect_trace=False)
    kinds = ("query_accepted", "query_deployed")
    assert [(n, k) for n, k, _ in metrics.events if k in kinds] == [("b1", k) for k in kinds]
    results = [p.ts for _, p in metrics.app_deliveries["c1"] if p.name.components[0] == "ce"]
    assert len(results) == len(set(results)) == 19
