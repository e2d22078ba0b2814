"""Query lifecycle: a removed query's work is released where its data next
arrives unwanted, at the root first and then hop by hop upstream."""

import gc
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from icncep import sim
from icncep.engine import Engine
from icncep.packet import Name, _u64_text
from icncep.sim import (
    QueryDef,
    ScenarioSpec,
    StreamDef,
    TopoLink,
    TopoNode,
    TopologyConfig,
    generate_gps_csv,
    load_scenario,
    load_topology,
    run_scenario,
)
from icncep.tables import ContentStore


def feeding_names(engine, inst):
    """The names of the packets that feed `inst`, read off its operator."""
    names = {("state", inst.salted, str(c.index), "out") for c in inst.node.children}
    binding = engine.config.streams.get(inst.node.stream_alias)
    if binding is not None:
        names.add(binding.name.components)
    return names


def assert_feeds_list_the_live_instances(engine):
    """`_feeds` lists each live instance once under each name that feeds it, and nothing else."""
    listed = [(name, key) for name, keys in engine._feeds.items() for key in keys]
    want = {
        (name, key) for key, inst in engine.instances.items() for name in feeding_names(engine, inst)
    }
    assert len(listed) == len(set(listed)) and set(listed) == want, engine.node_id


def assert_stream_hops_are_fresh_and_live(engine):
    """Each name in the FIB's memo still matches a route or feeds a live instance,
    and its entry holds what a fresh read of the tables gives: the stream width,
    the /state feed as `_u64_text` reads it, never a misspelt one, the name's
    `_feeds` entry itself, and per in-face the FIB's own faces."""
    for comps, hop in engine.fib.memo.items():
        name = Name(comps)
        routed = engine.fib.longest_prefix(name) is not None
        assert routed or comps in engine._feeds, (engine.node_id, comps)
        width, feed = engine._stream_widths.get(comps), None
        if width is None and len(comps) == 4 and comps[0] == "state" and comps[3] == "out":
            feed = (comps[1], _u64_text(comps[2]))
            assert feed[1] is not None, (engine.node_id, comps)
        assert (hop.width, hop.feed) == (width, feed), (engine.node_id, comps)
        assert hop.feeds is engine._feeds.get(comps), (engine.node_id, comps)
        for exclude, faces in hop.faces.items():
            assert faces == engine._fib_faces(name, exclude), (engine.node_id, comps, exclude)


@pytest.fixture(autouse=True)
def checked_feeds(monkeypatch):
    """Every replay in this module ends with a feed table that matches its instances
    and a memo of fresh stream hops for routed or feeding names only."""
    run = sim.Simulator.run

    def check(self):
        run(self)
        for engine in self.engines.values():
            assert_feeds_list_the_live_instances(engine)
            assert_stream_hops_are_fresh_and_live(engine)

    monkeypatch.setattr(sim.Simulator, "run", check)


@pytest.fixture
def captured(monkeypatch, checked_feeds):
    """The Simulator of each run_scenario call, kept past its run."""
    sims = []
    run = sim.Simulator.run

    def keep(self):
        sims.append(self)
        run(self)

    monkeypatch.setattr(sim.Simulator, "run", keep)
    return sims


def held_queries(engine):
    """Salted hashes of the queries `engine` holds any deployment state for."""
    held = {s for s, _ in engine.instances}
    held |= {s for keys in engine._feeds.values() for s, _ in keys} | set(engine._trees)
    held |= {s for s, _ in engine._fences} | set(engine._deployed)
    held |= {
        e.prefix.components[1] for e in engine.fib.entries() if e.prefix.components[0] == "state"
    }
    held |= {comps[1] for comps in engine.fib.memo if comps[0] == "state"}
    return held


def totals(metrics, counter):
    return sum(c.get(counter, 0) for c in metrics.nodes.values())


def test_a_stopped_query_is_torn_down_hop_by_hop(captured):
    """The leak case: FILTER(WINDOW(GPS_S1, 4s), ...) on the distributed
    preset, stopped at 20 s. Before the teardown its window on b1 shipped
    about 600 more /state deltas over each of three hops."""
    spec = load_scenario("q2")
    spec = replace(spec, queries=[replace(spec.queries[0], stop_ms=20000)])
    metrics = run_scenario(spec)
    assert metrics.queries["q2"].notifications == 19
    late = Counter()
    for line in metrics.trace:
        t, node, kind, rest = line.split(" ", 3)
        if kind == "send" and float(t) > 20000 and " DataStream /state/" in rest:
            late[(node, rest.rsplit(" ", 1)[1])] += 1
    # the delta in flight at the stop, the one the root still consumes, then
    # one more per hop between the root and the sender
    assert late == {("b4", "b6"): 2, ("b3", "b4"): 3, ("b1", "b3"): 4}
    assert totals(metrics, "prunes_sent") >= 1 and totals(metrics, "released") == 2
    assert totals(metrics, "errors") == 0
    for engine in captured[0].engines.values():
        assert not held_queries(engine), engine.node_id


def test_every_stream_hop_is_fresh_after_every_packet_of_a_teardown(monkeypatch):
    """The memo check of `checked_feeds`, after each packet rather than at the end."""
    handle = Engine.handle_packet
    checked = Counter()

    def handle_and_check(engine, packet, in_face):
        handle(engine, packet, in_face)
        assert_stream_hops_are_fresh_and_live(engine)
        checked[type(packet).__name__] += 1

    monkeypatch.setattr(Engine, "handle_packet", handle_and_check)
    spec = load_scenario("q2")
    run_scenario(replace(spec, queries=[replace(spec.queries[0], stop_ms=20000)]))
    assert checked["DataStream"] > 1000 and checked["Interest"] > 0


@pytest.mark.parametrize(
    "text",
    [
        # a FILTER on b3 and one on b4, both fed from b1
        "SEQUENCE(FILTER(WINDOW(GPS_S1, 2s), 'speed' >= 0) -> FILTER(WINDOW(GPS_S1, 3s), 'speed' >= 0))",
        # b2 ships two feeds to the root on b6: a prune of one releases both
        "JOIN(FILTER(WINDOW(GPS_S1, 2s), 'speed' >= 0), WINDOW(GPS_S2, 3s), GPS_S1.'ts' = GPS_S2.'ts')",
    ],
)
def test_every_feed_of_a_stopped_query_is_torn_down(tmp_path, captured, text):
    streams = []
    for k in (1, 2):
        csv = tmp_path / ("g%d.csv" % k)
        generate_gps_csv(str(csv), s_id=k, rows=60)
        streams.append(StreamDef("GPS_S%d" % k, "/node/p%d/gps" % k, "gps", str(csv), 1.0))
    query = QueryDef("a", "c1", 100, 20000, "distributed", text)
    metrics = run_scenario(ScenarioSpec(load_topology("distributed"), streams, [query]))
    assert metrics.queries["a"].notifications == 19
    assert totals(metrics, "errors") == 0
    for engine in captured[0].engines.values():
        assert not held_queries(engine), engine.node_id


ROWS, SPACING_MS, LIFETIME_MS = 170, 500, 1500


def cycles_spec(tmp_path, cycles):
    """Two live queries, then `cycles` distinct queries that each live 1.5 s
    and are all gone 18 s before the data ends."""
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=ROWS)
    live = [
        QueryDef("live%d" % k, "c1", 100 + k, None, "distributed",
                 "FILTER(WINDOW(GPS_S1, %ds), 'speed' >= 0)" % (3 + k))
        for k in range(2)
    ]
    gone = []
    for i in range(cycles):
        start = 1000 + i * SPACING_MS
        gone.append(QueryDef("q%d" % i, "c1", start, start + LIFETIME_MS, "distributed",
                             "FILTER(WINDOW(GPS_S1, 2s), 'speed' < %d)" % (100 + i)))
    return ScenarioSpec(
        topology=load_topology("distributed"),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=live + gone,
    )


def test_repeated_add_and_stop_leaves_only_the_live_queries(tmp_path, captured):
    metrics = run_scenario(cycles_spec(tmp_path, 300), collect_trace=False)
    assert all(q.notifications > 0 for q in metrics.queries.values())
    live = {
        p["salted"]
        for _, kind, p in metrics.events
        if kind == "query_deployed" and p["nonce"].startswith("live")
    }
    held = set().union(*(held_queries(e) for e in captured[0].engines.values()))
    assert len(live) == 2 and held == live
    assert totals(metrics, "errors") == 0 and totals(metrics, "state_gaps") == 0


def retained_kib(spec, captured):
    """KiB a finished run still holds once its outputs and caches are dropped.

    The trace, events and deliveries grow with the number of queries by
    design, and so do the content stores; what is left is the engines and
    their tables.
    """
    gc.collect()
    tracemalloc.start()
    try:
        run_scenario(spec, collect_trace=False)
        done = captured.pop()
        done.events.clear()
        done.app.clear()
        done.control_sends.clear()
        for engine in done.engines.values():
            engine.cs = ContentStore()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 1024
    finally:
        tracemalloc.stop()


def test_repeated_add_and_stop_holds_no_memory_per_query(tmp_path, captured):
    """Before the teardown, 100 stopped queries left about 1.2 MiB behind."""
    base = retained_kib(cycles_spec(tmp_path, 0), captured)
    assert retained_kib(cycles_spec(tmp_path, 100), captured) - base < 64


JOIN = "JOIN(WINDOW(GPS_S1, 2s), WINDOW(GPS_S2, 2s), GPS_S1.'ts' = GPS_S2.'ts')"


def join_spec(tmp_path, readd_ms=None):
    """JOIN from c2 on b1, the ingress of GPS_S1, stopped at 20 s.

    b1 coordinates and hosts the root, so it sees every GPS_S1 tuple and a
    re-add misses its content store and deploys again. The GPS_S2 window
    sits on b2 and ships over b4 and b3.
    """
    for k in (1, 2):
        generate_gps_csv(str(tmp_path / ("g%d.csv" % k)), s_id=k, rows=40)
    base = load_topology("distributed")
    topo = TopologyConfig(
        "readd",
        dict(base.nodes, c2=TopoNode("c2", "consumer", 1.0)),
        base.link_list + [TopoLink("c2", "b1", 1.0)],
    )
    streams = [
        StreamDef("GPS_S%d" % k, "/node/p%d/gps" % k, "gps", str(tmp_path / ("g%d.csv" % k)), 1.0)
        for k in (1, 2)
    ]
    queries = [QueryDef("a", "c2", 100, 20000, "distributed", JOIN)]
    if readd_ms is not None:
        queries.append(QueryDef("b", "c2", readd_ms, None, "distributed", JOIN))
    return ScenarioSpec(topo, streams, queries)


def test_a_re_add_during_a_prune_notifies_after_its_re_deploy(tmp_path):
    stopped = run_scenario(join_spec(tmp_path))
    prunes = [
        float(line.split(" ", 1)[0])
        for line in stopped.trace
        if " send " in line and "/prune/" in line
    ]
    assert len(prunes) == 3  # b1 -> b3 -> b4 -> b2
    ignored = 0
    # re-adds whose deploy orders reach b2 just before or after the last prune
    for readd_ms in range(int(prunes[-1]) - 25, int(prunes[-1]) + 2):
        metrics = run_scenario(join_spec(tmp_path, readd_ms), collect_trace=False)
        after = [
            json.loads(p.payload)["ts"]
            for at, p in metrics.app_deliveries["c2"]
            if at > readd_ms and p.name.components[0] == "ce"
        ]
        assert after and after[-1] == 40000, readd_ms  # notifies to the end of the data
        assert totals(metrics, "errors") == 0
        ignored += totals(metrics, "stale_prunes")
    assert ignored >= 1  # some prune reached b2 after its re-deploy, and was ignored


def test_no_plan_waits_in_any_pit_after_a_run_of_re_added_queries(tmp_path, captured, monkeypatch):
    """Every plan's wait on a probe or deploy Interest ends with its stage.

    A broker b9, on a 150 ms link to the coordinator b6 and so in every
    corridor, answers each probe after the 200 ms probe timeout, so every
    distributed plan drops its wait for b9 at the timeout.
    """
    dropped = []
    drop_waits = Engine._drop_waits
    monkeypatch.setattr(
        Engine, "_drop_waits", lambda eng, pending: dropped.append(1) or drop_waits(eng, pending)
    )
    spec = cycles_spec(tmp_path, 20)
    topo = spec.topology
    slow = TopologyConfig(
        "slow",
        dict(topo.nodes, b9=TopoNode("b9", "broker", 1.0)),
        topo.link_list + [TopoLink("b9", "b6", 150.0)],
    )
    again = [
        replace(q, query_id=q.query_id + "again", start_ms=q.start_ms + 9000, stop_ms=q.stop_ms + 9000)
        for q in spec.queries[2:8]
    ]
    metrics = run_scenario(replace(spec, topology=slow, queries=spec.queries + again))
    assert all(q.notifications > 0 for q in metrics.queries.values())
    assert dropped and totals(metrics, "errors") == 0
    for engine in captured[0].engines.values():
        waits = [e.key for e in engine.pit._entries.values() if e.waiting]
        assert waits == [], engine.node_id
