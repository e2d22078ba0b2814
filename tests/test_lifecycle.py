"""Query lifecycle: a removed query's work is released where its data next
arrives unwanted, at the root first and then hop by hop upstream."""

import gc
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from icncep import sim
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


@pytest.fixture
def captured(monkeypatch):
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
    held |= {s for feeds in engine._stream_feeds.values() for s, _ in feeds}
    held |= {s for s, _ in engine._child_feeds} | set(engine._trees)
    held |= {s for s, _ in engine._fences} | set(engine._deployed)
    held |= {
        e.prefix.components[1] for e in engine.fib.entries() if e.prefix.components[0] == "state"
    }
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
    metrics = run_scenario(ScenarioSpec(load_topology("distributed"), streams, [query], seed=1))
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
        seed=1,
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
    return ScenarioSpec(topo, streams, queries, seed=1)


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
