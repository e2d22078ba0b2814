"""The engines of a run parse each query text once, summed over them all.

A polling consumer re-sends its query text as a Remove+Add pair every poll,
and every engine on the way handles each. The simulator hands all its
engines one query memo (`NodeConfig.memo`), which `Engine._parse` fills with
each text's operator tree, canonical key, parse time, /ce hash and the
names of the streams it reads; these tests pin what the memo may hold, what
it hands out and that it lives exactly as long as its run.
"""

import sys
import time
from collections import Counter

import pytest

from icncep import engine, sim
from icncep.engine import NodeConfig
from icncep.query import canonical_text, create_operator_graph, query_hash
from icncep.sim import (
    QueryDef,
    ScenarioSpec,
    Simulator,
    StreamDef,
    generate_gps_csv,
    load_scenario,
    load_topology,
    run_scenario,
)

FILTER = "FILTER(WINDOW(GPS_S1, 4s), 'speed' >= 0)"


def poller_spec(tmp_path, poll_ms, stop_ms, text=FILTER):
    """One FILTER poller on c1 over the distributed preset, GPS_S1 from p1."""
    csv = tmp_path / "gps.csv"
    generate_gps_csv(str(csv), rows=60)
    return ScenarioSpec(
        topology=load_topology("distributed"),
        streams=[StreamDef("GPS_S1", "/node/p1/gps", "gps", str(csv), 1.0)],
        queries=[QueryDef("poll", "c1", 100, stop_ms, "distributed", text, poll_ms)],
    )


@pytest.fixture
def memos(monkeypatch):
    """Per run: its simulator and a copy of its memo just before `detach`."""
    runs = []
    detach = sim.Simulator.detach

    def keep(self):
        runs.append((self, dict(self.memo)))
        detach(self)

    monkeypatch.setattr(sim.Simulator, "detach", keep)
    return runs


@pytest.fixture
def parses(monkeypatch):
    """(node id, text) of every `create_operator_graph` call an engine makes."""
    calls = Counter()
    parse = engine.create_operator_graph

    def counted(text, streams=None):
        caller = sys._getframe(1).f_locals.get("self")
        assert isinstance(caller, engine.Engine)
        calls[(caller.node_id, text)] += 1
        return parse(text, streams)

    monkeypatch.setattr(engine, "create_operator_graph", counted)
    return calls


def test_no_engine_parses_a_text_or_key_twice(tmp_path, parses):
    metrics = run_scenario(poller_spec(tmp_path, 5000, 55000), collect_trace=False)
    assert metrics.queries["poll"].control_packets == 22  # the first Add, 10 polls, the stop
    assert metrics.queries["poll"].notifications > 0
    # the consumer's first Add parses; the coordinator's 11 Adds, 11 Removes
    # and every deploy order of the key are lookups
    assert parses == {("c1", FILTER): 1}


def test_texts_of_one_key_are_parsed_once_each_and_the_key_never(tmp_path, parses):
    spec = poller_spec(tmp_path, 5000, 30000)
    spaced = FILTER.replace(", ", " ,  ")
    spec.queries.append(QueryDef("other", "c1", 300, 30000, "distributed", spaced, 5000))
    metrics = run_scenario(spec, collect_trace=False)
    assert all(metrics.queries[q].notifications > 0 for q in ("poll", "other"))
    assert Counter(text for _, text in parses.elements()) == {FILTER: 1, spaced: 1}


def test_every_engine_of_a_run_shares_its_memo_and_stream_table(tmp_path, parses):
    simulator = Simulator(poller_spec(tmp_path, 5000, 30000))
    configs = [e.config for e in simulator.engines.values()]
    assert len(configs) == 9
    assert all(c.memo is simulator.memo for c in configs)
    assert all(c.streams is configs[0].streams for c in configs)
    assert simulator.memo == {} and parses == {}  # nothing is parsed ahead of the run
    topo = configs[0].topology
    assert NodeConfig("b1", topo).memo is not NodeConfig("b1", topo).memo


def test_a_second_run_of_a_spec_parses_again(tmp_path, parses, memos):
    spec = poller_spec(tmp_path, 5000, 30000)
    first = run_scenario(spec, collect_trace=False)
    assert parses == {("c1", FILTER): 1}
    second = run_scenario(spec, collect_trace=False)
    assert parses == {("c1", FILTER): 2}  # no memo outlived its run
    assert first.trace_hash == second.trace_hash
    (a, held_a), (b, held_b) = memos
    assert a.memo is not b.memo and set(held_a) == set(held_b)
    assert held_a[FILTER].tree is not held_b[FILTER].tree


def test_repeated_remove_and_add_keeps_one_entry(tmp_path, memos):
    bindings = poller_spec(tmp_path, None, None).bindings()
    text = canonical_text(create_operator_graph(FILTER, bindings))
    metrics = run_scenario(poller_spec(tmp_path, 400, 20500, text), collect_trace=False)
    assert metrics.queries["poll"].control_packets == 2 + 2 * 50
    ((_, held),) = memos
    assert set(held) == {text}


def test_detach_empties_the_memo(tmp_path, memos):
    run_scenario(poller_spec(tmp_path, 5000, 30000), collect_trace=False)
    ((finished, held),) = memos
    assert held
    assert finished.memo == {}
    assert all(e.config.memo is finished.memo for e in finished.engines.values())


def test_memoized_trees_stay_as_parsed(memos):
    """Planning, deployment and evaluation share the trees and change none;
    each entry's hash and stream names are those a fresh parse gives."""
    run_scenario(load_scenario("q4"), collect_trace=False)
    ((finished, held),) = memos
    streams = next(iter(finished.engines.values())).config.streams
    nodes = set()
    for text, entry in held.items():
        fresh = create_operator_graph(text, streams)
        assert [repr(n) for n in entry.tree.walk()] == [repr(n) for n in fresh.walk()]
        assert entry.key == canonical_text(fresh)
        assert entry.unsalted == query_hash(canonical_text(fresh))
        names = {streams[a].name.components for a in fresh.stream_aliases()}
        assert entry.streams == tuple(sorted(names)) and len(names) == 2
        assert held[entry.key].tree is entry.tree
        nodes |= {id(n) for n in entry.tree.walk()}
    in_use = 0
    for eng in finished.engines.values():
        for inst in eng.instances.values():
            assert id(inst.node) in nodes  # the instance runs on a memoized tree
            in_use += 1
    assert in_use > 0


def test_accepts_carry_the_time_of_a_real_parse(tmp_path, monkeypatch):
    parse = engine.create_operator_graph

    def slow(text, streams=None):
        time.sleep(0.01)
        return parse(text, streams)

    monkeypatch.setattr(engine, "create_operator_graph", slow)
    metrics = run_scenario(poller_spec(tmp_path, 5000, 55000), collect_trace=False)
    accepted = [p["graph_real_ms"] for _, kind, p in metrics.events if kind == "query_accepted"]
    assert accepted[0] >= 10.0  # not the time of a memo lookup
    assert metrics.queries["poll"].graph_ms == accepted[0]
