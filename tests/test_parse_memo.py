"""Each engine parses each query text once per run.

A polling consumer re-sends its query text as a Remove+Add pair every poll,
and every engine on the way handles each. `Engine._parse` memoizes the
operator tree, canonical key and parse time by text; these tests pin what
the memo may hold and what it hands out.
"""

import sys
import time
from collections import Counter

import pytest

from icncep import engine, sim
from icncep.query import canonical_text, create_operator_graph
from icncep.sim import (
    QueryDef,
    ScenarioSpec,
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
    """Per run, by node: the engine and a copy of its memo just before `detach`."""
    runs = []
    detach = sim.Simulator.detach

    def keep(self):
        runs.append({n: (e, dict(e._parsed)) for n, e in self.engines.items()})
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
    assert parses[("b6", FILTER)] == 1  # the coordinator: 11 Adds and 11 Removes
    assert max(parses.values()) == 1, parses.most_common(3)


def test_repeated_remove_and_add_keeps_one_entry_per_engine(tmp_path, memos):
    bindings = poller_spec(tmp_path, None, None).bindings()
    text = canonical_text(create_operator_graph(FILTER, bindings))
    metrics = run_scenario(poller_spec(tmp_path, 400, 20500, text), collect_trace=False)
    assert metrics.queries["poll"].control_packets == 2 + 2 * 50
    held = {n: set(memo) for n, (_, memo) in memos[0].items()}
    assert held["b6"] == held["c1"] == {text}
    assert all(texts <= {text} for texts in held.values()), held


def test_detach_empties_every_memo(tmp_path, memos):
    run_scenario(poller_spec(tmp_path, 5000, 30000), collect_trace=False)
    (finished,) = memos
    assert any(memo for _, memo in finished.values())
    assert all(e._parsed == {} for e, _ in finished.values())


def test_memoized_trees_stay_as_parsed(memos):
    """Planning, deployment and evaluation share the trees and change none."""
    run_scenario(load_scenario("q4"), collect_trace=False)
    in_use = 0
    for eng, memo in memos[0].values():
        nodes = set()
        for text, (tree, key, _) in memo.items():
            fresh = create_operator_graph(text, eng.config.streams)
            assert [repr(n) for n in tree.walk()] == [repr(n) for n in fresh.walk()]
            assert key == canonical_text(fresh)
            nodes |= {id(n) for n in tree.walk()}
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
