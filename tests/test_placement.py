"""Planning from broker delays, min-delay path construction, operator assignment.

The path oracle below enumerates every simple path via DFS and minimizes
(cost, path) directly; it was written before build_path and stays frozen.
A second oracle, `_best_first_over_simple_paths`, is build_path as it was
before it kept a settled set. Both pick a path's start and goal brokers by
their own endpoint rule (`endpoints`), and build_path is given those sets.
"""

import heapq
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep.placement import (
    NoPath,
    PlacementPlan,
    assign_operators,
    build_path,
    corridor,
    plan_dump,
    plan_query,
)
from icncep.query import create_operator_graph, default_streams, to_nfn_expression
from icncep.sim import TopoLink, TopologyConfig, TopoNode, data_path, load_scenario


def make_topo(nodes, links):
    """A TopologyConfig from {id: (role, delay_ms)} and [(a, b, delay_ms)]."""
    return TopologyConfig(
        "test",
        {n: TopoNode(n, role, delay) for n, (role, delay) in nodes.items()},
        [TopoLink(a, b, d) for a, b, d in links],
    )


def configured(topo):
    """Every broker's configured delay."""
    return {b: topo.node_delay(b) for b in topo.broker_ids()}


def endpoints(topo, delays, producers, consumer):
    """The start and goal brokers by the oracles' own endpoint rule.

    A broker that `delays` prices finite stands for itself; any other node
    for its neighbours that are such brokers.
    """
    brokers = {n for n, d in delays.items() if math.isfinite(d)}

    def attached(node_id):
        if node_id in brokers:
            return {node_id}
        return {b for b in topo.neighbors(node_id) if b in brokers}

    return set().union(*map(attached, producers)), attached(consumer)


def cheapest(topo, delays, producers, consumer):
    """build_path between the endpoints the oracles would pick."""
    return build_path(topo, delays, *endpoints(topo, delays, producers, consumer))


def line_topo():
    return make_topo(
        {
            "p1": ("producer", 1.0),
            "b1": ("broker", 1.0),
            "b2": ("broker", 1.0),
            "b3": ("broker", 1.0),
            "c1": ("consumer", 1.0),
        },
        [("p1", "b1", 1.0), ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b3", "c1", 1.0)],
    )


# ---------------------------------------------------------------------------
# planning from broker delays


def plan_to_b3(topo, delays=None):
    tree = create_operator_graph("FILTER(WINDOW(GPS_S1, 4s),'latitude'<50)")
    return plan_query(tree, "b3", "distributed", topo, default_streams(), delays)


def detour_topo(b1_b2_delay, b2_delay=1.0, *extra):
    return make_topo(
        {
            "p1": ("producer", 1.0),
            "b1": ("broker", 1.0),
            "b2": ("broker", b2_delay),
            "b3": ("broker", 1.0),
            "b4": ("broker", 1.0),
            "c1": ("consumer", 1.0),
        },
        [
            ("p1", "b1", 1.0),
            ("b1", "b2", b1_b2_delay),
            ("b1", "b4", 1.5),
            ("b2", "b3", 1.0),
            ("b4", "b3", 1.0),
            ("b3", "c1", 1.0),
            *extra,
        ],
    )


@pytest.mark.parametrize(
    "topo, path",
    [
        (line_topo(), ["b1", "b2", "b3"]),  # every broker is eligible
        (detour_topo(1.0), ["b1", "b2", "b3"]),
        (detour_topo(10.0), ["b1", "b4", "b3"]),
        (detour_topo(1.0, b2_delay=2.0), ["b1", "b4", "b3"]),
    ],
)
def test_plan_query_defaults_to_every_brokers_configured_delay(topo, path):
    plan = plan_to_b3(topo)
    assert plan == plan_to_b3(topo, configured(topo))
    assert plan.path == path


def test_plan_query_leaves_out_a_broker_at_infinity():
    topo = line_topo()
    # the engine's answer for a broker whose delay probe timed out
    delays = dict(configured(topo), b2=float("inf"))
    with pytest.raises(NoPath):
        plan_to_b3(topo, delays)
    # around the detour's b2 there is another way
    topo = detour_topo(1.0)
    assert plan_to_b3(topo, dict(configured(topo), b2=float("inf"))).path == ["b1", "b4", "b3"]


# ---------------------------------------------------------------------------
# path construction


def test_build_path_line():
    topo = line_topo()
    assert cheapest(topo, configured(topo), ["p1"], "c1") == ["b1", "b2", "b3"]


def test_build_path_tie_breaks_on_smaller_id():
    topo = make_topo(
        {
            "p1": ("producer", 1.0),
            "b1": ("broker", 1.0),
            "b2": ("broker", 1.0),
            "b3": ("broker", 1.0),
            "b4": ("broker", 1.0),
            "c1": ("consumer", 1.0),
        },
        [
            ("p1", "b1", 1.0),
            ("b1", "b2", 1.0),
            ("b1", "b3", 1.0),
            ("b2", "b4", 1.0),
            ("b3", "b4", 1.0),
            ("b4", "c1", 1.0),
        ],
    )
    assert cheapest(topo, configured(topo), ["p1"], "c1") == ["b1", "b2", "b4"]


def test_build_path_prefers_cheap_detour():
    topo = make_topo(
        {
            "p1": ("producer", 1.0),
            "b1": ("broker", 1.0),
            "b2": ("broker", 1.0),
            "b3": ("broker", 1.0),
            "b4": ("broker", 1.0),
            "c1": ("consumer", 1.0),
        },
        [
            ("p1", "b1", 1.0),
            ("b1", "b2", 10.0),
            ("b1", "b3", 1.0),
            ("b2", "b4", 1.0),
            ("b3", "b4", 1.0),
            ("b4", "c1", 1.0),
        ],
    )
    assert cheapest(topo, configured(topo), ["p1"], "c1") == ["b1", "b3", "b4"]


def test_build_path_consumer_at_broker():
    topo = line_topo()
    assert cheapest(topo, configured(topo), ["p1"], "b3") == ["b1", "b2", "b3"]
    assert cheapest(topo, configured(topo), ["b1"], "b1") == ["b1"]


@pytest.mark.parametrize(
    "first, last, path",
    [
        (1.0, ("b1", "b2", 10.0), ["b1", "b4", "b3"]),
        (1.0, ("b2", "b1", 10.0), ["b1", "b4", "b3"]),
        (10.0, ("b1", "b2", 1.0), ["b1", "b2", "b3"]),
    ],
)
def test_build_path_prices_the_last_of_two_links_between_the_same_brokers(first, last, path):
    # via b2 the path costs 4 plus the b1-b2 link, via b4 it costs 5.5
    topo = detour_topo(first, 1.0, last)
    assert cheapest(topo, configured(topo), ["p1"], "c1") == path


def test_build_path_no_route():
    topo = make_topo(
        {
            "p1": ("producer", 1.0),
            "b1": ("broker", 1.0),
            "b2": ("broker", 1.0),
            "c1": ("consumer", 1.0),
        },
        [("p1", "b1", 1.0), ("b2", "c1", 1.0)],
    )
    with pytest.raises(NoPath, match="^no priced broker path joins b1 to b2$"):
        cheapest(topo, configured(topo), ["p1"], "c1")


def _oracle_best_path(topo, delays, producers, consumer):
    """Frozen oracle: enumerate all simple broker paths, minimize (cost, path)."""
    brokers = {n for n, e in delays.items() if e != float("inf")}
    adj = {}
    for link in topo.link_list:
        adj.setdefault(link.a, []).append((link.b, link.delay_ms))
        adj.setdefault(link.b, []).append((link.a, link.delay_ms))

    def endpoints(x):
        if x in brokers:
            return {x}
        return {b for b, _ in adj.get(x, []) if b in brokers}

    starts = set()
    for p in producers:
        starts |= endpoints(p)
    goals = endpoints(consumer)
    best = None

    def walk(path, cost):
        nonlocal best
        here = path[-1]
        if here in goals:
            cand = (cost, tuple(path))
            if best is None or cand < best:
                best = cand
        for nxt, d in adj.get(here, []):
            if nxt in brokers and nxt not in path:
                walk(path + [nxt], cost + d + delays[nxt])

    for s in sorted(starts):
        walk([s], delays[s])
    if best is None:
        raise NoPath("oracle found none")
    return best


def test_build_path_matches_bruteforce_oracle():
    rng = random.Random(7)
    checked = 0
    for trial in range(100):
        n = rng.randint(2, 7)
        ids = ["b%d" % i for i in range(1, n + 1)]
        nodes = {i: ("broker", float(rng.randint(0, 5))) for i in ids}
        nodes["p1"] = ("producer", 1.0)
        nodes["c1"] = ("consumer", 1.0)
        links = []
        for a, b in itertools.combinations(ids, 2):
            if rng.random() < 0.5:
                links.append((a, b, float(rng.randint(1, 9))))
        links.append(("p1", rng.choice(ids), 1.0))
        links.append(("c1", rng.choice(ids), 1.0))
        topo = make_topo(nodes, links)
        delays = configured(topo)
        try:
            expected_cost, expected_path = _oracle_best_path(topo, delays, ["p1"], "c1")
        except NoPath:
            with pytest.raises(NoPath):
                cheapest(topo, delays, ["p1"], "c1")
            continue
        got = cheapest(topo, delays, ["p1"], "c1")
        link_delay = {tuple(sorted((a, b))): d for a, b, d in links}
        got_cost = delays[got[0]]
        for a, b in zip(got, got[1:]):
            key = tuple(sorted((a, b)))
            got_cost += link_delay[key] + delays[b]
        assert got_cost == expected_cost
        assert tuple(got) == expected_path
        checked += 1
    assert checked >= 30


def _best_first_over_simple_paths(topology, delays, producers, consumer):
    """Frozen oracle: build_path before it kept a settled set.

    A best-first search over every simple path: exact, but exponential in
    time when no path exists.
    """
    brokers = {n for n, d in delays.items() if math.isfinite(d)}
    adj = {}
    for link in topology.link_list:
        adj.setdefault(link.a, {})[link.b] = link.delay_ms
        adj.setdefault(link.b, {})[link.a] = link.delay_ms

    def attached(node_id):
        if node_id in brokers:
            return {node_id}
        return {b for b in adj.get(node_id, ()) if b in brokers}

    starts = set()
    for p in producers:
        starts |= attached(p)
    goals = attached(consumer)
    if not starts or not goals:
        raise NoPath("no broker adjacent to producers or consumer")

    heap = [(delays[s], (s,)) for s in sorted(starts)]
    heapq.heapify(heap)
    while heap:
        cost, path = heapq.heappop(heap)
        here = path[-1]
        if here in goals:
            return list(path)
        for nxt, link_delay in adj.get(here, {}).items():
            if nxt in brokers and nxt not in path:
                heapq.heappush(heap, (cost + link_delay + delays[nxt], path + (nxt,)))
    raise NoPath("producers and consumer are not connected through brokers")


@st.composite
def small_graphs(draw):
    """Up to six brokers, two producers and a consumer (or a broker as the
    consumer), linked at random with repeated links and self-links, with link
    and broker delays that may be zero and broker delays that may be infinite."""
    brokers = ["b%d" % i for i in range(1, draw(st.integers(1, 6)) + 1)]
    ids = brokers + ["p1", "p2", "c1"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=16))
    links = [(a, b, draw(st.sampled_from([0.0, 1.0, 2.0, 5.0]))) for a, b in pairs]
    nodes = {p: ("producer", 1.0) for p in ("p1", "p2")}
    nodes["c1"] = ("consumer", 1.0)
    nodes.update((b, ("broker", 1.0)) for b in brokers)
    delays = {b: draw(st.sampled_from([0.0, 1.0, 3.0, math.inf])) for b in brokers}
    producers = draw(st.lists(st.sampled_from(["p1", "p2"] + brokers), min_size=1, max_size=2))
    consumer = draw(st.sampled_from(["c1"] + brokers))
    return make_topo(nodes, links), delays, producers, consumer


@given(graph=small_graphs())
@settings(max_examples=400, deadline=None)
def test_build_path_matches_the_best_first_search_over_simple_paths(graph):
    topo, delays, producers, consumer = graph
    try:
        expected = _best_first_over_simple_paths(topo, delays, producers, consumer)
    except NoPath:
        with pytest.raises(NoPath):
            cheapest(topo, delays, producers, consumer)
        return
    assert cheapest(topo, delays, producers, consumer) == expected


def test_build_path_pops_each_broker_at_most_once_when_no_path_exists(monkeypatch):
    """64 brokers on a ring with 32 chords; every neighbour of the consumer's
    broker b40 reads infinite, so no path reaches it. The best-first search
    over simple paths ran for minutes here; a settled set pops each broker's
    one heap entry (with equal link delays no broker's label ever improves)."""
    rng = random.Random(64)
    ids = ["b%02d" % i for i in range(64)]
    links = [(b, ids[(i + 1) % 64], 1.0) for i, b in enumerate(ids)]
    links += [tuple(rng.sample(ids, 2)) + (1.0,) for _ in range(32)]
    links += [("p1", "b00", 1.0), ("c1", "b40", 1.0)]
    nodes = dict({b: ("broker", 1.0) for b in ids}, p1=("producer", 1.0), c1=("consumer", 1.0))
    topo = make_topo(nodes, links)
    delays = configured(topo)
    for a, b, _ in links:
        if "b40" in (a, b) and "c1" not in (a, b):
            delays[b if a == "b40" else a] = math.inf
    delays["b40"] = 1.0
    pops = []
    heappop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or heappop(heap))
    with pytest.raises(NoPath):
        cheapest(topo, delays, ["p1"], "c1")
    assert 0 < len(pops) <= sum(math.isfinite(d) for d in delays.values()) - 1


# ---------------------------------------------------------------------------
# the corridor a distributed plan probes


def topology(*links, delays=None):
    """A TopologyConfig over links such as "p1-b1", each 1 ms; a node's role
    follows its first letter, and its delay is 1 ms unless `delays` says."""
    roles = {"b": "broker", "p": "producer", "c": "consumer"}
    pairs = [link.split("-") for link in links]
    delays = delays or {}
    nodes = {n: TopoNode(n, roles[n[0]], delays.get(n, 1.0)) for pair in pairs for n in pair}
    return TopologyConfig("test", nodes, [TopoLink(a, b, 1.0) for a, b in pairs])


Q2 = "FILTER(WINDOW(GPS_S1, 4s),'latitude'<50)"


@pytest.mark.parametrize("qid", ["q1", "q2", "q3", "q4", "q5", "q6"])
def test_the_corridor_of_every_shipped_query_is_every_broker_of_its_preset(qid):
    spec = load_scenario(str(data_path(qid + ".scn")))
    bindings = spec.bindings()
    tree = create_operator_graph(spec.queries[0].text, bindings)
    assert corridor(spec.topology, tree, bindings, "b6") == ["b%d" % i for i in range(1, 7)]


def test_the_corridor_is_the_hop_path_and_the_brokers_one_hop_off_it():
    # b1..b3 is the path; b4 hangs off it, b5 two hops off and b6 off b5
    topo = topology("p1-b1", "b1-b2", "b2-b3", "b3-c1", "b2-b4", "b4-b5", "b5-b6")
    tree = create_operator_graph(Q2)
    assert corridor(topo, tree, default_streams(), "b3") == ["b1", "b2", "b3", "b4"]
    # with no bound stream, the coordinator and its broker neighbours
    assert corridor(topo, create_operator_graph(Q2), {}, "b4") == ["b2", "b4", "b5"]


def test_the_corridor_is_every_broker_where_no_hop_path_exists():
    topo = topology("p1-b1", "b1-b2", "b3-c1", "b3-b4")
    tree = create_operator_graph(Q2)
    assert corridor(topo, tree, default_streams(), "b3") == ["b1", "b2", "b3", "b4"]
    with pytest.raises(NoPath):
        plan_query(tree, "b3", "distributed", topo, default_streams())


def test_plan_query_prices_only_the_corridor():
    """The detour b1-b4-b5-b6-b3 costs 9 against 14 through b2, but b5 is two
    hops off the fewest-hop path b1-b2-b3: no probe reaches it, so no plan uses it."""
    topo = topology(
        "p1-b1", "b1-b2", "b2-b3", "b3-c1", "b1-b4", "b4-b5", "b5-b6", "b6-b3", delays={"b2": 10.0}
    )
    tree = create_operator_graph(Q2)
    assert plan_query(tree, "b3", "distributed", topo, default_streams()).path == ["b1", "b2", "b3"]
    every = {b: topo.node_delay(b) for b in topo.broker_ids()}
    plan = plan_query(tree, "b3", "distributed", topo, default_streams(), every)
    assert plan.path == ["b1", "b4", "b5", "b6", "b3"]


def test_a_multi_homed_producer_is_planned_from_its_ingress_broker():
    """p1 links to b1 and b2, and b2 reaches the coordinator b3 cheaper; but
    p1's stream enters at its ingress broker b1, so the path starts there and
    its window stays on the path."""
    roles = {"p1": "producer", "b1": "broker", "b2": "broker", "b3": "broker"}
    links = [("p1", "b1", 1.0), ("p1", "b2", 1.0), ("b1", "b3", 10.0), ("b2", "b3", 1.0)]
    topo = make_topo({n: (role, 1.0) for n, role in roles.items()}, links)
    plan = plan_query(create_operator_graph(Q2), "b3", "distributed", topo, default_streams())
    assert plan.path[0] == topo.ingress_broker("p1") == "b1"
    assert plan.path == ["b1", "b3"] and plan.pinned == frozenset()


# ---------------------------------------------------------------------------
# operator assignment


Q3 = (
    "JOIN(FILTER(WINDOW(GPS_S1, 4s), 'latitude'<50), "
    "FILTER(WINDOW(GPS_S2, 4s), 'latitude'<50), GPS_S1.'ts' = GPS_S2.'ts')"
)


def test_assign_centralized_puts_everything_on_coordinator():
    tree = create_operator_graph(Q3)
    plan = assign_operators(tree, ["b1"], "centralized")
    assert set(plan.assignments.values()) == {"b1"}
    assert plan.coordinator == "b1"
    for node in tree.walk():
        assert plan.assignments[node.index] == "b1"


def test_assign_spec_shape_on_three_brokers():
    tree = create_operator_graph(Q3)
    plan = assign_operators(tree, ["b1", "b2", "b3"], "distributed")
    by_kind = {}
    for node in tree.walk():
        by_kind.setdefault(node.kind, []).append(plan.assignments[node.index])
    assert sorted(by_kind["WINDOW"]) == ["b1", "b1"]
    assert sorted(by_kind["FILTER"]) == ["b2", "b2"]
    assert by_kind["JOIN"] == ["b3"]
    assert plan.coordinator == "b3"
    assert plan.assignments[0] == "b3"  # root operator on the coordinator
    assert "/node/b3/nfn_service_Join" in to_nfn_expression(tree, plan.assignments)


def test_assign_root_stays_on_coordinator_for_small_trees():
    tree = create_operator_graph("WINDOW(GPS_S1, 4s)")
    plan = assign_operators(
        tree, ["b1", "b2", "b3"], "distributed", ingress={"GPS_S1": "b1"}
    )
    # a root leaf cannot be pinned away from the coordinator
    assert plan.assignments[0] == "b3"


def test_assign_balances_when_tree_exceeds_path():
    q6 = (
        "FILTER(JOIN(PREDICT(5m, WINDOW(PLUG_S1, 1m)), PREDICT(5m, WINDOW(PLUG_S2, 1m)), "
        "PLUG_S1.'ts' = PLUG_S2.'ts'), 'predicted_load'>20)"
    )
    tree = create_operator_graph(q6)
    plan = assign_operators(tree, ["b1", "b2"], "distributed")
    counts = {"b1": 0, "b2": 0}
    for node in plan.assignments.values():
        counts[node] += 1
    assert counts == {"b1": 3, "b2": 3}
    assert plan.assignments[0] == "b2"


def test_assign_pins_leaf_to_its_ingress():
    tree = create_operator_graph(Q3)
    plan = assign_operators(
        tree, ["b1", "b3"], "distributed", ingress={"GPS_S1": "b1", "GPS_S2": "b2"}
    )
    leaves = [n for n in tree.walk() if n.is_leaf]
    by_alias = {n.stream_alias: n for n in leaves}
    assert plan.assignments[by_alias["GPS_S2"].index] == "b2"
    assert by_alias["GPS_S2"].index in plan.pinned
    assert plan.assignments[by_alias["GPS_S1"].index] == "b1"
    # unpinned operators stay balanced across the path
    unpinned = [n for i, n in plan.assignments.items() if i not in plan.pinned]
    counts = {b: unpinned.count(b) for b in plan.path}
    assert max(counts.values()) - min(counts.values()) <= 1
    assert plan.assignments[0] == "b3"


def test_assign_fewer_operators_than_path():
    tree = create_operator_graph("FILTER(WINDOW(GPS_S1, 4s),'latitude'<50)")
    plan = assign_operators(tree, ["b1", "b2", "b3", "b4"], "distributed")
    # consumer-anchored: trailing nodes host the work, root at the end
    assert plan.assignments[0] == "b4"
    assert plan.assignments[1] == "b3"


def test_plan_dump_is_json_with_operator_rows():
    tree = create_operator_graph(Q3)
    plan = assign_operators(tree, ["b1", "b2", "b3"], "distributed")
    text = plan_dump(plan, tree)
    doc = json.loads(text)
    assert doc["path"] == ["b1", "b2", "b3"]
    assert doc["coordinator"] == "b3"
    assert len(doc["operators"]) == 5
    assert {row["index"] for row in doc["operators"]} == set(range(5))
    for row in doc["operators"]:
        assert row["node"] in {"b1", "b2", "b3"}
        assert row["kind"] in {"JOIN", "FILTER", "WINDOW"}


@pytest.mark.parametrize("mode", ["centralized", "distributed"])
def test_plan_query_leaves_the_parse_tree_unchanged(mode):
    # engines cache their parse trees and plan the same tree more than once
    spec = load_scenario(str(data_path("q3.scn")))
    bindings = spec.bindings()
    tree = create_operator_graph(spec.queries[0].text, bindings)
    before = [dict(vars(node)) for node in tree.walk()]
    plan = plan_query(tree, "b6", mode, spec.topology, bindings)
    assert [dict(vars(node)) for node in tree.walk()] == before
    assert len(set(plan.assignments.values())) == (1 if mode == "centralized" else 4)
