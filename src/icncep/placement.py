"""Operator placement.

The first broker that receives a query coordinates it: from the advertised
delays of the brokers in its corridor it builds the cheapest broker path from
its streams' ingress brokers (`TopologyConfig.ingress_broker`) to itself over
the topology's links, and spreads the operator tree along that path with the
deepest operators closest to the producers and the root on itself.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .query import OperatorNode, StreamBinding, to_nfn_expression

__all__ = [
    "PlacementError",
    "NoPath",
    "PlacementPlan",
    "build_path",
    "corridor",
    "assign_operators",
    "plan_query",
    "plan_dump",
]


class PlacementError(Exception):
    pass


class NoPath(PlacementError):
    pass


def build_path(topology, delays: dict[str, float], starts, goals) -> list[str]:
    """Cheapest broker path (summed link + node delay) from `starts` to `goals`.

    The path runs over `topology`'s links, the last of two between the same
    brokers counting (`TopologyConfig.link_by_pair`), and through the
    brokers that `delays` prices finite; an unpriced start or goal is left
    out. Ties break toward the lexicographically smallest node-id sequence,
    which makes planning deterministic across runs.
    """
    brokers = {n for n, d in delays.items() if math.isfinite(d)}
    links = topology.link_by_pair
    # Dijkstra on (cost, node-id sequence): the first label to reach a broker
    # is its cheapest, ties to the smallest sequence, so each broker settles once
    best = {s: (delays[s], (s,)) for s in starts if s in brokers}
    heap = sorted(best.values())
    settled: set = set()
    while heap:
        cost, path = heapq.heappop(heap)
        here = path[-1]
        if here in settled:
            continue
        if here in goals:
            return list(path)
        settled.add(here)
        for nxt in topology.neighbors(here):
            if nxt in brokers:
                label = (cost + links[here, nxt].delay_ms + delays[nxt], path + (nxt,))
                if nxt not in best or label < best[nxt]:  # never true once nxt is settled
                    best[nxt] = label
                    heapq.heappush(heap, label)
    raise NoPath(
        "no priced broker path joins %s to %s"
        % tuple(", ".join(sorted(set(ends))) or "no broker" for ends in (starts, goals))
    )


@dataclass
class PlacementPlan:
    assignments: dict[int, str]
    path: list[str]
    coordinator: str
    mode: str
    pinned: frozenset = field(default_factory=frozenset)
    ingress: dict[str, str] = field(default_factory=dict)  # stream alias -> broker


def assign_operators(
    tree: OperatorNode,
    path,
    mode: str,
    ingress: Optional[dict[str, str]] = None,
) -> PlacementPlan:
    """Map every operator to a path node.

    Centralized mode parks the whole tree on the coordinator. Distributed
    mode orders operators deepest-first and splits them contiguously along
    the path producer-side first, keeping per-node counts within one of each
    other; window leaves are then pinned back to their stream's ingress
    broker. The root always lands on the coordinator (the planning broker).
    """
    path = list(path)
    if not path:
        raise PlacementError("empty path")
    coordinator = path[-1]
    ops = list(tree.walk())
    assignments: dict[int, str] = {}
    pinned = set()

    if mode == "centralized":
        for node in ops:
            assignments[node.index] = coordinator
    elif mode == "distributed":
        ordered = sorted(ops, key=lambda n: (-n.depth, n.index))
        k, l = len(ordered), len(path)
        if k >= l:
            base, rem = divmod(k, l)
            sizes = [base + 1] * rem + [base] * (l - rem)
        else:
            sizes = [0] * (l - k) + [1] * k
        it = iter(ordered)
        for node_id, size in zip(path, sizes):
            for _ in range(size):
                assignments[next(it).index] = node_id
        for node in ops:
            if node.is_leaf and node.index != tree.index and ingress:
                home = ingress.get(node.stream_alias)
                if home is not None and home != assignments[node.index]:
                    assignments[node.index] = home
                    pinned.add(node.index)
    else:
        raise PlacementError("unknown mode %r" % mode)

    assert assignments[tree.index] == coordinator, "root operator must sit on the coordinator"
    return PlacementPlan(
        assignments=assignments,
        path=path,
        coordinator=coordinator,
        mode=mode,
        pinned=frozenset(pinned),
        ingress=dict(ingress or {}),
    )


def _ingress(
    topology, tree: OperatorNode, streams: dict[str, StreamBinding]
) -> dict[str, Optional[str]]:
    """Each of `tree`'s bound stream aliases -> its producer's ingress broker, or None."""
    return {
        alias: topology.ingress_broker(streams[alias].name.components[1])
        for alias in sorted(tree.stream_aliases())
        if alias in streams
    }


def corridor(
    topology, tree: OperatorNode, streams: dict[str, StreamBinding], coordinator: str
) -> list[str]:
    """The sorted brokers a distributed plan of `tree` at `coordinator` may use.

    These are the brokers on the fewest-hop path (`topology.hop_path`) from
    each stream's ingress broker to the coordinator, and every broker one hop
    from such a path, as network-aware placement prices only the nodes near
    the data's route instead of probing them all (Pietzuch et al., ICDE 2006).
    Where a stream has no ingress broker or no such path, every broker, so
    that `build_path` reports the missing path.
    """
    near: set = set()
    for home in _ingress(topology, tree, streams).values() or [coordinator]:
        try:
            path = topology.hop_path(home, coordinator) if home is not None else None
        except NoPath:
            path = None
        if path is None:
            return topology.broker_ids()
        for node in path:
            near.add(node)
            near.update(topology.neighbors(node))
    return [b for b in topology.broker_ids() if b in near]


def plan_query(
    tree: OperatorNode,
    coordinator: str,
    mode: str,
    topology,
    streams: dict[str, StreamBinding],
    delays: Optional[dict[str, float]] = None,
) -> PlacementPlan:
    """Plan `tree` for the broker `coordinator`; the engine and `explain` share it.

    In both modes each bound stream's producer enters at
    `topology.ingress_broker`, and the plan's `ingress` lets deployment route
    the stream to the host of its window.
    Centralized mode keeps the whole tree on the coordinator. Otherwise the
    tree is spread along the cheapest broker path from the ingress brokers
    (the coordinator, with no bound stream) to the coordinator, priced by
    `delays` (each broker's delay; when None, the configured delays of the
    brokers in the `corridor` the engine probes).
    """
    homes = _ingress(topology, tree, streams)
    ingress = {alias: home for alias, home in homes.items() if home is not None}
    if mode == "centralized":
        return assign_operators(tree, [coordinator], mode, ingress=ingress)
    if delays is None:
        brokers = corridor(topology, tree, streams, coordinator)
        delays = {b: topology.node_delay(b) for b in brokers}
    starts = set(ingress.values()) if homes else {coordinator}
    path = build_path(topology, delays, starts, {coordinator})
    return assign_operators(tree, path, mode, ingress=ingress)


def plan_dump(plan: PlacementPlan, tree: OperatorNode) -> str:
    """JSON rendering of a plan, consumed by the command line `explain`."""
    operators = [
        {
            "index": node.index,
            "kind": node.kind,
            "node": plan.assignments[node.index],
            "pinned": node.index in plan.pinned,
            "nfn": to_nfn_expression(node, plan.assignments),
        }
        for node in tree.walk()
    ]
    return json.dumps(
        {
            "mode": plan.mode,
            "coordinator": plan.coordinator,
            "path": plan.path,
            "operators": operators,
        },
        indent=2,
    )
