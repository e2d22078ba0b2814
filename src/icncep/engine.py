"""Per-node data plane: packet classification and query coordination.

A node runs one logical event loop. Every packet enters through
`handle_packet(packet, in_face)`; handlers run to completion and never block
on remote responses. Each handler returns the packet's disposition:
`consumed`, `forwarded`, `dropped` or `malformed`. `handle_packet` counts
each packet once, as `received` and under the disposition its handler
returned. A packet whose handler raises gets no disposition; the simulator
counts it in its node's `errors`. An evaluation that `_feed` skips for a row
it cannot read is counted `eval_skipped`, not a disposition.

A coordinator plans a query in one request/reply loop of two stages: while
the plan is unmade it probes the delay of every other broker in the query's
`placement.corridor` whose delay it does not already hold from a probe reply
it received or forwarded (counter `delays_reused`), then it sends each host
its deploy order. Each plan waits on the PIT entries of the Interests it
sent, and a Data that answers one is handed to the plans waiting there. A
stage ends with its last reply or at its timeout, and a deploy order unacked
gives the plan up. The plan reads each delay from the content store when it
is made: a silent broker's reads infinite, as does a reply that is not a
number >= 0. The coordinator installs its own share through the deploy-order
reader, as every other host does. A plan that fails (NoPath) sends
/nack/<qhash>/<nonce> with the reason on every face of its query's PIT entry
and leaves no state: like a /ce result, the nack follows the PIT entries for
<qhash> to the consumers, and it drops each one on its way, so a later Add
of the query is planned afresh.

Name conventions produced locally:
  /node/<id>/delay            advertised processing + queueing delay
  /node/<id>/deploy/<blob>    operator deployment order (base64url JSON)
  /state/<qhash>/<idx>/out    intermediate result stream between brokers
  /state/<qhash>/<idx>/prune/<wm>
                              asks the upstream hop to stop that stream
  /ce/<qhash>/<ts>            consumer notification
  /nack/<nonce>               rejection of a malformed query
  /nack/<qhash>/<nonce>       rejection of an unplaceable query
<idx>, <wm> and <ts> are u64 values in canonical decimal, as the codec reads
them (`packet._u64_text`); a /state packet that spells <idx> or <wm> any
other way (`01`, `+1`, ` 1`, non-ASCII digits) is counted `malformed`. So is
a deploy order that spells an operator index of its `assign` object any
other way, or whose JSON repeats a key in any object; it is not acked.

An engine wires itself from `NodeConfig.topology`: it takes its node's role,
face k leads to its k-th sorted neighbour, and a producer routes each of its
own streams to the face of its next hop toward its ingress broker, the
nearest one (`TopologyConfig.ingress_broker`). A producer or consumer sends
the Adds and Removes it originates or forwards up that face, so one broker
coordinates its query, and floods them only when no broker is reachable or
when they came in on that face.

The FIB holds only installed routes: those that deployments install for
stream names and /state/<qhash>/<idx> prefixes, and each producer's route
for its own streams. An Interest for /node/<id>/... that no route matches
goes to the face of the topology's fewest-hop next hop toward <id>, so no
engine keeps a route per node. Streams follow installed routes only, never
a next hop toward their producer.

An engine derives what a DataStream hop and a result need once, in two
caches that fill lazily and hold nothing a fresh derivation would not give:
  - Per DataStream name, a `_Hop` in the FIB's `memo` (`_stream_hop`): the
    name's producer-stream width, its /state feed as `_u64_text` reads it,
    its entry in `_feeds`, and its sorted out-faces per in-face as `_ship`
    first reads them, an empty answer included. It is kept only while a
    route matches the name or the name feeds an instance here, and never
    for a misspelt /state name; every route added or removed empties the
    memo, as does every change of `_feeds`. The memo so holds no key for a
    name that no route or instance knows, however many such names arrive;
    Interests read the FIB afresh.
  - Per root instance, a `packet.ResultRenderer`, which takes every slide of
    the root's output and keeps the JSON text of each row it still holds, so
    a result renders only its rows that are new since the last one.

One feed table, `_feeds`, maps the name a DataStream carries (its
components) to the instances it feeds: a producer stream's WINDOWs in
install order, or for /state/<qhash>/<idx>/out the parent of operator <idx>.

Each engine parses each query text once per run, as NFN resolves a name
once. `_parse` keeps every text that parsed, whether it came in an Add, a
Remove or as a deploy order's canonical key, with its operator tree,
canonical key and real parse time; a poll's Remove+Add pair and every later
deploy of the same query are lookups. A text that fails to parse is parsed
again each time and nacked each time. All texts of one canonical key share
one tree, and the key's own entry is made by the first of them to parse.
Memoized trees are shared with `_deployed`, pending plans and operator
instances, so nothing changes a tree after `create_operator_graph` returns.
`graph_real_ms` is the time of the parse that built the entry, on a hit too.
The memo holds one entry per distinct text and canonical key and lives as
long as the run: `Simulator.detach` clears it.

Operators hand their outputs on as slides (`packet.Slide`): the rows that
left the front of the output emitted before, and the rows appended. An
operator whose parent runs on another broker ships its output on
/state/<qhash>/<idx>/out, once per new result, as a row delta
(`packet.StateDelta`, whose ts is the watermark) that its slide makes. Each
end of a feed is a `packet` class that the instance holds: a shipping
instance's `out`, a `DeltaSender` made at install, and the parent's
`received`, one `Mirror` per child made at install. The engine only routes
deltas: it evaluates a parent on the slide its mirror returns once the
mirror holds the child's whole output, and counts `state_gaps` while a
/state packet lost at link capacity leaves the mirror short. Only the codec
(`packet.encode_packet`, type tag 7) turns a delta into bytes and back, and a
/state/.../out packet that carries anything but a StateDelta is counted
`malformed` and not forwarded. A /ce result's payload is the JSON that
`packet.result_payload` renders.

Query lifecycle. A RemoveQueryInterest only drops a PIT face; the work is
released where its data next arrives unwanted, as in the prune of
dense-mode multicast:
  - Release at the root. When the root operator, which sits on the
    coordinator, has a result and finds no PIT entry for its query, the
    engine releases every instance of that salted query on this node, with
    its feed table entries and its tree.
  - Prune hop by hop. A /state/<q>/<i>/out delta that a node neither
    consumes nor forwards is answered with an Interest
    /state/<q>/<i>/prune/<wm> on its in-face, where <wm> is the delta's
    watermark. The receiver drops that face from its route for
    /state/<q>/<i> and, once the route has no face left, releases every
    instance of q it hosts (each takes its own /state route along). The
    next delta then dead-ends one hop further upstream, so the teardown
    walks down to the ingress windows.
  - Stale prunes. Each node fences each feed it ships or forwards at the
    watermark of its first delta sent DEPLOY_TIMEOUT_MS or more after its
    latest deploy order for the query. A prune below the fence, or before
    it is set, is ignored (counter `stale_prunes`): it answers a delta of an
    older deployment, or one that reached a hop whose deploy order was
    still on its way. A re-deployed instance ships a keyframe next, so a
    re-created parent's fresh mirror is not left with a gap.
A query whose data stops flowing is not released. Counters `prunes_sent` and
`released` (instances) count the work.
"""

from __future__ import annotations

import base64
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Protocol

# join_eval is unused here: bench/test_bench.py checks that the benchmark's
# tracer, which wraps each module's reference to it, restores engine.join_eval
from .operators import Operator, OutOfOrderTuple, UnknownAttribute, join_eval  # noqa: F401
from .packet import (
    AddQueryInterest,
    Data,
    DataStream,
    DeltaSender,
    Interest,
    Mirror,
    Name,
    Packet,
    RemoveQueryInterest,
    ResultRenderer,
    Slide,
    StateDelta,
    _is_state_out,
    _u64_text,
)
from .placement import NoPath, PlacementPlan, corridor, plan_query
from .query import (
    OperatorNode,
    QueryError,
    StreamBinding,
    canonical_text,
    create_operator_graph,
    query_hash,
)
from .tables import ContentStore, ForwardingInformationBase, PendingInterestTable

__all__ = [
    "APP_FACE",
    "FaceDef",
    "NodeConfig",
    "Services",
    "Engine",
    "PROBE_TIMEOUT_MS",
    "DEPLOY_TIMEOUT_MS",
]

APP_FACE = 0
PROBE_TIMEOUT_MS = 200.0
DEPLOY_TIMEOUT_MS = 400.0


def _advertised_delay(payload: bytes) -> float:
    """A probe reply's delay; anything but a number >= 0 reads as silence, infinite."""
    try:
        delay = float(payload.decode("utf-8"))
    except ValueError:
        return math.inf
    return delay if delay >= 0 else math.inf


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; one that repeats a key raises ValueError."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return doc


@dataclass(frozen=True)
class FaceDef:
    face_id: int
    peer: str


@dataclass
class NodeConfig:
    node_id: str
    topology: object  # the node's role and faces come from it; brokers plan on it
    # the engine parses queries against this table only
    streams: dict[str, StreamBinding] = field(default_factory=dict)
    mode: str = "centralized"


class Services(Protocol):
    """What the engine needs from its host (the simulator or a test double)."""

    def send(self, node_id: str, face_id: int, packet: Packet) -> None: ...

    def now(self) -> int: ...

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None: ...

    def local_delay_ms(self, node_id: str) -> float: ...

    def charge(self, node_id: str, ms: float) -> None: ...

    def event(self, node_id: str, kind: str, payload: dict) -> None: ...


@dataclass(slots=True)
class _Hop:
    """What a DataStream name tells its node until the routes or `_feeds` next change."""

    width: Optional[int]  # a producer stream's schema width, whose values are all numbers
    # (q, i) of /state/<q>/<i>/out, i None if it is not canonical; None for other names
    feed: Optional[tuple]
    feeds: Optional[list]  # the name's entry in `_feeds`
    faces: dict  # in-face (None: sent from here) -> out-faces, as `_ship` first reads them


@dataclass
class OpInstance:
    salted: str
    unsalted: str  # the hash its /ce names carry, its PIT and CS key
    node: OperatorNode
    parent_host: Optional[str]
    op: Operator  # its kind's state and evaluation
    received: dict[int, Mirror]  # the mirror of each child's output, by child index
    # its one output end: a shipping instance's /state feed, or a root's results
    out: Optional[DeltaSender] = None
    results: Optional[ResultRenderer] = None


@dataclass
class _PendingPlan:
    nonce: str
    key: str
    tree: OperatorNode
    unsalted: str
    salted: str
    t0: int
    graph_real_ms: float
    awaiting: set[Name] = field(default_factory=set)  # /node/<id>/... not yet answered
    corridor: list[str] = field(default_factory=list)  # the brokers a distributed plan prices
    plan_real_ms: float = 0.0
    plan: Optional[PlacementPlan] = None


class Engine:
    def __init__(self, config: NodeConfig, services: Services):
        self.config = config
        self.node_id = nid = config.node_id
        topo = config.topology
        self.role = topo.nodes[nid].role
        self.services = services

        self.cs = ContentStore()
        self.pit = PendingInterestTable()
        self.fib = ForwardingInformationBase()
        self.faces: dict[int, FaceDef] = {APP_FACE: FaceDef(APP_FACE, "app")}
        self._face_of_peer: dict[str, int] = {}
        for face_id, peer in enumerate(topo.neighbors(nid), 1):
            self.faces[face_id] = FaceDef(face_id, peer)
            self._face_of_peer[peer] = face_id
        # an endpoint's face toward its ingress broker: its streams and query interests go there
        up = None
        if self.role != "broker":
            up = self._face_of_peer.get(topo.next_hop(nid, topo.ingress_broker(nid)))
        self._ingress_face = up
        if self.role == "producer" and up is not None:
            for b in config.streams.values():
                if b.name.components[1] == nid:
                    self.fib.add_route(b.name, up)

        self.instances: dict[tuple[str, int], OpInstance] = {}
        # producer stream name -> width of its schema, whose values are all numbers
        self._stream_widths = {
            b.name.components: len(b.schema.attribute_names) for b in config.streams.values()
        }
        # name a packet carries -> the instances it feeds; see _index_feeds
        self._feeds: dict[tuple[str, ...], list[tuple[str, int]]] = {}
        # query text -> (tree, canonical key, real parse ms); see _parse
        self._parsed: dict[str, tuple[OperatorNode, str, float]] = {}
        self.high_water: dict[tuple[str, ...], int] = {}  # stream name -> newest tuple ts
        self._deployed: dict[str, tuple[OperatorNode, int]] = {}  # salted -> (tree, deploy time)
        self._fences: dict[tuple[str, int], int] = {}  # /state feed sent or forwarded -> fence wm
        self.counters: Counter[str] = Counter()

    # -- small helpers ------------------------------------------------------

    def _send(self, face_id: int, packet: Packet) -> None:
        self.counters["sent"] += 1
        self.services.send(self.node_id, face_id, packet)

    def _nack(self, faces, reason: str, *name: str) -> None:
        """Send /nack/<name> with `reason` on each of `faces`."""
        nack = Data(name=Name(("nack",) + name), payload=reason.encode("utf-8"), ts=self._now())
        for f in faces:
            self._send(f, nack)

    def _event(self, kind: str, **payload) -> None:
        self.services.event(self.node_id, kind, payload)

    def _now(self) -> int:
        return self.services.now()

    def _fib_faces(
        self, name: Name, exclude: Optional[int] = None, interest: bool = False
    ) -> list[int]:
        """Faces of the longest route for `name`, minus `exclude`.

        With no route, an `interest` for /node/<id>/... goes to the next hop toward <id>.
        """
        entry = self.fib.longest_prefix(name)
        faces = () if entry is None else entry.faces
        comps, topo = name.components, self.config.topology
        if entry is None and interest and comps[0] == "node" and len(comps) > 1:
            faces = [self._face_of_peer.get(topo.next_hop(self.node_id, comps[1]))]
        return sorted(f for f in faces if f not in (exclude, APP_FACE, None))

    def _stream_hop(self, name: Name) -> _Hop:
        """The `_Hop` of DataStream `name`, kept in the FIB's memo while it holds.

        It is kept only if a route matches `name` or `name` feeds an instance
        here, and never for a /state name whose <i> is not canonical; the FIB
        empties the memo when its routes change, `_index_feeds` when `_feeds`
        does.
        """
        comps = name.components
        hop = self.fib.memo.get(comps)
        if hop is None:
            width, feed = self._stream_widths.get(comps), None
            if width is None and _is_state_out(comps):
                feed = (comps[1], _u64_text(comps[2]))
            hop = _Hop(width, feed, self._feeds.get(comps), {})
            if (feed is None or feed[1] is not None) and (
                hop.feeds or self.fib.longest_prefix(name)
            ):
                self.fib.memo[comps] = hop
        return hop

    def _query_faces(self, in_face: int) -> list[int]:
        """An endpoint's ingress-broker face, unless `in_face` is it; else every other face."""
        up = self._ingress_face
        if up is not None and up != in_face:
            return [up]
        return sorted(f for f in self.faces if f not in (APP_FACE, in_face))

    def _parse(self, text: str) -> tuple[OperatorNode, str, float]:
        """`text`'s operator tree, canonical key and real parse ms, parsed once.

        Every text with the same canonical key shares one tree, which must not
        change; the entry is kept under the key too, so the key's deploy
        orders are lookups. A text that does not parse raises QueryError each
        time and is not kept.
        """
        parsed = self._parsed.get(text)
        if parsed is None:
            started = time.perf_counter()
            tree = create_operator_graph(text, self.config.streams)
            parse_ms = (time.perf_counter() - started) * 1000.0
            key = canonical_text(tree)
            tree = self._parsed.get(key, (tree,))[0]
            parsed = self._parsed[text] = (tree, key, parse_ms)
            self._parsed.setdefault(key, parsed)
        return parsed

    # -- dispatch -----------------------------------------------------------

    def handle_packet(self, packet: Packet, in_face: int) -> None:
        """Handle `packet`; count it `received` and under the disposition its handler returns."""
        self.counters["received"] += 1
        if type(packet) is DataStream:  # most packets: test it first
            disposition = self.handle_data_stream(packet, in_face)
        elif isinstance(packet, AddQueryInterest):
            disposition = self.handle_add_query_interest(packet, in_face)
        elif isinstance(packet, RemoveQueryInterest):
            disposition = self.handle_remove_query_interest(packet, in_face)
        elif isinstance(packet, Interest):
            disposition = self.handle_interest(packet, in_face)
        elif isinstance(packet, Data):
            disposition = self.handle_data(packet, in_face)
        else:
            disposition = "dropped"
        self.counters[disposition] += 1

    # -- query interests ----------------------------------------------------

    def handle_add_query_interest(self, p: AddQueryInterest, in_face: int) -> str:
        try:
            tree, key, graph_real_ms = self._parse(p.query)
        except QueryError as err:
            self.counters["nacks"] += 1
            self._nack([in_face], str(err), p.nonce)
            return "consumed"
        unsalted = query_hash(key)

        # (a) fresh content store hit answers immediately, no state change
        min_ts = 0
        for alias in tree.stream_aliases():
            binding = self.config.streams.get(alias)
            if binding is not None:
                min_ts = max(min_ts, self.high_water.get(binding.name.components, 0))
        hit = self.cs.lookup(unsalted, min_ts=min_ts)
        if hit is not None:
            reply = Data(
                name=Name(("ce", unsalted, str(hit.logical_ts))),
                payload=hit.payload,
                ts=hit.logical_ts,
            )
            self.counters["cs_replies"] += 1
            self._send(in_face, reply)
            return "consumed"

        # (b) already pending: record the extra face and stop
        if self.pit.lookup(unsalted) is not None:
            self.pit.add_face(unsalted, in_face, self._now())
            return "consumed"

        # (c) take the query: brokers coordinate it, endpoints forward it
        self.pit.add_face(unsalted, in_face, self._now())
        if self.role == "broker":
            self._coordinate(p.nonce, key, tree, unsalted, graph_real_ms)
            return "consumed"
        out = self._query_faces(in_face)
        for f in out:
            self._send(f, p)
        return "forwarded" if out else "consumed"

    def handle_remove_query_interest(self, p: RemoveQueryInterest, in_face: int) -> str:
        try:
            unsalted = query_hash(self._parse(p.query)[1])
        except QueryError:
            return "dropped"
        if self.pit.lookup(unsalted) is None:
            return "dropped"
        self.pit.remove_face(unsalted, in_face)
        out = self._query_faces(in_face)
        for f in out:
            self._send(f, p)
        return "forwarded" if out else "consumed"

    # -- coordination -------------------------------------------------------

    def _coordinate(
        self, nonce: str, key: str, tree: OperatorNode, unsalted: str, graph_real_ms: float
    ) -> None:
        """Plan the query `key` here, from the delays of the brokers in its corridor.

        A probe reply this node received or forwarded stays in its content
        store, and its answer is taken for the broker's delay unless it reads
        infinite (`_held_delay`). That holds because a broker's advertised delay
        (`Services.local_delay_ms`) stays the same for a whole run; a delay
        that changed during a run would have to gate this lookup by time
        (`min_ts`), together with intermediate content-store answers.
        """
        salted = query_hash(key, salt=self.node_id)
        pending = _PendingPlan(
            nonce=nonce,
            key=key,
            tree=tree,
            unsalted=unsalted,
            salted=salted,
            t0=self._now(),
            graph_real_ms=graph_real_ms,
        )
        self._event(
            "query_accepted",
            nonce=nonce,
            key=key,
            unsalted=unsalted,
            salted=salted,
            t0=pending.t0,
            graph_real_ms=graph_real_ms,
            mode=self.config.mode,
        )
        # a distributed plan probes the delay of each other broker in its
        # corridor that this node has not heard from; others are planned at once
        probes = []
        if self.config.mode != "centralized":
            topo, streams = self.config.topology, self.config.streams
            pending.corridor = corridor(topo, tree, streams, self.node_id)
            for b in pending.corridor:
                if b == self.node_id:
                    continue
                if math.isinf(self._held_delay(b)):
                    probes.append(Name(("node", b, "delay")))
                else:
                    self.counters["delays_reused"] += 1
        self._request(pending, probes, PROBE_TIMEOUT_MS)

    def _held_delay(self, broker: str) -> float:
        """`broker`'s delay: this node's own, else the probe reply in its content store."""
        if broker == self.node_id:
            return self.services.local_delay_ms(broker)
        hit = self.cs.lookup(Name(("node", broker, "delay")))
        return math.inf if hit is None else _advertised_delay(hit.payload)

    def _request(self, pending: _PendingPlan, names: list[Name], timeout_ms: float) -> None:
        """Ask `names` for `pending`'s stage; it ends with its last reply or at `timeout_ms`."""
        for name in names:
            pending.awaiting.add(name)
            self._originate_interest(name, pending)
        if not pending.awaiting:
            self._next_stage(pending)
            return
        plan = pending.plan
        self.services.schedule(timeout_ms, lambda: self._timeout(pending, plan))

    def _reply(self, pending: _PendingPlan, data: Data) -> None:
        """Take `pending`'s reply `data`, cached already; the stage's last reply ends it."""
        pending.awaiting.remove(data.name)
        if not pending.awaiting:
            self._next_stage(pending)

    def _timeout(self, pending: _PendingPlan, plan: Optional[PlacementPlan]) -> None:
        """Stop `pending`'s stage begun with `plan` from waiting, unless it is over."""
        if pending.plan is not plan or not pending.awaiting:
            return
        self._drop_waits(pending)
        if plan is None:  # a silent broker has no reply on record: it reads infinite
            pending.awaiting.clear()
            self._plan_and_deploy(pending)
            return
        missing = sorted(name.components[1] for name in pending.awaiting)
        self._event("deploy_timeout", nonce=pending.nonce, missing=missing)

    def _next_stage(self, pending: _PendingPlan) -> None:
        """Plan `pending` once probed; once its deploy orders are acked, report it deployed."""
        if pending.plan is None:
            self._plan_and_deploy(pending)
            return
        t1 = self._now()
        plan = pending.plan
        self._event(
            "query_deployed",
            nonce=pending.nonce,
            salted=pending.salted,
            unsalted=pending.unsalted,
            t1=t1,
            placement_sim_ms=float(t1 - pending.t0),
            plan_real_ms=pending.plan_real_ms,
            graph_real_ms=pending.graph_real_ms,
            mode=self.config.mode,
            assignments={str(i): h for i, h in sorted(plan.assignments.items())},
            path=list(plan.path),
            pinned=sorted(plan.pinned),
        )

    def _plan_and_deploy(self, pending: _PendingPlan) -> None:
        started = time.perf_counter()
        try:
            plan = plan_query(
                pending.tree,
                self.node_id,
                self.config.mode,
                self.config.topology,
                self.config.streams,
                {b: self._held_delay(b) for b in pending.corridor},
            )
        except NoPath as err:
            # nothing was installed: a later Add of the query is planned afresh
            entry = self.pit.lookup(pending.unsalted)
            self.pit.remove(pending.unsalted)
            self._event("plan_failed", nonce=pending.nonce, reason=str(err))
            faces = sorted(entry.faces) if entry is not None else ()
            self._nack(faces, str(err), pending.unsalted, pending.nonce)
            return
        pending.plan_real_ms = (time.perf_counter() - started) * 1000.0
        if self.config.mode == "centralized":
            pending.plan_real_ms = 0.0
        pending.plan = plan

        orders = self._deployment_orders(pending, plan)
        # the root operator sits here, so this node always has an order of its own
        self._install_assignment(*self._read_deploy_order(orders.pop(self.node_id)))
        deploys = []
        for target, doc in sorted(orders.items()):
            blob = base64.urlsafe_b64encode(
                json.dumps(doc, sort_keys=True).encode("utf-8")
            ).decode("ascii")
            deploys.append(Name(("node", target, "deploy", blob)))
        self._request(pending, deploys, DEPLOY_TIMEOUT_MS)

    def _deployment_orders(self, pending, plan) -> dict[str, dict]:
        """Per-node deployment documents: assigned indices plus hop routes."""
        tree = pending.tree
        assign = plan.assignments
        routes: dict[str, list[tuple[str, str]]] = {}

        def add_route_path(src: str, dst: str, prefix: str) -> None:
            hops = self.config.topology.hop_path(src, dst)
            for a, b in zip(hops, hops[1:]):
                routes.setdefault(a, []).append((prefix, b))

        for node in tree.walk():
            host = assign[node.index]
            if node.is_leaf:
                binding = self.config.streams[node.stream_alias]
                home = plan.ingress.get(node.stream_alias)
                if home and home != host:
                    add_route_path(home, host, binding.name.to_uri())
            for child in node.children:
                child_host = assign[child.index]
                if child_host != host:
                    prefix = "/state/%s/%d" % (pending.salted, child.index)
                    add_route_path(child_host, host, prefix)

        targets = set(assign.values()) | set(routes)
        orders: dict[str, dict] = {}
        for target in targets:
            mine = sorted(i for i, h in assign.items() if h == target)
            orders[target] = {
                "q": pending.key,
                "salted": pending.salted,
                "unsalted": pending.unsalted,
                "assign": {str(i): h for i, h in assign.items()},
                "mine": mine,
                "routes": sorted(set(routes.get(target, []))),
            }
        return orders

    # -- deployment intake ---------------------------------------------------

    def _read_deploy_order(self, doc) -> tuple:
        """`_install_assignment`'s arguments for the decoded deploy order `doc`.

        Raises ValueError if the order is malformed, before anything is
        installed: it must be an object whose assignment covers exactly the
        operators of its query's tree, each index in canonical decimal.
        """
        try:
            salted, unsalted, key = doc["salted"], doc["unsalted"], doc["q"]
            assignments = {_u64_text(i): h for i, h in doc["assign"].items()}
            routes = [
                (Name.from_uri(prefix), self._face_of_peer.get(hop))
                for prefix, hop in doc.get("routes", [])
            ]
            if not all(isinstance(s, str) for s in (salted, unsalted, key)):
                raise TypeError("query names must be strings")
            held = self._deployed.get(salted)
            tree = self._parse(key)[0] if held is None else held[0]
        except (KeyError, TypeError, AttributeError, RecursionError) as err:
            raise ValueError("malformed deploy order: %r" % (err,)) from err
        if set(assignments) != {node.index for node in tree.walk()}:  # None: a misspelt index
            raise ValueError("deploy order does not assign its query's operators")
        return salted, unsalted, tree, assignments, routes

    def _install_assignment(
        self,
        salted: str,
        unsalted: str,
        tree: OperatorNode,
        assignments: dict[int, str],
        routes: list[tuple[Name, Optional[int]]],  # prefix, face to its next hop
    ) -> None:
        for prefix, face in routes:
            if face is not None:
                self.fib.add_route(prefix, face)
        tree = self._deployed.get(salted, (tree,))[0]
        self._deployed[salted] = (tree, self._now())
        by_index = {node.index: node for node in tree.walk()}
        for idx in by_index:
            self._fences.pop((salted, idx), None)
        for idx, host in assignments.items():
            if host != self.node_id:
                continue
            existing = self.instances.get((salted, idx))
            if existing is not None:
                if existing.out is not None:
                    existing.out.restart()  # its parent may be new: ship a keyframe next
                continue
            node = by_index[idx]
            parent_host = None if node.parent is None else assignments[node.parent]
            received = {c.index: Mirror(c.ctx.width) for c in node.children}
            inst = OpInstance(salted, unsalted, node, parent_host, Operator(node), received)
            if parent_host is None:
                inst.results = ResultRenderer()
            elif parent_host != self.node_id:
                inst.out = DeltaSender(Name(("state", salted, str(idx), "out")))
            self.instances[(salted, idx)] = inst
            self._index_feeds(inst, add=True)

    def _index_feeds(self, inst: OpInstance, add: bool) -> None:
        """List `inst` in `_feeds` under each name that feeds it, or (`add` false) unlist it.

        Either empties the FIB's memo, whose `_Hop`s are kept by what `_feeds` holds.
        """
        self.fib.memo.clear()
        key, node = (inst.salted, inst.node.index), inst.node
        names = [("state", inst.salted, str(c.index), "out") for c in node.children]
        binding = self.config.streams.get(node.stream_alias)
        if binding is not None:
            names.append(binding.name.components)
        for name in names:
            if add:
                self._feeds.setdefault(name, []).append(key)
            elif len(self._feeds[name]) > 1:
                self._feeds[name].remove(key)
            else:
                del self._feeds[name]

    # -- data streams and evaluation ----------------------------------------

    def handle_data_stream(self, p: DataStream, in_face: int) -> str:
        hop = self._stream_hop(p.stream_name)
        feed, feeds = hop.feed, hop.feeds  # feed: (salted hash, index) of a /state delta
        width = hop.width
        if width is not None:
            values = p.tuple.values
            if len(values) != width or any(map(isinstance, values, repeat(str, width))):
                return "malformed"
            comps = p.stream_name.components
            self.high_water[comps] = max(self.high_water.get(comps, 0), p.tuple.ts)
        elif feed is not None and (feed[1] is None or type(p.tuple) is not StateDelta):
            return "malformed"  # a misspelt <i>, or no delta on a /state stream

        consumed = bool(feeds)  # read first: a release in the loop empties the list
        for inst_key in list(feeds or ()):
            inst = self.instances.get(inst_key)
            if inst is None:  # released by a result this packet gave a self-join
                continue
            if feed is not None:
                try:
                    slide = inst.received[feed[1]].apply(p.tuple)
                except ValueError:
                    return "malformed"
                if slide is None:
                    self.counters["state_gaps"] += 1
                else:
                    self._feed(inst, feed[1], slide, p.tuple.ts)
                continue
            entry = self.pit.lookup(inst.unsalted)
            if entry is not None and p.tuple.ts <= entry.last_result_ts:
                self.counters["out_of_order"] += 1
                continue  # already folded into a delivered result
            one = (p.tuple,)
            self._feed(inst, None, (one, 0, one), p.tuple.ts)

        if consumed:  # what the loop released or installed changed the hop: read it afresh
            hop = self._stream_hop(p.stream_name)
        if self._ship(p, hop, in_face):
            return "forwarded"
        if consumed:
            return "consumed"
        if feed is not None:  # nobody here wants this feed: prune it upstream
            self.counters["prunes_sent"] += 1
            prune = Name(p.stream_name.components[:3] + ("prune", str(p.tuple.ts)))
            self._send(in_face, Interest(name=prune))
        return "dropped"

    def _feed(self, inst: OpInstance, child: Optional[int], slide: Slide, wm: int) -> None:
        """Charge `inst`'s evaluation, feed it `slide` (see `Operator.feed`) and emit its output.

        A tuple older than its window's newest counts `out_of_order`, and an
        evaluation that reads text for a number counts `eval_skipped`.
        """
        op = inst.op
        self.services.charge(self.node_id, op.cost_ms)
        try:
            out = op.feed(child, slide, wm)
        except OutOfOrderTuple:
            self.counters["out_of_order"] += 1
            return
        except UnknownAttribute:
            self.counters["eval_skipped"] += 1
            return
        if out is not None:
            self._emit(inst, *out)

    def _emit(self, inst: OpInstance, slide: Slide, wm: int) -> None:
        if inst.node.parent is None:
            self._notify(inst, slide, wm)
            return
        if inst.parent_host == self.node_id:
            parent = self.instances.get((inst.salted, inst.node.parent))
            if parent is not None:
                self._feed(parent, inst.node.index, slide, wm)
            return
        out = inst.out
        delta = out.delta(slide, wm, slide[0][0].schema_id)
        if self._ship(DataStream(out.name, delta), self._stream_hop(out.name)):
            self.counters["results_shipped"] += 1

    def _ship(self, p: DataStream, hop: _Hop, in_face: Optional[int] = None) -> bool:
        """Send `p` on its routed faces but `in_face`, then fence its /state feed; whether it went.

        `hop` is the `_Hop` of `p`'s name, which keeps the faces per in-face.
        The first delta of a feed sent DEPLOY_TIMEOUT_MS or more after this
        node's latest deploy order for its query sets the feed's fence: a
        prune answering an older delta is stale.
        """
        faces = hop.faces.get(in_face)
        if faces is None:
            faces = hop.faces[in_face] = self._fib_faces(p.stream_name, in_face)
        for f in faces:
            self._send(f, p)
        feed = hop.feed
        if faces and feed is not None and feed not in self._fences:
            held = self._deployed.get(feed[0])
            if held is None or self._now() >= held[1] + DEPLOY_TIMEOUT_MS:
                self._fences[feed] = p.tuple.ts
        return bool(faces)

    def _notify(self, inst: OpInstance, slide: Slide, wm: int) -> None:
        inst.results.take(slide)  # rendered or not, so its texts follow the rows
        entry = self.pit.lookup(inst.unsalted)
        if entry is None or not entry.faces:
            self._release(inst.salted)  # the query was removed: its work here ends
            return
        if wm <= entry.last_result_ts:
            return
        rows = slide[0]
        payload = inst.results.payload(inst.unsalted, wm, rows)
        packet = Data(name=Name(("ce", inst.unsalted, str(wm))), payload=payload, ts=wm)
        for f in sorted(entry.faces):
            self._send(f, packet)
        entry.last_result_ts = wm
        self.cs.insert(inst.unsalted, payload, wm)
        self._event(
            "notification", salted=inst.salted, unsalted=inst.unsalted, ts=wm, rows=len(rows)
        )

    # -- teardown ------------------------------------------------------------

    def _handle_prune(self, feed: tuple[str, int], wm: int, in_face: int) -> None:
        """Stop sending `feed` on `in_face`; with no face left, release its query here."""
        fence = self._fences.get(feed)
        if fence is None or wm < fence:
            self.counters["stale_prunes"] += 1
            return
        prefix = Name(("state", feed[0], str(feed[1])))
        self.fib.remove_route(prefix, in_face)
        if self._fib_faces(prefix):
            return
        del self._fences[feed]
        self._release(feed[0])

    def _release(self, salted: str) -> None:
        """Drop every instance of query `salted` on this node, its feeds and its tree.

        An instance that ships to a remote parent takes its /state route along.
        """
        held = self._deployed.pop(salted, None)
        if held is None:
            return
        for node in held[0].walk():
            key = (salted, node.index)
            inst = self.instances.pop(key, None)
            if inst is None:
                continue
            self.counters["released"] += 1
            self._index_feeds(inst, add=False)
            if inst.out is not None:  # it ships to a remote parent
                self._fences.pop(key, None)
                prefix = Name(inst.out.name.components[:3])
                for f in self._fib_faces(prefix):
                    self.fib.remove_route(prefix, f)

    # -- classic interests and data -----------------------------------------

    def _originate_interest(self, name: Name, pending: _PendingPlan) -> None:
        """Ask for `name` for `pending`; plans asking while `name` is pending share its Interest."""
        self.pit.add_face(name, APP_FACE, self._now())
        entry = self.pit.lookup(name)
        if not entry.waiting:
            for f in self._fib_faces(name, interest=True):
                self._send(f, Interest(name=name))
        entry.waiting += (pending,)

    def _drop_waits(self, pending: _PendingPlan) -> None:
        """Stop `pending` waiting; a name no plan waits on any more loses APP_FACE."""
        for name in pending.awaiting:
            entry = self.pit.lookup(name)
            entry.waiting = tuple(w for w in entry.waiting if w is not pending)
            if not entry.waiting:
                self.pit.remove_face(name, APP_FACE)

    def handle_interest(self, p: Interest, in_face: int) -> str:
        comps = p.name.components
        if len(comps) == 5 and comps[0] == "state" and comps[3] == "prune":
            index, wm = _u64_text(comps[2]), _u64_text(comps[4])
            if index is None or wm is None:
                return "malformed"
            self._handle_prune((comps[1], index), wm, in_face)
            return "consumed"
        if len(comps) == 3 and comps[:2] == ("node", self.node_id) and comps[2] == "delay":
            delay = self.services.local_delay_ms(self.node_id)
            self._send(
                in_face,
                Data(name=p.name, payload=repr(delay).encode("ascii"), ts=self._now()),
            )
            return "consumed"
        if len(comps) == 4 and comps[:2] == ("node", self.node_id) and comps[2] == "deploy":
            try:
                blob = base64.urlsafe_b64decode(comps[3].encode("ascii"))
                doc = json.loads(blob, object_pairs_hook=_unique_keys)
                order = self._read_deploy_order(doc)
            except (ValueError, RecursionError):  # a deeply nested document
                return "malformed"
            self._install_assignment(*order)
            self._send(in_face, Data(name=p.name, payload=b"ok", ts=self._now()))
            return "consumed"
        hit = self.cs.lookup(p.name)
        if hit is not None:
            self._send(in_face, Data(name=p.name, payload=hit.payload, ts=hit.logical_ts))
            return "consumed"
        if self.pit.lookup(p.name) is not None:
            self.pit.add_face(p.name, in_face, self._now())
            return "consumed"
        out_faces = self._fib_faces(p.name, exclude=in_face, interest=True)
        if not out_faces:
            return "dropped"
        self.pit.add_face(p.name, in_face, self._now())
        for f in out_faces:
            self._send(f, p)
        return "forwarded"

    def _cache(self, p: Data) -> None:
        """Keep `p` in the content store unless it acks a deploy order.

        A deploy order is a command: a re-deploy of the same query repeats its
        name, and must reach its target rather than a cached ack.
        """
        comps = p.name.components
        if not (len(comps) == 4 and comps[0] == "node" and comps[2] == "deploy"):
            self.cs.insert(p.name, p.payload, p.ts)

    def handle_data(self, p: Data, in_face: int) -> str:
        comps = p.name.components
        # a result, or a failed plan's nack, follows its query's PIT entry
        if comps[0] == "ce" and len(comps) >= 2 or comps[0] == "nack" and len(comps) == 3:
            entry = self.pit.lookup(comps[1])
            faces = [] if entry is None else [f for f in sorted(entry.faces) if f != in_face]
            for f in faces:
                self._send(f, p)
            if comps[0] == "nack":  # and takes it along: a failed plan leaves no state
                self.pit.remove(comps[1])
            elif entry is not None:
                entry.last_result_ts = max(entry.last_result_ts, p.ts)
            return "forwarded" if faces else "dropped"
        if comps[0] == "nack":
            # surface rejections to the local application
            self._send(APP_FACE, p)
            return "consumed"
        entry = self.pit.lookup(p.name)
        if entry is None:
            return "dropped"  # unsolicited
        self.pit.remove(p.name)
        self._cache(p)
        waiting = entry.waiting  # while plans wait, APP_FACE stands for them
        for f in sorted(entry.faces):
            if f != in_face and not (waiting and f == APP_FACE):
                self._send(f, p)
        for pending in waiting:
            self._reply(pending, p)
        return "consumed" if waiting else "forwarded"
