"""Per-node data plane: packet classification and query coordination.

A node runs one logical event loop. Every packet enters through
`handle_packet(packet, in_face)`; handlers run to completion and never block
on remote responses. A coordinator plans a query in one request/reply loop
of two stages: while the plan is unmade it probes every other broker's
delay, then it sends each host its deploy order. A stage ends with its last
reply (a reply hook keyed on the Interest name) or at its timeout: a silent
broker's delay reads infinite, and a deploy order unacked gives the plan up.
A plan that fails (NoPath) leaves no state, not even its PIT entry, so a
later Add of the query is planned afresh.

Name conventions produced locally:
  /node/<id>/delay            advertised processing + queueing delay
  /node/<id>/deploy/<blob>    operator deployment order (base64url JSON)
  /state/<qhash>/<idx>/out    intermediate result stream between brokers
  /state/<qhash>/<idx>/prune/<wm>
                              asks the upstream hop to stop that stream
  /ce/<qhash>/<ts>            consumer notification
  /nack/<nonce>               rejection of a malformed query

The FIB holds only installed routes: those that deployments install for
stream names and /state/<qhash>/<idx> prefixes, and each producer's route
for its own streams. An Interest for /node/<id>/... that no route matches
goes to the face of the topology's fewest-hop next hop toward <id>, so no
engine keeps a route per node. Streams follow installed routes only, never
a next hop toward their producer. Engines built without a topology route
from their static `fib_routes` alone.

Each engine parses each query text once per run, as NFN resolves a name
once. `_parse` keeps every text that parsed, whether it came in an Add, a
Remove or as a deploy order's canonical key, with its operator tree,
canonical key and real parse time; a poll's Remove+Add pair and every later
deploy of the same query are lookups. A text that fails to parse is parsed
again each time and nacked each time. Memoized trees are shared with
`_trees`, pending plans and operator instances, so nothing changes a tree
after `create_operator_graph` returns. `graph_real_ms` is the time of the
parse that built the entry, on a hit too. The memo holds one entry per
distinct text and lives as long as the run: `Simulator.detach` clears it.

An operator whose parent runs on another broker ships its output on
/state/<qhash>/<idx>/out, once per new result, as a row delta (the
ISTREAM/DSTREAM split of CQL): one tuple (wm, text), where text is
json.dumps of
{"schema": <schema id>, "wm": <watermark>, "first": <index>, "end": <index>,
 "rows": [[value, ...], ...]}.
Every row of a feed has a running index. The output is the rows with indices
first .. end-1; "rows" carries only those the receiver has not had, which
are the last len(rows) of them. The sender compares the new output with the
one it last shipped by row identity: if it is a tail of that output followed
by new rows (a window slide, and what FILTER and a memoized join make of
one), only the new rows ship; otherwise every row ships under fresh indices,
a keyframe. The receiver keeps a mirror of each remote child's output:
it drops the rows before `first`, appends the new rows, each built once
through `Tuple` validation, and evaluates only when the mirror holds exactly
first .. end-1. A /state packet lost at link capacity leaves a gap: the
receiver skips evaluation (counter `state_gaps`) until `first` passes the
missing rows or a keyframe arrives. Row objects so keep their identity from
sender to receiver, and a hash join reuses the joined row it last built for
the same pair of row objects.

Query lifecycle. A RemoveQueryInterest only drops a PIT face; the work is
released where its data next arrives unwanted, as in the prune of
dense-mode multicast:
  - Release at the root. When the root operator, which sits on the
    coordinator, has a result and finds no PIT entry for its query, the
    engine releases every instance of that salted query on this node, with
    its stream and child feeds and its tree.
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
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol

from .operators import (
    Condition,
    EmptyWindow,
    JoinMemo,
    OutOfOrderTuple,
    PredictState,
    WindowState,
    aggregate_eval,
    compile_condition,
    compile_join,
    filter_eval,
    heatmap_eval,
    join_eval,
    predict_eval,
    sequence_eval,
    window_insert,
)
from .packet import (
    AddQueryInterest,
    Data,
    DataStream,
    Interest,
    Name,
    Packet,
    RemoveQueryInterest,
    Tuple,
)
from .placement import NoPath, PlacementPlan, plan_query
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
    "EVAL_COST_MS",
]

APP_FACE = 0
PROBE_TIMEOUT_MS = 200.0
DEPLOY_TIMEOUT_MS = 400.0

# json.dumps with its default settings, without its per-call set-up
_encode_json = json.JSONEncoder().encode

# simulated per-evaluation compute charge, by operator kind
EVAL_COST_MS = {
    "WINDOW": 0.05,
    "FILTER": 0.05,
    "JOIN": 0.2,
    "SEQUENCE": 0.1,
    "SUM": 0.1,
    "MIN": 0.1,
    "MAX": 0.1,
    "AVG": 0.1,
    "COUNT": 0.1,
    "HEATMAP": 40.0,
    "PREDICT": 30.0,
}


def _shared_rows(sent: list, rows: list) -> int:
    """How many leading rows of `rows` are, by identity, a tail of `sent` (else 0)."""
    if rows:
        head = rows[0]
        for k, r in enumerate(sent):
            if r is head:
                tail = sent[k:]
                if len(tail) <= len(rows) and all(map(operator.is_, tail, rows)):
                    return len(tail)
                break
    return 0


@dataclass(frozen=True)
class FaceDef:
    face_id: int
    peer: str


@dataclass
class NodeConfig:
    node_id: str
    role: str  # broker | producer | consumer
    faces: list[FaceDef] = field(default_factory=list)
    streams: dict[str, StreamBinding] = field(default_factory=dict)
    fib_routes: list[tuple[str, int]] = field(default_factory=list)
    mode: str = "centralized"
    topology: object = None  # every node's: brokers plan on it, all route /node/<id> by it


class Services(Protocol):
    """What the engine needs from its host (the simulator or a test double)."""

    def send(self, node_id: str, face_id: int, packet: Packet) -> None: ...

    def now(self) -> int: ...

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None: ...

    def local_delay_ms(self, node_id: str) -> float: ...

    def charge(self, node_id: str, ms: float) -> None: ...

    def event(self, node_id: str, kind: str, payload: dict) -> None: ...


@dataclass
class Mirror:
    """A receiver's copy of a remote child's output: rows[i] has index base + i."""

    base: int = 0
    rows: list = field(default_factory=list)


@dataclass
class OpInstance:
    salted: str
    unsalted: str  # the hash its /ce names carry, its PIT and CS key
    node: OperatorNode
    parent_idx: Optional[int]
    parent_host: Optional[str]
    win_state: Optional[WindowState] = None
    predict_state: Optional[PredictState] = None
    cond: Optional[Condition] = None  # FILTER and JOIN, compiled at install
    left_rows: Optional[list] = None
    left_wm: int = -1
    right_rows: Optional[list] = None
    right_wm: int = -1
    last_emit: int = -1
    join_memo: Optional[JoinMemo] = None  # JOIN, made at install
    # shipping instances: the last output shipped, whose rows keep their ids
    # valid, and one past the index of its last row
    sent_rows: list = field(default_factory=list)
    sent_end: int = 0
    # the mirror of each remote child's output, by child index
    received: dict[int, Mirror] = field(default_factory=dict)


@dataclass
class _PendingPlan:
    token: int
    nonce: str
    key: str
    tree: OperatorNode
    unsalted: str
    salted: str
    mode: str
    t0: int
    graph_real_ms: float
    awaiting: dict[str, str] = field(default_factory=dict)  # uri -> probed or ordered node
    delays: dict[str, float] = field(default_factory=dict)
    plan_real_ms: float = 0.0
    plan: Optional[PlacementPlan] = None


class Engine:
    def __init__(self, config: NodeConfig, services: Services):
        self.config = config
        self.node_id = config.node_id
        self.role = config.role
        self.services = services

        self.cs = ContentStore()
        self.pit = PendingInterestTable()
        self.fib = ForwardingInformationBase()
        self.faces: dict[int, FaceDef] = {APP_FACE: FaceDef(APP_FACE, "app")}
        self._face_of_peer: dict[str, int] = {}
        for fd in config.faces:
            self.faces[fd.face_id] = fd
            self._face_of_peer[fd.peer] = fd.face_id
        for prefix, face_id in config.fib_routes:
            self.fib.add_route(Name.from_uri(prefix), face_id)

        self.instances: dict[tuple[str, int], OpInstance] = {}
        self._known_streams = {b.name.to_uri() for b in config.streams.values()}
        self._stream_feeds: dict[str, list[tuple[str, int]]] = {}
        self._child_feeds: dict[tuple[str, int], tuple[str, int]] = {}
        self._trees: dict[str, OperatorNode] = {}  # salted hash -> local parse
        # query text -> (tree, canonical key, real parse ms); see _parse
        self._parsed: dict[str, tuple[OperatorNode, str, float]] = {}
        self.high_water: dict[str, int] = {}  # stream uri -> newest tuple ts
        # Interest uri -> tokens of the plans waiting on its reply, in order
        self._reply_hooks: dict[str, list[int]] = {}
        self._deployed: dict[str, int] = {}  # salted hash -> time of its latest deploy here
        self._fences: dict[tuple[str, int], int] = {}  # /state feed sent or forwarded -> fence wm
        self._pending: dict[int, _PendingPlan] = {}
        self._next_token = 1
        self.counters: dict[str, int] = {}

    # -- small helpers ------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _send(self, face_id: int, packet: Packet) -> None:
        self._bump("sent")
        self.services.send(self.node_id, face_id, packet)

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
        if entry is None and interest and topo and comps[0] == "node" and len(comps) > 1:
            faces = [self._face_of_peer.get(topo.next_hop(self.node_id, comps[1]))]
        return sorted(f for f in faces if f not in (exclude, APP_FACE, None))

    def _flood_faces(self, exclude: int) -> list[int]:
        return sorted(
            f for f in self.faces if f not in (APP_FACE, exclude)
        )

    def _parse(self, text: str) -> tuple[OperatorNode, str, float]:
        """`text`'s operator tree, canonical key and real parse ms, parsed once.

        The tree is shared by every user of `text` and must not change. A
        text that does not parse raises QueryError each time and is not kept.
        """
        parsed = self._parsed.get(text)
        if parsed is None:
            started = time.perf_counter()
            tree = create_operator_graph(text, self.config.streams or None)
            parse_ms = (time.perf_counter() - started) * 1000.0
            parsed = self._parsed[text] = (tree, canonical_text(tree), parse_ms)
        return parsed

    # -- dispatch -----------------------------------------------------------

    def handle_packet(self, packet: Packet, in_face: int) -> None:
        self._bump("received")
        if isinstance(packet, AddQueryInterest):
            self.handle_add_query_interest(packet, in_face)
        elif isinstance(packet, RemoveQueryInterest):
            self.handle_remove_query_interest(packet, in_face)
        elif isinstance(packet, DataStream):
            self.handle_data_stream(packet, in_face)
        elif isinstance(packet, Interest):
            self.handle_interest(packet, in_face)
        elif isinstance(packet, Data):
            self.handle_data(packet, in_face)
        else:
            self._bump("dropped")

    # -- query interests ----------------------------------------------------

    def handle_add_query_interest(self, p: AddQueryInterest, in_face: int) -> None:
        try:
            tree, key, graph_real_ms = self._parse(p.query)
        except QueryError as err:
            nack = Data(
                name=Name(("nack", p.nonce)),
                payload=str(err).encode("utf-8"),
                ts=self._now(),
            )
            self._bump("nacks")
            self._bump("consumed")
            self._send(in_face, nack)
            return
        unsalted = query_hash(key)

        # (a) fresh content store hit answers immediately, no state change
        min_ts = 0
        for alias in tree.stream_aliases():
            binding = self.config.streams.get(alias)
            if binding is not None:
                min_ts = max(min_ts, self.high_water.get(binding.name.to_uri(), 0))
        hit = self.cs.lookup(unsalted, min_ts=min_ts)
        if hit is not None:
            reply = Data(
                name=Name(("ce", unsalted, str(hit.logical_ts))),
                payload=hit.payload,
                ts=hit.logical_ts,
            )
            self._bump("cs_replies")
            self._bump("consumed")
            self._send(in_face, reply)
            return

        # (b) already pending: record the extra face and stop
        if self.pit.lookup(unsalted) is not None:
            self.pit.add_face(unsalted, in_face, self._now())
            self._bump("consumed")
            return

        # (c) take the query: brokers coordinate it, endpoints forward it
        self.pit.add_face(unsalted, in_face, self._now())
        if self.role == "broker":
            self._bump("consumed")
            self._coordinate(p.nonce, key, tree, unsalted, graph_real_ms)
        else:
            flood = self._flood_faces(exclude=in_face)
            for f in flood:
                self._send(f, p)
            self._bump("forwarded" if flood else "consumed")

    def handle_remove_query_interest(self, p: RemoveQueryInterest, in_face: int) -> None:
        try:
            unsalted = query_hash(self._parse(p.query)[1])
        except QueryError:
            self._bump("dropped")
            return
        if self.pit.lookup(unsalted) is None:
            self._bump("dropped")
            return
        self.pit.remove_face(unsalted, in_face)
        flood = self._flood_faces(exclude=in_face)
        for f in flood:
            self._send(f, p)
        self._bump("forwarded" if flood else "consumed")

    # -- coordination -------------------------------------------------------

    def _coordinate(
        self, nonce: str, key: str, tree: OperatorNode, unsalted: str, graph_real_ms: float
    ) -> None:
        salted = query_hash(key, salt=self.node_id)
        token = self._next_token
        self._next_token += 1
        pending = _PendingPlan(
            token=token,
            nonce=nonce,
            key=key,
            tree=tree,
            unsalted=unsalted,
            salted=salted,
            mode=self.config.mode,
            t0=self._now(),
            graph_real_ms=graph_real_ms,
        )
        self._pending[token] = pending
        self._event(
            "query_accepted",
            nonce=nonce,
            key=key,
            unsalted=unsalted,
            salted=salted,
            t0=pending.t0,
            graph_real_ms=graph_real_ms,
            mode=pending.mode,
        )
        # a distributed plan probes every other broker's delay; others are planned at once
        probes = {}
        if pending.mode != "centralized" and self.config.topology is not None:
            pending.delays[self.node_id] = self.services.local_delay_ms(self.node_id)
            brokers = self.config.topology.broker_ids()
            probes = {Name(("node", b, "delay")): b for b in brokers if b != self.node_id}
        self._request(pending, probes, PROBE_TIMEOUT_MS)

    def _request(self, pending: _PendingPlan, names: dict[Name, str], timeout_ms: float) -> None:
        """Ask `names` for `pending`'s stage; it ends with its last reply or at `timeout_ms`."""
        for name, node in names.items():
            pending.awaiting[name.to_uri()] = node
            self._originate_interest(name, pending.token)
        if not pending.awaiting:
            self._next_stage(pending)
            return
        token, plan = pending.token, pending.plan
        self.services.schedule(timeout_ms, lambda: self._timeout(token, plan))

    def _reply(self, token: int, data: Data) -> None:
        """Record plan `token`'s reply `data`; the stage's last reply ends it."""
        pending = self._pending[token]
        node = pending.awaiting.pop(data.name.to_uri())
        if pending.plan is None:  # a probe's reply: the node's advertised delay
            try:
                pending.delays[node] = float(data.payload.decode("utf-8"))
            except ValueError:
                pending.delays[node] = float("inf")
        if not pending.awaiting:
            self._next_stage(pending)

    def _timeout(self, token: int, plan: Optional[PlacementPlan]) -> None:
        """Stop plan `token`'s stage begun with `plan` from waiting, unless it is over."""
        pending = self._pending.get(token)
        if pending is None or pending.plan is not plan:
            return
        self._drop_hooks(token, pending.awaiting)
        if plan is None:
            for broker in pending.awaiting.values():
                pending.delays[broker] = float("inf")
            pending.awaiting.clear()
            self._plan_and_deploy(pending)
            return
        del self._pending[token]
        self._event(
            "deploy_timeout", nonce=pending.nonce, missing=sorted(pending.awaiting.values())
        )

    def _next_stage(self, pending: _PendingPlan) -> None:
        """Plan `pending` once probed; once its deploy orders are acked, report it deployed."""
        if pending.plan is None:
            self._plan_and_deploy(pending)
            return
        del self._pending[pending.token]
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
            mode=pending.mode,
            assignments={str(i): h for i, h in sorted(plan.assignments.items())},
            path=list(plan.path),
            pinned=sorted(plan.pinned),
        )

    def _plan_and_deploy(self, pending: _PendingPlan) -> None:
        delays = pending.delays  # empty unless the brokers were probed
        started = time.perf_counter()
        try:
            plan = plan_query(
                pending.tree,
                self.node_id,
                pending.mode if delays else "centralized",
                self.config.topology,
                self.config.streams,
                probe=delays.__getitem__ if delays else None,
            )
        except NoPath as err:
            # nothing was installed: a later Add of the query is planned afresh
            del self._pending[pending.token]
            self.pit.remove(pending.unsalted)
            self._event("plan_failed", nonce=pending.nonce, reason=str(err))
            return
        pending.plan_real_ms = (time.perf_counter() - started) * 1000.0
        if pending.mode == "centralized":
            pending.plan_real_ms = 0.0
        pending.plan = plan

        orders = self._deployment_orders(pending, plan)
        self._trees.setdefault(pending.salted, pending.tree)
        self._install_assignment(
            pending.salted,
            pending.unsalted,
            pending.key,
            plan.assignments,
            orders.pop(self.node_id, {}).get("routes", []),
        )
        deploys = {}
        for target, doc in sorted(orders.items()):
            blob = base64.urlsafe_b64encode(
                json.dumps(doc, sort_keys=True).encode("utf-8")
            ).decode("ascii")
            deploys[Name(("node", target, "deploy", blob))] = target
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
                binding = self.config.streams.get(node.stream_alias)
                if binding is None:
                    continue
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

    def _install_deploy_blob(self, blob: str) -> None:
        doc = json.loads(base64.urlsafe_b64decode(blob.encode("ascii")))
        assignments = {int(i): h for i, h in doc["assign"].items()}
        self._install_assignment(
            doc["salted"],
            doc["unsalted"],
            doc["q"],
            assignments,
            [tuple(r) for r in doc.get("routes", [])],
        )

    def _install_assignment(
        self,
        salted: str,
        unsalted: str,
        key: str,
        assignments: dict[int, str],
        routes: list[tuple[str, str]],
    ) -> None:
        for prefix, next_hop in routes:
            face = self._face_of_peer.get(next_hop)
            if face is not None:
                self.fib.add_route(Name.from_uri(prefix), face)
        tree = self._trees.get(salted)
        if tree is None:
            tree = self._trees[salted] = self._parse(key)[0]
        self._deployed[salted] = self._now()
        parent_of: dict[int, Optional[int]] = {tree.index: None}
        for node in tree.walk():
            self._fences.pop((salted, node.index), None)
            for child in node.children:
                parent_of[child.index] = node.index
        by_index = {node.index: node for node in tree.walk()}
        for idx, host in assignments.items():
            if host != self.node_id:
                continue
            existing = self.instances.get((salted, idx))
            if existing is not None:
                existing.sent_rows = []  # its parent may be new: ship a keyframe next
                continue
            node = by_index[idx]
            pidx = parent_of[idx]
            inst = OpInstance(
                salted=salted,
                unsalted=unsalted,
                node=node,
                parent_idx=pidx,
                parent_host=assignments[pidx] if pidx is not None else None,
            )
            if node.kind == "WINDOW":
                inst.win_state = WindowState((), node.params[1])
                binding = self.config.streams.get(node.stream_alias)
                if binding is not None:
                    self._stream_feeds.setdefault(binding.name.to_uri(), []).append(
                        (salted, idx)
                    )
            elif node.kind == "FILTER":
                inst.cond = compile_condition(node.params[0], node.left.ctx)
            elif node.kind == "JOIN":
                inst.cond = compile_join(node.params[0], node.left.ctx, node.right.ctx)
                inst.join_memo = JoinMemo()
            elif node.kind == "PREDICT":
                inst.predict_state = PredictState()
            self.instances[(salted, idx)] = inst
            for child in node.children:
                self._child_feeds[(salted, child.index)] = (salted, idx)

    # -- data streams and evaluation ----------------------------------------

    def handle_data_stream(self, p: DataStream, in_face: int) -> None:
        uri = p.stream_name.to_uri()
        comps = p.stream_name.components
        consumed = False
        feed = None  # (salted hash, index) of a /state delta
        if uri in self._known_streams:
            self.high_water[uri] = max(self.high_water.get(uri, 0), p.tuple.ts)

        feeds = self._stream_feeds.get(uri, ())
        if feeds:
            for inst_key in list(feeds):
                inst = self.instances.get(inst_key)
                if inst is None:  # released by a result this tuple gave a self-join
                    continue
                entry = self.pit.lookup(inst.unsalted)
                if entry is not None and p.tuple.ts <= entry.last_result_ts:
                    self._bump("out_of_order")
                    continue  # already folded into a delivered result
                self._feed_window(inst, p.tuple)
            consumed = True
        elif len(comps) == 4 and comps[0] == "state" and comps[3] == "out":
            feed = (comps[1], int(comps[2]))
            parent_key = self._child_feeds.get(feed)
            if parent_key is not None:
                parent = self.instances.get(parent_key)
                if parent is not None:
                    fed = self._decode_snapshot(p.tuple, parent, feed[1])
                    if fed is not None:
                        self._feed_child_output(parent, feed[1], *fed)
                    consumed = True

        out_faces = self._fib_faces(p.stream_name, exclude=in_face)
        for f in out_faces:
            self._send(f, p)
        if out_faces:
            self._bump("forwarded")
            if feed is not None:
                self._fence(feed, p.tuple.ts)
        elif consumed:
            self._bump("consumed")
        else:
            self._bump("dropped")
            if feed is not None:  # nobody here wants this feed: prune it upstream
                self._bump("prunes_sent")
                prune = Name(("state", comps[1], comps[2], "prune", str(p.tuple.ts)))
                self._send(in_face, Interest(name=prune))

    def _feed_window(self, inst: OpInstance, t: Tuple) -> None:
        self.services.charge(self.node_id, EVAL_COST_MS["WINDOW"])
        try:
            inst.win_state, _evicted = window_insert(inst.win_state, t)
        except OutOfOrderTuple:
            self._bump("out_of_order")
            return
        rows = list(inst.win_state.buffer)
        self._emit(inst, rows, rows[-1].ts)

    def _decode_snapshot(
        self, t: Tuple, inst: OpInstance, child_idx: int
    ) -> Optional[tuple[list[Tuple], int]]:
        """Apply a /state delta from child `child_idx` of `inst` to its mirror.

        Returns a fresh list of the child's output rows and the watermark, or
        None while a lost packet leaves the mirror short of first .. end-1.
        A malformed document raises ValueError and leaves the mirror as it was.
        """
        try:
            doc = json.loads(t.values[1])
            schema, wm = doc["schema"], int(doc["wm"])
            first, end, raw = doc["first"], doc["end"], doc["rows"]
            if not (
                type(first) is int
                and type(end) is int
                and type(raw) is list
                and len(raw) <= end - first
            ):
                raise ValueError("delta rows do not fit [first, end)")
            new = [Tuple(ts=int(r[0]), schema_id=schema, values=tuple(r)) for r in raw]
        except (KeyError, IndexError, TypeError, OverflowError) as err:
            raise ValueError("malformed /state delta: %r" % (err,)) from err
        mirror = inst.received.setdefault(child_idx, Mirror())
        start = end - len(new)
        if mirror.base + len(mirror.rows) == start:
            mirror.rows += new
        else:  # rows went missing: keep only what this packet brings
            mirror.base, mirror.rows = start, new
        if first > mirror.base:
            del mirror.rows[: first - mirror.base]
            mirror.base = first
        if mirror.base != first:
            self._bump("state_gaps")
            return None
        # a copy: row ids held downstream stay valid only while the rows live
        return list(mirror.rows), wm

    def _encode_snapshot(
        self, inst: OpInstance, rows: list[Tuple], wm: int, schema: str
    ) -> Tuple:
        """The /state delta that turns the output `inst` last shipped into `rows`."""
        kept = _shared_rows(inst.sent_rows, rows)
        end = inst.sent_end + len(rows) - kept
        doc = _encode_json(
            {
                "schema": schema,
                "wm": wm,
                "first": end - len(rows),
                "end": end,
                "rows": [r.values for r in rows[kept:]],
            }
        )
        inst.sent_rows, inst.sent_end = rows, end
        return Tuple(ts=wm, schema_id="snapshot", values=(wm, doc))

    def _emit(self, inst: OpInstance, rows: list[Tuple], wm: int) -> None:
        if not rows or wm <= inst.last_emit:
            return
        inst.last_emit = wm
        if inst.parent_idx is None:
            self._notify(inst, rows, wm)
            return
        if inst.parent_host == self.node_id:
            parent = self.instances.get((inst.salted, inst.parent_idx))
            if parent is not None:
                self._feed_child_output(parent, inst.node.index, rows, wm)
            return
        schema = rows[0].schema_id
        name = Name(("state", inst.salted, str(inst.node.index), "out"))
        packet = DataStream(
            stream_name=name, tuple=self._encode_snapshot(inst, rows, wm, schema)
        )
        faces = self._fib_faces(name)
        for f in faces:
            self._send(f, packet)
        if faces:
            self._bump("results_shipped")
            self._fence((inst.salted, inst.node.index), wm)

    def _feed_child_output(
        self, inst: OpInstance, child_idx: int, rows: list[Tuple], wm: int
    ) -> None:
        node = inst.node
        self.services.charge(self.node_id, EVAL_COST_MS.get(node.kind, 0.1))
        if node.kind in ("JOIN", "SEQUENCE"):
            if node.left is not None and child_idx == node.left.index:
                inst.left_rows, inst.left_wm = rows, wm
            else:
                inst.right_rows, inst.right_wm = rows, wm
            if inst.left_rows is None or inst.right_rows is None:
                return
            out_wm = min(inst.left_wm, inst.right_wm)
            if out_wm <= inst.last_emit:
                return  # _emit would drop the result
            if node.kind == "JOIN":
                out = join_eval(
                    inst.left_rows,
                    inst.right_rows,
                    inst.cond,
                    node.left.ctx,
                    node.right.ctx,
                    inst.join_memo,
                )
            else:
                out = [sequence_eval(inst.left_rows, inst.right_rows)]
            self._emit(inst, out, out_wm)
            return
        if node.kind == "FILTER":
            out = filter_eval(rows, inst.cond, node.left.ctx)
            self._emit(inst, out, wm)
            return
        if node.kind in ("SUM", "MIN", "MAX", "AVG", "COUNT"):
            try:
                out = [aggregate_eval(node.kind, node.params[0], rows, node.left.ctx)]
            except EmptyWindow:
                return
            self._emit(inst, out, wm)
            return
        if node.kind == "HEATMAP":
            cell, lat_min, lat_max, long_min, long_max = node.params[:5]
            grid = heatmap_eval(
                rows, cell, (lat_min, lat_max, long_min, long_max), node.left.ctx
            )
            payload = json.dumps({"grid": grid.grid, "skipped": grid.skipped})
            out = [Tuple(ts=wm, schema_id="grid", values=(wm, payload))]
            self._emit(inst, out, wm)
            return
        if node.kind == "PREDICT":
            slot = node.left.params[1] if node.left is not None else None
            inst.predict_state, pred = predict_eval(
                rows, node.params[0], inst.predict_state, slot
            )
            if pred is None:
                return
            out = [
                Tuple.from_values(
                    "prediction",
                    (pred.ts, pred.plug_id, pred.household_id, pred.house_id, pred.predicted_load),
                )
            ]
            self._emit(inst, out, pred.ts)
            return
        # unknown kinds pass their input through unchanged
        self._emit(inst, rows, wm)

    def _notify(self, inst: OpInstance, rows: list[Tuple], wm: int) -> None:
        entry = self.pit.lookup(inst.unsalted)
        if entry is None or not entry.faces:
            self._release(inst.salted)  # the query was removed: its work here ends
            return
        if wm <= entry.last_result_ts:
            return
        payload = _encode_json(
            {
                "hash": inst.unsalted,
                "ts": wm,
                "schema": rows[0].schema_id,
                "rows": [r.values for r in rows],
            }
        ).encode("utf-8")
        packet = Data(name=Name(("ce", inst.unsalted, str(wm))), payload=payload, ts=wm)
        for f in sorted(entry.faces):
            self._send(f, packet)
        entry.last_result_ts = wm
        self.cs.insert(inst.unsalted, payload, wm)
        self._event(
            "notification", salted=inst.salted, unsalted=inst.unsalted, ts=wm, rows=len(rows)
        )

    # -- teardown ------------------------------------------------------------

    def _fence(self, feed: tuple[str, int], wm: int) -> None:
        """Note a delta sent or forwarded on `feed`.

        The first one sent DEPLOY_TIMEOUT_MS or more after this node's latest
        deploy order for its query sets the feed's fence: a prune answering an
        older delta is stale.
        """
        if feed not in self._fences:
            since = self._deployed.get(feed[0])
            if since is None or self._now() >= since + DEPLOY_TIMEOUT_MS:
                self._fences[feed] = wm

    def _handle_prune(self, feed: tuple[str, int], wm: int, in_face: int) -> None:
        """Stop sending `feed` on `in_face`; with no face left, release its query here."""
        fence = self._fences.get(feed)
        if fence is None or wm < fence:
            self._bump("stale_prunes")
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
        tree = self._trees.pop(salted, None)
        self._deployed.pop(salted, None)
        if tree is None:
            return
        for node in tree.walk():
            key = (salted, node.index)
            self._child_feeds.pop(key, None)
            inst = self.instances.pop(key, None)
            if inst is None:
                continue
            self._bump("released")
            binding = self.config.streams.get(node.stream_alias) if node.kind == "WINDOW" else None
            if binding is not None:
                uri = binding.name.to_uri()
                feeds = self._stream_feeds[uri]
                feeds.remove(key)
                if not feeds:
                    del self._stream_feeds[uri]
            if inst.parent_host not in (None, self.node_id):
                self._fences.pop(key, None)
                prefix = Name(("state", salted, str(node.index)))
                for f in self._fib_faces(prefix):
                    self.fib.remove_route(prefix, f)

    # -- classic interests and data -----------------------------------------

    def _originate_interest(self, name: Name, token: int) -> None:
        """Ask for `name` for plan `token`; while `name` is pending, share its Interest."""
        tokens = self._reply_hooks.setdefault(name.to_uri(), [])
        tokens.append(token)
        if len(tokens) == 1:
            self.pit.add_face(name, APP_FACE, self._now())
            for f in self._fib_faces(name, interest=True):
                self._send(f, Interest(name=name))

    def _drop_hooks(self, token: int, uris: Iterable[str]) -> None:
        """Stop plan `token` waiting on `uris`; a name left unwaited leaves the PIT."""
        for uri in uris:
            tokens = self._reply_hooks.get(uri, [])
            if token in tokens:
                tokens.remove(token)
            if not tokens:
                self._reply_hooks.pop(uri, None)
                self.pit.remove_face(Name.from_uri(uri), APP_FACE)

    def handle_interest(self, p: Interest, in_face: int) -> None:
        comps = p.name.components
        if len(comps) == 5 and comps[0] == "state" and comps[3] == "prune":
            self._bump("consumed")
            self._handle_prune((comps[1], int(comps[2])), int(comps[4]), in_face)
            return
        if len(comps) == 3 and comps[:2] == ("node", self.node_id) and comps[2] == "delay":
            delay = self.services.local_delay_ms(self.node_id)
            self._bump("consumed")
            self._send(
                in_face,
                Data(name=p.name, payload=repr(delay).encode("ascii"), ts=self._now()),
            )
            return
        if len(comps) == 4 and comps[:2] == ("node", self.node_id) and comps[2] == "deploy":
            self._install_deploy_blob(comps[3])
            self._bump("consumed")
            self._send(in_face, Data(name=p.name, payload=b"ok", ts=self._now()))
            return
        hit = self.cs.lookup(p.name)
        if hit is not None:
            self._bump("consumed")
            self._send(in_face, Data(name=p.name, payload=hit.payload, ts=hit.logical_ts))
            return
        if self.pit.lookup(p.name) is not None:
            self.pit.add_face(p.name, in_face, self._now())
            self._bump("consumed")
            return
        out_faces = self._fib_faces(p.name, exclude=in_face, interest=True)
        if not out_faces:
            self._bump("dropped")
            return
        self.pit.add_face(p.name, in_face, self._now())
        self._bump("forwarded")
        for f in out_faces:
            self._send(f, p)

    def _cache(self, p: Data) -> None:
        """Keep `p` in the content store unless it acks a deploy order.

        A deploy order is a command: a re-deploy of the same query repeats its
        name, and must reach its target rather than a cached ack.
        """
        comps = p.name.components
        if not (len(comps) == 4 and comps[0] == "node" and comps[2] == "deploy"):
            self.cs.insert(p.name, p.payload, p.ts)

    def handle_data(self, p: Data, in_face: int) -> None:
        uri = p.name.to_uri()
        tokens = self._reply_hooks.pop(uri, None)
        if tokens is not None:
            # other nodes' Interests aggregated on this node's own get the Data too
            entry = self.pit.lookup(p.name)
            for f in sorted(entry.faces) if entry is not None else ():
                if f not in (APP_FACE, in_face):
                    self._send(f, p)
            self.pit.remove(p.name)
            self._cache(p)
            self._bump("consumed")
            for token in tokens:
                self._reply(token, p)
            return
        comps = p.name.components
        if comps and comps[0] == "ce" and len(comps) >= 2:
            entry = self.pit.lookup(comps[1])
            faces = [] if entry is None else [f for f in sorted(entry.faces) if f != in_face]
            for f in faces:
                self._send(f, p)
            if entry is not None:
                entry.last_result_ts = max(entry.last_result_ts, p.ts)
            self._bump("forwarded" if faces else "dropped")
            return
        if comps and comps[0] == "nack":
            # surface rejections to the local application
            self._bump("consumed")
            self._send(APP_FACE, p)
            return
        entry = self.pit.lookup(p.name)
        if entry is None:
            self._bump("dropped")  # unsolicited
            return
        faces = sorted(entry.faces)
        self.pit.remove(p.name)
        self._cache(p)
        for f in faces:
            if f != in_face:
                self._send(f, p)
        self._bump("forwarded")
