"""Deterministic multi-node simulation harness.

Builds a broker overlay from a line-oriented topology file, wires one engine
per node, replays CSV datasets as timed DataStream injections, and drives
everything from a (time, seq) event heap. Every packet send, receive, drop,
and engine event lands in an ordered trace whose hash is the determinism
contract: same scenario, same trace bytes.

Times are logical milliseconds. Node handlers run serially per node: a
packet's processing starts when the node is idle, and its outputs leave at
start + processing delay + any compute charged during evaluation. Real
(wall-clock) parse and planning times are kept out of the trace and surface
only in the metrics, marked as real in the CSV header.

A handler that finds its node busy, or others already waiting there, joins
the back of the node's first-come-first-served line. Each line has one heap
entry, at the node's busy_until, that serves it while the node is idle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappop, heappush
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from .engine import APP_FACE, Engine, NodeConfig
from .packet import (
    AddQueryInterest,
    Data,
    DataStream,
    Interest,
    Packet,
    RemoveQueryInterest,
    Tuple,
    is_prefix_of,
)
from .placement import NoPath
from .query import (
    STREAM_SCHEMAS,
    Name,
    OperatorNode,
    StreamBinding,
    canonical_text,
    create_operator_graph,
    query_hash,
)

__all__ = [
    "ConfigError",
    "SchemaMismatch",
    "TopologyConfig",
    "ScenarioSpec",
    "StreamDef",
    "QueryDef",
    "QueryMetrics",
    "Metrics",
    "Trace",
    "load_topology",
    "load_scenario",
    "override_scenario",
    "replay_dataset",
    "run_scenario",
    "emit_metrics",
    "generate_gps_csv",
    "generate_plug_csv",
    "data_path",
    "valid_rate",
]

DEFAULT_LINK_CAPACITY = 64
SEAL_LINES = 4096  # open trace lines at which the event loop seals a chunk


class ConfigError(Exception):
    """Bad topology or scenario input; message carries a line diagnostic."""


class SchemaMismatch(Exception):
    """Dataset file missing or its header disagrees with the declared schema."""


# ---------------------------------------------------------------------------
# topology


@dataclass(frozen=True)
class TopoNode:
    node_id: str
    role: str
    proc_delay_ms: float


@dataclass(frozen=True)
class TopoLink:
    a: str
    b: str
    delay_ms: float
    capacity: int = DEFAULT_LINK_CAPACITY


@dataclass
class TopologyConfig:
    """The overlay graph and every fact derived from it.

    `__post_init__` builds, once, the sorted adjacency, the link of each
    ordered node pair (the last of duplicate links wins) and the sorted broker
    list. A source's breadth-first parent map, which visits neighbours in
    sorted order so that fewest-hop ties go to the smallest ids, is built on
    the first `hop_path` beyond a neighbour from that source and kept;
    `next_hop` is the second node of `hop_path`. Interest forwarding toward
    /node/<id> names, deployment routes, ingress brokers, planning corridors
    and paths and the connectivity check all read these, so `nodes` and
    `link_list` must not change after construction.
    """

    name: str
    nodes: dict[str, TopoNode]
    link_list: list[TopoLink]

    def __post_init__(self):
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        self.link_by_pair: dict[tuple[str, str], TopoLink] = {}
        for l in self.link_list:
            adj.setdefault(l.a, set()).add(l.b)
            adj.setdefault(l.b, set()).add(l.a)
            self.link_by_pair[(l.a, l.b)] = l
            self.link_by_pair[(l.b, l.a)] = l
        self._adj = {n: sorted(peers) for n, peers in adj.items()}
        self._brokers = sorted(n.node_id for n in self.nodes.values() if n.role == "broker")
        self._parents: dict[str, dict[str, Optional[str]]] = {}  # by source, on demand

    def _bfs(self, src: str) -> dict[str, Optional[str]]:
        parents = self._parents.get(src)
        if parents is None and src in self._adj:
            parents = self._parents[src] = {src: None}
            order = [src]
            for n in order:  # grows while it is walked: a FIFO queue
                for peer in self._adj[n]:
                    if peer not in parents:
                        parents[peer] = n
                        order.append(peer)
        return parents or {}

    def broker_ids(self) -> list[str]:
        return list(self._brokers)

    def node_delay(self, node_id: str) -> float:
        return self.nodes[node_id].proc_delay_ms

    def neighbors(self, node_id: str) -> list[str]:
        return list(self._adj.get(node_id, ()))

    def next_hop(self, src: str, dst: str) -> Optional[str]:
        """First node after `src` on its fewest-hop path to `dst`, if any."""
        if src == dst:
            return None
        try:
            return self.hop_path(src, dst)[1]
        except NoPath:
            return None

    def hop_path(self, src: str, dst: str) -> list[str]:
        """Fewest-hop node path from `src` to `dst`, both ends included."""
        if src == dst:
            return [src]
        if dst in self._adj.get(src, ()):  # a neighbour: no search
            return [src, dst]
        parents = self._bfs(src)
        if dst not in parents:
            raise NoPath("%s cannot reach %s" % (src, dst))
        path = [dst]
        while path[-1] != src:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def ingress_broker(self, node_id: str) -> Optional[str]:
        """The broker nearest `node_id`, if any: fewest hops, then smallest id.

        A broker is its own ingress broker.
        """
        ring = [node_id] if node_id in self._adj else []
        seen = set(ring)
        while ring:
            brokers = [n for n in ring if self.nodes[n].role == "broker"]
            if brokers:
                return min(brokers)
            ring = {p for n in ring for p in self._adj[n]} - seen
            seen |= ring
        return None


def data_path(filename: str) -> Path:
    """Resolve a file shipped in the package data directory."""
    root = resources.files("icncep").joinpath("data")
    for sub in ("topologies", "scenarios", "datasets"):
        candidate = root.joinpath(sub, filename)
        if candidate.is_file():
            return Path(str(candidate))
    return Path(str(root.joinpath(filename)))


def _preset_path(path: str, suffix: str) -> Path:
    """`path` if it exists, else the shipped preset a bare name stands for.

    The name may carry `suffix` or leave it off.
    """
    src = Path(path)
    if not src.exists() and "/" not in path:
        src = data_path(path if path.endswith(suffix) else path + suffix)
    return src


def _delay_ms(text: str, lineno: int) -> float:
    """The delay a topology line gives as `text`: a finite number >= 0."""
    try:
        d = float(text)
    except ValueError:
        raise ConfigError("line %d: bad delay %r" % (lineno, text))
    if not math.isfinite(d):
        raise ConfigError("line %d: delay %r is not finite" % (lineno, text))
    if d < 0:
        raise ConfigError("line %d: negative delay" % lineno)
    return d


def load_topology(path: str) -> TopologyConfig:
    """Parse a topology file; bare preset names resolve to shipped files."""
    src = _preset_path(path, ".topo")
    if not src.exists():
        raise ConfigError("topology not found: %s" % path)

    nodes: dict[str, TopoNode] = {}
    links: list[TopoLink] = []
    for lineno, raw in enumerate(src.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 4:
                raise ConfigError("line %d: node takes <id> <role> <delay_ms>" % lineno)
            _, nid, role, delay = parts
            if role not in ("producer", "broker", "consumer"):
                raise ConfigError("line %d: unknown role %r" % (lineno, role))
            if nid in nodes:
                raise ConfigError("line %d: duplicate node %r" % (lineno, nid))
            nodes[nid] = TopoNode(nid, role, _delay_ms(delay, lineno))
        elif parts[0] == "link":
            if len(parts) not in (4, 5):
                raise ConfigError(
                    "line %d: link takes <a> <b> <delay_ms> [capacity]" % lineno
                )
            a, b, delay = parts[1], parts[2], parts[3]
            for end in (a, b):
                if end not in nodes:
                    raise ConfigError("line %d: unknown endpoint %r" % (lineno, end))
            d = _delay_ms(delay, lineno)
            cap = DEFAULT_LINK_CAPACITY
            if len(parts) == 5:
                try:
                    cap = int(parts[4])
                except ValueError:
                    raise ConfigError("line %d: bad capacity %r" % (lineno, parts[4]))
                if cap < 1:
                    raise ConfigError("line %d: capacity must be positive" % lineno)
            links.append(TopoLink(a, b, d, cap))
        else:
            raise ConfigError("line %d: unknown directive %r" % (lineno, parts[0]))

    if not nodes:
        raise ConfigError("topology %s defines no nodes" % path)
    topo = TopologyConfig(name=src.stem, nodes=nodes, link_list=links)
    _check_connected(topo, path)
    return topo


def _check_connected(topo: TopologyConfig, origin: str) -> None:
    ids = sorted(topo.nodes)
    missing = [n for n in ids[1:] if topo.next_hop(ids[0], n) is None]
    if missing:
        raise ConfigError("%s: disconnected nodes %s" % (origin, ",".join(missing)))


# ---------------------------------------------------------------------------
# scenario


def valid_rate(rate: float) -> bool:
    """Whether `rate`, a stream's replay speed-up, is a finite number > 0."""
    return rate > 0 and math.isfinite(rate)


@dataclass(frozen=True)
class StreamDef:
    alias: str
    uri: str
    schema: str
    csv_path: str
    rate: float = 1.0


@dataclass(frozen=True)
class QueryDef:
    query_id: str
    consumer: str
    start_ms: int
    stop_ms: Optional[int]
    mode: str
    text: str
    poll_ms: Optional[int] = None


@dataclass
class ScenarioSpec:
    topology: TopologyConfig
    streams: list[StreamDef]
    queries: list[QueryDef]

    def bindings(self) -> dict[str, StreamBinding]:
        return {
            s.alias: StreamBinding(s.alias, Name.from_uri(s.uri), STREAM_SCHEMAS[s.schema])
            for s in self.streams
        }


def load_scenario(path: str) -> ScenarioSpec:
    src = _preset_path(path, ".scn")
    if not src.exists():
        raise ConfigError("scenario not found: %s" % path)

    topology: Optional[TopologyConfig] = None
    streams: list[StreamDef] = []
    queries: list[QueryDef] = []
    base = src.parent

    for lineno, raw in enumerate(src.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "topology":
            if len(parts) != 2:
                raise ConfigError("line %d: topology takes one name or path" % lineno)
            candidate = base / parts[1]
            topology = load_topology(str(candidate) if candidate.exists() else parts[1])
        elif parts[0] == "seed":  # checked, but nothing reads it
            if len(parts) != 2:
                raise ConfigError("line %d: seed takes one integer" % lineno)
            try:
                int(parts[1])
            except ValueError:
                raise ConfigError("line %d: bad seed %r" % (lineno, parts[1]))
        elif parts[0] == "stream":
            if len(parts) != 6:
                raise ConfigError(
                    "line %d: stream takes <alias> <uri> <schema> <csv> <rate>" % lineno
                )
            _, alias, uri, schema, csv_path, rate = parts
            try:
                r = float(rate)
            except ValueError:
                raise ConfigError("line %d: bad rate %r" % (lineno, rate))
            resolved = csv_path if Path(csv_path).is_absolute() else str(base / csv_path)
            streams.append(StreamDef(alias, uri, schema, resolved, r))
        elif parts[0] == "query":
            if len(parts) < 7:
                raise ConfigError(
                    "line %d: query takes <id> <consumer> <start> <stop> <mode>"
                    " [poll=<ms>] <text>" % lineno
                )
            qid, consumer, start_s, stop_s, mode = parts[1:6]
            rest = parts[6:]
            poll = None
            if rest and rest[0].startswith("poll="):
                try:
                    poll = int(rest[0][5:])
                except ValueError:
                    raise ConfigError("line %d: bad poll interval" % lineno)
                if poll <= 0:
                    raise ConfigError("line %d: poll interval must be positive" % lineno)
                rest = rest[1:]
            if not rest:
                raise ConfigError("line %d: query text missing" % lineno)
            try:
                start = int(start_s)
                stop = None if stop_s == "-" else int(stop_s)
            except ValueError:
                raise ConfigError("line %d: bad start/stop" % lineno)
            queries.append(QueryDef(qid, consumer, start, stop, mode, " ".join(rest), poll))
        else:
            raise ConfigError("line %d: unknown directive %r" % (lineno, parts[0]))

    if topology is None:
        raise ConfigError("%s: no topology line" % path)
    if not queries:
        raise ConfigError("%s: no query line" % path)
    spec = ScenarioSpec(topology=topology, streams=streams, queries=queries)
    _validate_scenario(spec, path)
    return spec


def _validate_scenario(spec: ScenarioSpec, origin: str) -> list[OperatorNode]:
    """Check `spec` as a whole; the operator tree of each query, in order."""
    for k, s in enumerate(spec.streams):
        if s.schema not in STREAM_SCHEMAS:
            raise ConfigError("%s: stream %s has unknown schema %r" % (origin, s.alias, s.schema))
        if any(t.alias == s.alias for t in spec.streams[:k]):
            raise ConfigError("%s: duplicate stream alias %r" % (origin, s.alias))
        if not valid_rate(s.rate):
            raise ConfigError("%s: stream %s rate must be a finite number > 0" % (origin, s.alias))
    bindings = spec.bindings()
    trees = []
    for k, q in enumerate(spec.queries):
        if any(p.query_id == q.query_id for p in spec.queries[:k]):
            raise ConfigError("%s: duplicate query id %r" % (origin, q.query_id))
        try:
            trees.append(create_operator_graph(q.text, bindings))
        except Exception as err:
            raise ConfigError("%s: query %s does not parse: %s" % (origin, q.query_id, err))
        if q.consumer not in spec.topology.nodes:
            raise ConfigError(
                "%s: query %s names unknown consumer %s" % (origin, q.query_id, q.consumer)
            )
        if q.mode not in ("centralized", "distributed"):
            raise ConfigError("%s: query %s has unknown mode %r" % (origin, q.query_id, q.mode))
        if q.stop_ms is not None and q.stop_ms <= q.start_ms:
            raise ConfigError("%s: query %s stops before it starts" % (origin, q.query_id))
        if q.poll_ms is not None and q.poll_ms <= 0:
            raise ConfigError("%s: query %s poll interval must be positive" % (origin, q.query_id))
        if q.poll_ms and q.stop_ms is None:
            raise ConfigError("%s: query %s polls but has no stop time" % (origin, q.query_id))
    modes = {q.mode for q in spec.queries}
    if len(modes) > 1:
        raise ConfigError("%s: queries mix deployment modes %s" % (origin, sorted(modes)))
    for s in spec.streams:
        comps = Name.from_uri(s.uri).components
        if len(comps) < 2:
            raise ConfigError("%s: stream %s URI %s names no producer" % (origin, s.alias, s.uri))
        if comps[0] == "state":
            raise ConfigError(
                "%s: stream %s URI %s is in the reserved /state namespace" % (origin, s.alias, s.uri)
            )
        producer = comps[1]
        if producer not in spec.topology.nodes:
            raise ConfigError("%s: stream %s names unknown producer %s" % (origin, s.alias, producer))
    # a nested stream would follow the routes its enclosing stream's deployments install
    names = sorted((Name.from_uri(s.uri) for s in spec.streams), key=lambda n: n.components)
    for outer, inner in zip(names, names[1:]):
        if len(outer.components) < len(inner.components) and is_prefix_of(outer, inner):
            raise ConfigError("%s: stream %s nests inside stream %s" % (origin, inner, outer))
    return trees


def override_scenario(
    spec: ScenarioSpec, topology: Optional[str] = None, mode: Optional[str] = None
) -> ScenarioSpec:
    """Re-target a scenario at another preset topology and/or deployment mode."""
    topo = load_topology(topology) if topology else spec.topology
    queries = [replace(q, mode=mode) if mode else q for q in spec.queries]
    out = ScenarioSpec(topology=topo, streams=spec.streams, queries=queries)
    _validate_scenario(out, "override")
    return out


# ---------------------------------------------------------------------------
# dataset replay and generation


def replay_dataset(stream: StreamDef) -> tuple[list[tuple[float, DataStream]], int]:
    """Turn a CSV into (emission time, packet) pairs, earliest first.

    Rows that arrive with a timestamp below their predecessor are sorted back
    into place and counted as reorder warnings rather than rejected.
    """
    if stream.schema not in STREAM_SCHEMAS:
        raise SchemaMismatch("unknown schema %r" % stream.schema)
    columns = list(STREAM_SCHEMAS[stream.schema].attribute_names)
    path = Path(stream.csv_path)
    if not path.exists():
        raise SchemaMismatch("dataset not found: %s" % stream.csv_path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != columns:
            raise SchemaMismatch(
                "%s: header %s does not match %s schema %s"
                % (stream.csv_path, header, stream.schema, columns)
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(columns):
                raise SchemaMismatch(
                    "%s: line %d has %d fields, expected %d"
                    % (stream.csv_path, lineno, len(row), len(columns))
                )
            try:
                values = (int(row[0]),) + tuple(float(v) for v in row[1:])
            except ValueError as err:
                raise SchemaMismatch("%s: line %d: %s" % (stream.csv_path, lineno, err))
            if values[0] < 0:
                raise SchemaMismatch("%s: line %d: negative timestamp" % (stream.csv_path, lineno))
            rows.append(values)

    warnings = 0
    high = None
    for values in rows:
        if high is not None and values[0] < high:
            warnings += 1
        else:
            high = values[0]
    rows.sort(key=lambda v: v[0])
    name = Name.from_uri(stream.uri)
    schedule = [
        (v[0] / stream.rate, DataStream(stream_name=name, tuple=Tuple.from_values(stream.schema, v)))
        for v in rows
    ]
    return schedule, warnings


def generate_gps_csv(
    path: str, seed: int = 42, s_id: int = 1, rows: int = 600,
    start_ts: int = 1000, step_ms: int = 1000,
) -> None:
    """Seeded position trace: a bounded random walk over a small urban box."""
    rng = random.Random("gps:%d:%d" % (seed, s_id))
    lat, lon = 49.87 + 0.02 * rng.random(), 8.63 + 0.02 * rng.random()
    distance = 0.0
    lines = [",".join(STREAM_SCHEMAS["gps"].attribute_names)]
    for k in range(rows):
        ts = start_ts + k * step_ms
        lat = min(49.9199, max(49.8601, lat + rng.uniform(-8e-4, 8e-4)))
        lon = min(8.6899, max(8.6101, lon + rng.uniform(-8e-4, 8e-4)))
        altitude = 120.0 + 40.0 * rng.random()
        accuracy = 1.0 + 9.0 * rng.random()
        speed = 30.0 * rng.random()
        distance += speed * step_ms / 3600000.0
        lines.append(
            "%d,%d,%.6f,%.6f,%.2f,%.2f,%.4f,%.2f"
            % (ts, s_id, lat, lon, altitude, accuracy, distance, speed)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def generate_plug_csv(
    path: str, seed: int = 42, plug_id: int = 1, rows: int = 360,
    start_ts: int = 10000, step_ms: int = 10000,
) -> None:
    """Seeded load trace that ramps upward so forecasts cross round thresholds."""
    rng = random.Random("plug:%d:%d" % (seed, plug_id))
    lines = [",".join(STREAM_SCHEMAS["plug"].attribute_names)]
    for k in range(rows):
        ts = start_ts + k * step_ms
        ramp = 10.0 + 20.0 * k / max(rows - 1, 1)
        value = min(40.0, max(0.0, ramp + rng.uniform(-3.0, 3.0)))
        lines.append(
            "%d,%d,%.3f,1,%d,1,%d" % (ts, plug_id, value, plug_id, plug_id)
        )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the event trace


class Trace:
    """The lines of an event trace, kept as compressed chunks and hashed as they seal.

    `append` is the bound `append` of the list of open lines, so recording a
    line costs no Python call. `seal` joins the open lines with newlines,
    feeds the text's UTF-8 bytes, after a newline if a chunk came before, to a
    running sha256, and keeps those bytes zlib-compressed at level 1 with the
    lines' lengths in an `array('I')`. A 76-character line then costs about
    14 bytes, not the 133 of a `str` of its own in a list. Iteration and
    `write` decompress one chunk at a time and give back exactly the lines
    appended, in order, lines holding newlines included; `hexdigest` is the
    sha256 of all of them joined by newlines.
    """

    __slots__ = ("append", "open_lines", "_chunks", "_sha")

    def __init__(self) -> None:
        self.open_lines: list[str] = []
        self.append = self.open_lines.append
        self._chunks: list[tuple[bytes, array]] = []  # (compressed text, line lengths)
        self._sha = hashlib.sha256()

    def seal(self) -> None:
        lines = self.open_lines
        if not lines:
            return
        raw = "\n".join(lines).encode("utf-8")
        if self._chunks:
            self._sha.update(b"\n")
        self._sha.update(raw)
        self._chunks.append((zlib.compress(raw, 1), array("I", map(len, lines))))
        lines.clear()

    def hexdigest(self) -> str:
        self.seal()
        return self._sha.hexdigest()

    def write(self, fh) -> None:
        """Write the lines joined by newlines, and a final newline, chunk by chunk."""
        self.seal()
        for i, (packed, _) in enumerate(self._chunks):
            if i:
                fh.write("\n")
            fh.write(zlib.decompress(packed).decode("utf-8"))
        fh.write("\n")

    def __iter__(self):
        for packed, lengths in self._chunks:
            text = zlib.decompress(packed).decode("utf-8")
            start = 0
            for n in lengths:
                yield text[start : start + n]
                start += n + 1
        yield from self.open_lines

    def __len__(self) -> int:
        return sum(len(lengths) for _, lengths in self._chunks) + len(self.open_lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


# ---------------------------------------------------------------------------
# metrics


@dataclass
class QueryMetrics:
    query_id: str
    mode: str
    # real (wall-clock) time of the coordinator's parse of the text; an
    # engine parses a text once per run, so a text it had seen before
    # reports that earlier parse
    graph_ms: float = 0.0
    placement_ms: float = 0.0    # placement_sim_ms + plan_real_ms
    communication_ms: float = 0.0  # simulated delivery of the first result
    notifications: int = 0
    control_packets: int = 0
    issued_t: float = 0.0
    deployed_t: float = 0.0
    first_result_t: Optional[float] = None
    placement_sim_ms: float = 0.0  # simulated coordination
    plan_real_ms: float = 0.0  # real (wall-clock) time of the planning

    @property
    def total_ms(self) -> float:
        return self.graph_ms + self.placement_ms + self.communication_ms


@dataclass
class Metrics:
    queries: dict[str, QueryMetrics] = field(default_factory=dict)
    nodes: dict[str, dict[str, int]] = field(default_factory=dict)
    link_drops: dict[str, int] = field(default_factory=dict)
    reorder_warnings: int = 0
    events: list[tuple[str, str, dict]] = field(default_factory=list)
    app_deliveries: dict[str, list[tuple[float, Packet]]] = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace)
    trace_hash: str = ""


def emit_metrics(metrics: Metrics, path: str) -> None:
    """Write the per-query delay breakdown; totals equal the summed parts."""
    lines = [
        "# total_ms = graph_ms + placement_ms + communication_ms",
        "# real (wall-clock) column: graph_ms, the coordinator's one parse of the text;"
        " simulated column: communication_ms, delivery of the first result;"
        " placement_ms is simulated coordination plus real planning, so it and total_ms"
        " mix both (run-sim prints the parts as placement_sim_ms and plan_real_ms)",
        "query,total_ms,graph_ms,placement_ms,communication_ms",
    ]
    for qid in sorted(metrics.queries):
        q = metrics.queries[qid]
        g = round(q.graph_ms, 3)
        p = round(q.placement_ms, 3)
        c = round(q.communication_ms, 3)
        lines.append("%s,%.3f,%.3f,%.3f,%.3f" % (qid, g + p + c, g, p, c))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the simulator proper


# json.dumps(..., sort_keys=True) without its per-call set-up; engine events
# are flat dicts, so there is no cycle to check for
_encode_sorted = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _summary(p: Packet) -> str:
    if type(p) is DataStream:  # most packets: test it first
        return "DataStream %s ts=%d" % (p.stream_name.to_uri(), p.tuple.ts)
    if isinstance(p, AddQueryInterest):
        return "AddQueryInterest nonce=%s q=%s" % (p.nonce, p.query)
    if isinstance(p, RemoveQueryInterest):
        return "RemoveQueryInterest nonce=%s q=%s" % (p.nonce, p.query)
    if isinstance(p, Data):
        return "Data %s ts=%d" % (p.name.to_uri(), p.ts)
    if isinstance(p, Interest):
        return "Interest %s" % p.name.to_uri()
    return type(p).__name__


class Simulator:
    """Event loop, links, and per-node serial processing around the engines.

    Heap entries are (time, seq, fn), and `run` calls each `fn` in turn. An
    engine's timer (`schedule`) is an ordinary node handler: its entry runs
    it through `_exec` like a packet's. Handlers that cannot run at once
    wait in their node's line, in the order they reached `_exec`, and
    `_serve` runs them once the node is idle. Trace uids are heap seqs: a
    join takes one, and each re-wait of a line takes one per handler in it,
    so that the uids, and the pinned trace hashes, are those of a kernel
    with one heap entry per wait.

    A packet's trace summary is rendered once: the in-flight entry
    (uid, packet, summary) of a delivery or injection rides with its
    handler, and a send of that same packet object, as a relay's is, takes
    its summary; so does each further send of a packet sent on several faces.
    """

    def __init__(self, spec: ScenarioSpec, collect_trace: bool = True):
        self.spec = spec
        self.topo = spec.topology
        self.collect_trace = collect_trace
        self.t = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._waiting: dict[str, deque[Callable[[], None]]] = {}  # each busy node's line
        self.trace = Trace()
        self.events: list[tuple[str, str, dict]] = []
        self.app: dict[str, list[tuple[float, Packet]]] = {}
        self.link_drops: dict[str, int] = {}
        self.busy_until: dict[str, float] = {n: 0.0 for n in self.topo.nodes}
        self._delays = {n: tnode.proc_delay_ms for n, tnode in self.topo.nodes.items()}
        self._ctx_node: Optional[str] = None
        self._ctx_charges = 0.0
        self._ctx_out: list[tuple[int, Packet]] = []
        # the in-flight entry whose summary the next send of its packet reuses
        self._rendered: Optional[tuple[int, Packet, Optional[str]]] = None
        # (node, query text) -> query-interest packets sent on network faces
        self.control_sends: dict[tuple[str, str], int] = {}
        # directed link -> live (uid, packet, its trace summary or None)
        # awaiting delivery, oldest first
        self._in_flight: dict[tuple[str, str], deque[tuple[int, Packet, Optional[str]]]] = {}
        # (node, face id) -> (its directed link, the TopoLink, that link's
        # `_in_flight` deque), made on the first send over the face
        self._links: dict[tuple[str, int], tuple[tuple[str, str], TopoLink, deque]] = {}

        mode = spec.queries[0].mode if spec.queries else "centralized"
        bindings = spec.bindings()
        self.engines: dict[str, Engine] = {
            nid: Engine(NodeConfig(nid, self.topo, bindings, mode), self)
            for nid in sorted(self.topo.nodes)
        }

    # -- Services protocol ---------------------------------------------------

    def send(self, node_id: str, face_id: int, packet: Packet) -> None:
        self._ctx_out.append((face_id, packet))

    def now(self) -> int:
        return int(self.t)

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        self._at(self.t + delay_ms, partial(self._exec, self._ctx_node, fn))

    def local_delay_ms(self, node_id: str) -> float:
        return self._delays[node_id]

    def charge(self, node_id: str, ms: float) -> None:
        self._ctx_charges += ms

    def event(self, node_id: str, kind: str, payload: dict) -> None:
        self.events.append((node_id, kind, payload))
        if self.collect_trace:
            if "_real_ms" in " ".join(payload):  # else no key ends with it: nothing to drop
                payload = {k: v for k, v in payload.items() if not k.endswith("_real_ms")}
            self.trace.append(
                "%.3f %s event %s %s" % (self.t, node_id, kind, _encode_sorted(payload))
            )

    # -- internals -------------------------------------------------------------

    def _at(self, t: float, fn: Callable[[], None]) -> None:
        self._seq += 1
        heappush(self._heap, (max(t, self.t), self._seq, fn))

    def _exec(self, node: str, thunk: Callable[[], None], rendered: Optional[tuple] = None) -> None:
        """Run a handler on `node` now, or put it at the back of the node's line.

        `rendered` is the in-flight entry of the packet the handler handles, if any.
        """
        line = self._waiting.get(node)
        if line is None and self.busy_until[node] <= self.t:
            self._run(node, thunk, rendered)
            return
        if line is None:
            self._waiting[node] = deque(((thunk, rendered),))
            self._at(self.busy_until[node], partial(self._serve, node))
        else:
            self._seq += 1
            line.append((thunk, rendered))

    def _serve(self, node: str) -> None:
        """Run `node`'s line while the node is idle; the rest waits again."""
        line = self._waiting[node]
        while line and self.busy_until[node] <= self.t:
            self._run(node, *line.popleft())
        if line:
            self._at(self.busy_until[node], partial(self._serve, node))
            self._seq += len(line) - 1
        else:
            del self._waiting[node]

    def _run(self, node: str, thunk: Callable[[], None], rendered: Optional[tuple] = None) -> None:
        """Run a handler in a serial processing slot on idle `node`."""
        self._ctx_node, self._ctx_charges, self._ctx_out = node, 0.0, []
        try:
            thunk()
        except Exception as err:  # keep the run alive, surface in the trace
            self.engines[node].counters["errors"] += 1
            if self.collect_trace:
                self.trace.append("%.3f %s error %s: %s" % (self.t, node, type(err).__name__, err))
        out = self._ctx_out
        end = self.t + self._delays[node] + self._ctx_charges
        self.busy_until[node] = end
        self._ctx_node, self._ctx_out = None, []
        self._rendered = rendered
        for face_id, packet in out:
            self._dispatch(node, face_id, packet, end)

    def _dispatch(self, node: str, face_id: int, packet: Packet, at: float) -> Optional[int]:
        """Deliver `packet` to the application or put it on a link; return its link uid, if any."""
        summary = None
        if self.collect_trace:
            rendered = self._rendered
            summary = rendered[2] if rendered and rendered[1] is packet else _summary(packet)
        if face_id == APP_FACE:
            self.app.setdefault(node, []).append((at, packet))
            if summary is not None:
                self.trace.append("%.3f %s app %s" % (at, node, summary))
            return
        if type(packet) is not DataStream and isinstance(
            packet, (AddQueryInterest, RemoveQueryInterest)
        ):
            ck = (node, packet.query)
            self.control_sends[ck] = self.control_sends.get(ck, 0) + 1
        record = self._links.get((node, face_id))
        if record is None:  # the first send over this face
            key = (node, self.engines[node].faces[face_id].peer)
            flight = self._in_flight.setdefault(key, deque())
            record = self._links[(node, face_id)] = (key, self.topo.link_by_pair[key], flight)
        key, link, flight = record
        self._seq += 1
        uid = self._seq
        self._rendered = entry = (uid, packet, summary)
        flight.append(entry)
        if len(flight) > link.capacity:
            # shed the oldest stream packet; control packets are never shed
            victim = next((e for e in flight if isinstance(e[1], DataStream)), None)
            if victim is not None:
                flight.remove(victim)
                tag = "%s->%s" % key
                self.link_drops[tag] = self.link_drops.get(tag, 0) + 1
                if self.collect_trace:
                    self.trace.append(
                        "%.3f %s drop uid=%d %s link=%s reason=capacity"
                        % (at, node, victim[0], victim[2], tag)
                    )
                if victim[0] == uid:
                    return  # nothing older to shed: the new packet is lost
        if self.collect_trace:
            self.trace.append("%.3f %s send uid=%d %s -> %s" % (at, node, uid, summary, key[1]))
        self._at(at + link.delay_ms, partial(self._deliver, key, uid, packet))
        return uid

    def _deliver(self, key: tuple[str, str], uid: int, packet: Packet) -> None:
        # a link delivers in the order it sends, so a packet that does not head
        # its link's queue was shed from it
        flight = self._in_flight[key]
        if not flight or flight[0][0] != uid:
            return
        entry = flight.popleft()
        src, dst = key
        if self.collect_trace:
            self.trace.append("%.3f %s recv uid=%d %s <- %s" % (self.t, dst, uid, entry[2], src))
        engine = self.engines[dst]
        self._exec(dst, partial(engine.handle_packet, packet, engine._face_of_peer[src]), entry)

    def inject(self, t: float, node: str, packet: Packet) -> None:
        """Schedule an application-originated packet at `node`."""
        self._at(t, partial(self._inject_now, node, packet))

    def _inject_now(self, node: str, packet: Packet) -> None:
        entry = (0, packet, _summary(packet) if self.collect_trace else None)
        if self.collect_trace:
            self.trace.append("%.3f %s recv uid=0 %s <- app" % (self.t, node, entry[2]))
        self._exec(node, partial(self.engines[node].handle_packet, packet, APP_FACE), entry)

    def run(self) -> None:
        heap = self._heap
        trace, open_lines = self.trace, self.trace.open_lines
        while heap:
            t, _, fn = heappop(heap)
            self.t = t
            fn()
            if len(open_lines) >= SEAL_LINES:
                trace.seal()

    def detach(self) -> None:
        """Drop the engines' references to this simulator.

        Engines hold it as their services, so without this a finished run
        lives on until the cyclic garbage collector finds it. The engines stay
        readable; they can no longer run. A finished run has no line left.
        """
        for eng in self.engines.values():
            eng.services = None
            eng._parsed.clear()


def run_scenario(spec: ScenarioSpec, collect_trace: bool = True) -> Metrics:
    canon = {
        q.query_id: canonical_text(tree)
        for q, tree in zip(spec.queries, _validate_scenario(spec, "run_scenario"))
    }
    sim = Simulator(spec, collect_trace=collect_trace)
    reorder = 0
    for stream in spec.streams:
        schedule, warnings = replay_dataset(stream)
        reorder += warnings
        producer = Name.from_uri(stream.uri).components[1]
        for emit_t, packet in schedule:
            sim.inject(emit_t, producer, packet)

    for q in spec.queries:
        sim.inject(q.start_ms, q.consumer, AddQueryInterest(query=q.text, nonce="%s:1" % q.query_id))
        if q.poll_ms:
            k = 1
            t = q.start_ms + q.poll_ms
            while t < q.stop_ms:
                k += 1
                sim.inject(t, q.consumer, RemoveQueryInterest(query=q.text, nonce="%s:%dr" % (q.query_id, k)))
                sim.inject(t, q.consumer, AddQueryInterest(query=q.text, nonce="%s:%d" % (q.query_id, k)))
                t += q.poll_ms
        if q.stop_ms is not None:
            sim.inject(
                q.stop_ms, q.consumer, RemoveQueryInterest(query=q.text, nonce="%s:end" % q.query_id)
            )
    sim.run()

    metrics = Metrics(
        nodes={n: dict(e.counters) for n, e in sim.engines.items()},
        link_drops=dict(sim.link_drops),
        reorder_warnings=reorder,
        events=sim.events,
        app_deliveries=sim.app,
        trace=sim.trace,
    )
    sim.detach()
    metrics.trace_hash = sim.trace.hexdigest()

    # first acceptance and deployment per query id; nonces are "<query id>:<k>"
    first: dict[tuple[str, str], dict] = {}
    for _node, kind, payload in sim.events:
        if kind in ("query_accepted", "query_deployed"):
            qid = str(payload["nonce"]).rpartition(":")[0]
            first.setdefault((qid, kind), payload)
    for q in spec.queries:
        qm = QueryMetrics(query_id=q.query_id, mode=q.mode, issued_t=float(q.start_ms))
        unsalted = query_hash(canon[q.query_id])
        accepted = first.get((q.query_id, "query_accepted"))
        if accepted is not None:
            qm.graph_ms = accepted["graph_real_ms"]
        deployed = first.get((q.query_id, "query_deployed"))
        if deployed is not None:
            qm.deployed_t = float(deployed["t1"])
            qm.placement_sim_ms = deployed["placement_sim_ms"]
            qm.plan_real_ms = deployed["plan_real_ms"]
            qm.placement_ms = qm.placement_sim_ms + qm.plan_real_ms
        for at, packet in sim.app.get(q.consumer, []):
            if isinstance(packet, Data) and packet.name.components[:2] == ("ce", unsalted):
                qm.notifications += 1
                if qm.first_result_t is None:
                    qm.first_result_t = at
        base = qm.deployed_t or qm.issued_t
        if qm.first_result_t is not None:
            qm.communication_ms = max(qm.first_result_t - base, 0.0)
        else:
            qm.communication_ms = max(sim.t - base, 0.0)
        metrics.queries[q.query_id] = qm

    # consumer-originated control traffic, attributed by query text
    for q in spec.queries:
        metrics.queries[q.query_id].control_packets = sim.control_sends.get(
            (q.consumer, q.text), 0
        )
    return metrics
