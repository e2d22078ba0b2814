"""Traced run: spans around each layer's public functions, and per-layer metrics.

`Tracer` wraps the public functions of `packet`, `tables`, `query`,
`operators`, `placement`, `engine` and `sim` from outside the program: it
swaps each function (and every `from ... import` alias of it inside the
package) for a wrapper that records a span (name, start, end, parent) in
flat arrays. Nothing is written while the run lasts; the spans go to a file
when it ends, and self time is a span's duration minus that of its direct
children. `uninstall` puts every original function back.

`METRICS` lists the per-layer metrics with the end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import checkout

checkout.use_checkout_source()

import reference  # noqa: E402
import workloads  # noqa: E402
from icncep import engine, operators, packet, placement, query, sim, tables  # noqa: E402
from icncep.packet import decode_packet, encode_packet  # noqa: E402

# (name, unit, better, what it should move)
METRICS: list[tuple[str, str, str, str]] = [
    ("packet.tuple_builds", "count", "lower", "tuples_per_s on churn, paper"),
    ("packet.tuple_build_s", "s", "lower", "tuples_per_s on churn, paper"),
    ("packet.encode_us", "us", "lower", "baseline for a codec on the run path"),
    ("packet.decode_us", "us", "lower", "baseline for a codec on the run path"),
    ("packet.bytes.stream", "bytes", "lower", "net_bytes on churn, mesh"),
    ("packet.bytes.snapshot", "bytes", "lower", "net_bytes on churn, mesh"),
    ("packet.bytes.data", "bytes", "lower", "net_bytes on churn, mesh"),
    ("packet.bytes.control", "bytes", "lower", "net_bytes on churn, mesh"),
    ("tables.cs.inserts", "count", "lower", "peak_mem_mb on churn"),
    ("tables.cs.insert_s", "s", "lower", "peak_mem_mb on churn"),
    ("tables.cs.lookups", "count", "lower", "peak_mem_mb on churn"),
    ("tables.cs.hit_ratio", "ratio", "higher", "peak_mem_mb on churn"),
    ("tables.cs.bytes_end", "bytes", "lower", "peak_mem_mb on churn"),
    ("tables.pit.ops", "count", "lower", "tuples_per_s on churn"),
    ("tables.pit.self_s", "s", "lower", "tuples_per_s on churn"),
    ("tables.pit.entries_end", "count", "lower", "peak_mem_mb on churn"),
    ("tables.fib.lookups", "count", "lower", "tuples_per_s on mesh"),
    ("tables.fib.lookup_s", "s", "lower", "tuples_per_s on mesh"),
    ("tables.fib.routes_end", "count", "lower", "tuples_per_s on mesh"),
    ("query.parses", "count", "lower", "tuples_per_s on churn, setup_s on mesh"),
    ("query.parse_s", "s", "lower", "tuples_per_s on churn, setup_s on mesh"),
    ("query.canonical_s", "s", "lower", "tuples_per_s on churn, setup_s on mesh"),
    ("query.hash_s", "s", "lower", "tuples_per_s on churn, setup_s on mesh"),
    ("query.parses_per_control", "ratio", "lower", "tuples_per_s on churn"),
]
OPERATOR_KINDS = ("window", "filter", "join", "sequence", "aggregate", "heatmap", "predict")
_OPERATOR_MOVES = {
    "join": "tuples_per_s on paper",
    "heatmap": "tuples_per_s on paper",
    "window": "tuples_per_s on churn",
    "filter": "tuples_per_s on churn",
}
for _kind in OPERATOR_KINDS:
    _moves = _OPERATOR_MOVES.get(_kind, "tuples_per_s on paper, churn")
    METRICS += [
        ("operators.%s.calls" % _kind, "count", "lower", _moves),
        ("operators.%s.self_s" % _kind, "s", "lower", _moves),
        ("operators.%s.rows_in" % _kind, "count", "lower", _moves),
        ("operators.%s.rows_out" % _kind, "count", "lower", _moves),
    ]
METRICS += [
    ("operators.join.pairs", "count", "lower", "tuples_per_s on paper"),
    ("operators.join.match_ratio", "ratio", "higher", "tuples_per_s on paper"),
    ("placement.build_path.calls", "count", "lower", "tuples_per_s on mesh"),
    ("placement.build_path.self_s", "s", "lower", "tuples_per_s on mesh"),
    ("placement.assign.calls", "count", "lower", "tuples_per_s on mesh"),
    ("placement.assign.self_s", "s", "lower", "tuples_per_s on mesh"),
]
PACKET_KINDS = {
    packet.Interest: "interest",
    packet.Data: "data",
    packet.DataStream: "stream",
    packet.AddQueryInterest: "add_query",
    packet.RemoveQueryInterest: "remove_query",
}
for _kind in PACKET_KINDS.values():
    METRICS += [
        ("engine.%s.count" % _kind, "count", "lower", "tuples_per_s on all workloads"),
        ("engine.%s.self_s" % _kind, "s", "lower", "tuples_per_s on all workloads"),
    ]
METRICS += [
    ("engine.dropped_share", "ratio", "lower", "net_packets on mesh, churn"),
    ("engine.results_shipped", "count", "lower", "net_packets on churn"),
    ("engine.cs_replies", "count", "higher", "result_latency_p99_ms on churn"),
    ("engine.live_instances_end", "count", "lower", "net_packets, peak_mem_mb on churn"),
    ("sim.load_s", "s", "lower", "setup_s on mesh"),
    ("sim.init_s", "s", "lower", "setup_s on mesh"),
    ("sim.replay_s", "s", "lower", "setup_s on mesh"),
    ("sim.init_s.n25", "s", "lower", "setup_s on mesh"),
    ("sim.init_s.n50", "s", "lower", "setup_s on mesh"),
    ("sim.init_s.n100", "s", "lower", "setup_s on mesh"),
    ("sim.loop_self_s", "s", "lower", "tuples_per_s on churn"),
    ("sim.report_s", "s", "lower", "tuples_per_s on churn"),
    ("sim.heap_events", "count", "lower", "tuples_per_s on churn"),
    ("sim.requeue_ratio", "ratio", "lower", "tuples_per_s on churn"),
    ("sim.trace_lines", "count", "lower", "peak_mem_mb on all workloads"),
    ("sim.link_drops", "count", "lower", "net_packets on all workloads"),
    ("sim.loop_probe_timeouts", "count", "lower", "known defect 1, probed on mesh"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time"),
    ("trace.spans", "count", "lower", "none: spans recorded"),
]

SWEEP_SIZES = (25, 50, 100)


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.sims: list[sim.Simulator] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records a span; `observe(args, result)` counts."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__bench_wrapped__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _engine_span(self, fn: Callable) -> Callable:
        """Engine.handle_packet, one span name per packet kind."""
        ids = {cls: self._intern("engine.%s" % kind) for cls, kind in PACKET_KINDS.items()}
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def handle_packet(self_, packet, in_face):
            idx = len(start)
            name_id.append(ids[type(packet)])
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(self_, packet, in_face)
            finally:
                end[idx] = clock()
                stack.pop()

        handle_packet.__bench_wrapped__ = True
        handle_packet.__wrapped__ = fn
        return handle_packet

    def _counter(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def count(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        count.__bench_wrapped__ = True
        count.__wrapped__ = fn
        return count

    # -- installing ---------------------------------------------------------

    def _patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace `fn` in every icncep module that holds a reference to it."""
        for modname, module in list(sys.modules.items()):
            if modname != "icncep" and not modname.startswith("icncep."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        c = self.counts

        def rows(key: str, n_in: Callable, n_out: Callable) -> Callable:
            def observe(args, result):
                c[key + ".rows_in"] += n_in(args)
                c[key + ".rows_out"] += n_out(result)

            return observe

        def join_rows(args, result):
            left, right = len(args[0]), len(args[1])
            c["operators.join.rows_in"] += left + right
            c["operators.join.pairs"] += left * right
            c["operators.join.rows_out"] += len(result)

        def cs_hit(args, result):
            c["tables.cs.hits"] += result is not None

        def keep_sim(args, result):
            self.sims.append(args[0])

        one = lambda result: 1  # noqa: E731
        methods = [
            (packet.Tuple, "__post_init__", "packet.tuple_build", None),
            (tables.ContentStore, "insert", "tables.cs.insert", None),
            (tables.ContentStore, "lookup", "tables.cs.lookup", cs_hit),
            (tables.ForwardingInformationBase, "add_route", "tables.fib.add", None),
            (tables.ForwardingInformationBase, "longest_prefix", "tables.fib.lookup", None),
            (sim.Simulator, "__init__", "sim.init", keep_sim),
            (sim.Simulator, "run", "sim.run", None),
        ]
        for attr in ("lookup", "add_face", "remove", "remove_face"):
            methods.append((tables.PendingInterestTable, attr, "tables.pit", None))
        for cls, attr, name, observe in methods:
            self._patch_method(cls, attr, self.span(cls.__dict__[attr], name, observe))
        self._patch_method(engine.Engine, "handle_packet", self._engine_span(engine.Engine.handle_packet))
        self._patch_method(sim.Simulator, "_at", self._counter(sim.Simulator._at, "sim.heap_events"))

        functions = [
            (query.parse_query, "query.parse", None),
            (query.canonical_text, "query.canonical", None),
            (query.query_hash, "query.hash", None),
            (operators.window_insert, "operators.window",
             rows("operators.window", lambda a: 1, lambda r: len(r[0].buffer))),
            (operators.filter_eval, "operators.filter",
             rows("operators.filter", lambda a: len(a[0]), len)),
            (operators.join_eval, "operators.join", join_rows),
            (operators.sequence_eval, "operators.sequence",
             rows("operators.sequence", lambda a: len(a[0]) + len(a[1]), one)),
            (operators.aggregate_eval, "operators.aggregate",
             rows("operators.aggregate", lambda a: len(a[2]), one)),
            (operators.heatmap_eval, "operators.heatmap",
             rows("operators.heatmap", lambda a: len(a[0]), one)),
            (operators.predict_eval, "operators.predict",
             rows("operators.predict", lambda a: len(a[0]), lambda r: int(r[1] is not None))),
            (placement.build_path, "placement.build_path", None),
            (placement.assign_operators, "placement.assign", None),
            (sim.load_scenario, "sim.load", None),
            (sim.override_scenario, "sim.load", None),
            (sim.replay_dataset, "sim.replay", None),
            (sim.run_scenario, "sim.run_scenario", None),
        ]
        for fn, name, observe in functions:
            self._patch_function(fn, self.span(fn, name, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        count = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = name_id[i]
            dur = end[i] - start[i]
            count[k] += 1
            total[k] += dur
            own[k] += dur - child[i]
        return {name: (count[k], total[k], own[k]) for k, name in enumerate(self.names)}

    def has_ancestor(self, i: int, ids: set[int]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] in ids:
                return True
            p = self.parent[p]
        return False

    def write(self, path: Path) -> None:
        """One JSON header line, then the four span arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def wrapped_targets() -> list[str]:
    """Names of icncep functions and methods currently replaced by a wrapper."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "icncep" and not modname.startswith("icncep."):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__bench_wrapped__", False):
                found.append("%s.%s" % (modname, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                for member, inner in vars(value).items():
                    if getattr(inner, "__bench_wrapped__", False):
                        found.append("%s.%s.%s" % (modname, attr, member))
    return found


# ---------------------------------------------------------------------------
# the traced run


def _sweep(workdir: Path, seed: int) -> dict[int, float]:
    """Simulator set-up time on generated meshes of 25, 50 and 100 brokers."""
    sweep_dir = workdir / "sweep"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    specs = {}
    for n in SWEEP_SIZES:
        topo = workloads.mesh_sweep_topology(sweep_dir, seed, n)
        scn = sweep_dir / ("sweep_n%d.scn" % n)
        scn.write_text(
            "topology %s\nstream GPS_S1 /node/p1/gps gps none.csv 1.0\n"
            "query s1 c1 100 - distributed AVG('speed', WINDOW(GPS_S1, 4s))\n" % topo.name
        )
        specs[n] = sim.load_scenario(str(scn))
    tracer = Tracer()
    try:
        tracer.install()
        for n in SWEEP_SIZES:
            sim.Simulator(specs[n])
    finally:
        tracer.uninstall()
    inits = [i for i in range(len(tracer.start)) if tracer.names[tracer.name_id[i]] == "sim.init"]
    return {n: tracer.end[i] - tracer.start[i] for n, i in zip(SWEEP_SIZES, inits)}


def _codec(packets: list) -> tuple[float, float, int, list[bytes]]:
    """Per-packet encode and decode time in microseconds, round-trip
    failures, and the encoded packets."""
    wire = [reference.wire_packet(p) for p in packets]
    t0 = time.perf_counter()
    encoded = [encode_packet(p) for p in wire]
    t1 = time.perf_counter()
    decoded = [decode_packet(b) for b in encoded]
    t2 = time.perf_counter()
    bad = sum(1 for a, b in zip(wire, decoded) if a != b)
    n = max(len(packets), 1)
    return (t1 - t0) * 1e6 / n, (t2 - t1) * 1e6 / n, bad, encoded


def traced_run(workload: str, seed: int, workdir: Path, spans_out: Path) -> tuple[dict, list[str]]:
    """One untraced pass for the overhead baseline, then one traced pass."""
    runs = workloads.build(workload, seed, workdir)
    untraced_s = 0.0
    hashes = {}
    for run in runs:
        t0 = time.perf_counter()
        hashes[run.label] = sim.run_scenario(run.load()).trace_hash
        untraced_s += time.perf_counter() - t0

    tracer = Tracer()
    packets: list = []
    failed_checks: list[str] = []
    results = []
    traced_s = 0.0
    try:
        tracer.install()
        with reference.capture_sends(packets.append):
            for run in runs:
                t0 = time.perf_counter()
                results.append(sim.run_scenario(run.load()))
                traced_s += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(spans_out)
    for run, metrics in zip(runs, results):
        if metrics.trace_hash != hashes[run.label]:
            failed_checks.append("%s: traced and untraced trace hashes differ" % run.label)

    agg = tracer.summary()
    c = tracer.counts
    count = lambda name: agg.get(name, (0, 0.0, 0.0))[0]  # noqa: E731
    total = lambda name: agg.get(name, (0, 0.0, 0.0))[1]  # noqa: E731
    own = lambda name: agg.get(name, (0, 0.0, 0.0))[2]  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    engines = [e for s in tracer.sims for e in s.engines.values()]
    counters: Counter = Counter()
    for e in engines:
        counters.update(e.counters)
    cs_bytes = sum(
        int(line.rsplit(",", 1)[1]) for e in engines for line in e.cs.dump().splitlines()[1:]
    )
    encode_us, decode_us, bad_round_trips, encoded = _codec(packets)
    by_class: Counter = Counter()
    for p, b in zip(packets, encoded):
        by_class[reference.packet_class(p)] += len(b)
    if bad_round_trips:
        failed_checks.append("%d packets failed the codec round trip" % bad_round_trips)

    engine_ids = {tracer.ids[n] for n in tracer.names if n.startswith("engine.")}
    parse_id = tracer.ids.get("query.parse", -1)
    parses_in_engines = sum(
        1 for i in range(len(tracer.start))
        if tracer.name_id[i] == parse_id and tracer.has_ancestor(i, engine_ids)
    )
    handled = sum(count("engine.%s" % k) for k in PACKET_KINDS.values())
    report_s = 0.0
    run_id = tracer.ids.get("sim.run", -1)
    scenario_id = tracer.ids.get("sim.run_scenario", -1)
    for i in range(len(tracer.start)):
        if tracer.name_id[i] == run_id and tracer.parent[i] >= 0:
            p = tracer.parent[i]
            if tracer.name_id[p] == scenario_id:
                report_s += tracer.end[p] - tracer.end[i]

    sweep = _sweep(workdir, seed)
    probe_timeouts = 0
    if workload == "mesh":
        probe_timeouts = int(reference.spawn_loop_probe(workdir / "loop")["timed_out"])

    values: dict[str, float] = {
        "packet.tuple_builds": count("packet.tuple_build"),
        "packet.tuple_build_s": own("packet.tuple_build"),
        "packet.encode_us": encode_us,
        "packet.decode_us": decode_us,
        "tables.cs.inserts": count("tables.cs.insert"),
        "tables.cs.insert_s": own("tables.cs.insert"),
        "tables.cs.lookups": count("tables.cs.lookup"),
        "tables.cs.hit_ratio": ratio(c["tables.cs.hits"], count("tables.cs.lookup")),
        "tables.cs.bytes_end": cs_bytes,
        "tables.pit.ops": count("tables.pit"),
        "tables.pit.self_s": own("tables.pit"),
        "tables.pit.entries_end": sum(len(e.pit) for e in engines),
        "tables.fib.lookups": count("tables.fib.lookup"),
        "tables.fib.lookup_s": own("tables.fib.lookup"),
        "tables.fib.routes_end": sum(len(e.fib) for e in engines),
        "query.parses": count("query.parse"),
        "query.parse_s": own("query.parse"),
        "query.canonical_s": own("query.canonical"),
        "query.hash_s": own("query.hash"),
        "query.parses_per_control": ratio(
            parses_in_engines, count("engine.add_query") + count("engine.remove_query")
        ),
        "operators.join.pairs": c["operators.join.pairs"],
        "operators.join.match_ratio": ratio(c["operators.join.rows_out"], c["operators.join.pairs"]),
        "placement.build_path.calls": count("placement.build_path"),
        "placement.build_path.self_s": own("placement.build_path"),
        "placement.assign.calls": count("placement.assign"),
        "placement.assign.self_s": own("placement.assign"),
        "engine.dropped_share": ratio(counters["dropped"], counters["received"]),
        "engine.results_shipped": counters["results_shipped"],
        "engine.cs_replies": counters["cs_replies"],
        "engine.live_instances_end": sum(len(e.instances) for e in engines),
        "sim.load_s": total("sim.load"),
        "sim.init_s": total("sim.init"),
        "sim.replay_s": total("sim.replay"),
        "sim.loop_self_s": own("sim.run"),
        "sim.report_s": report_s,
        "sim.heap_events": c["sim.heap_events"],
        "sim.requeue_ratio": ratio(c["sim.heap_events"], handled),
        "sim.trace_lines": sum(len(m.trace) for m in results),
        "sim.link_drops": sum(sum(m.link_drops.values()) for m in results),
        "sim.loop_probe_timeouts": probe_timeouts,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.start),
    }
    for cls in ("stream", "snapshot", "data", "control"):
        values["packet.bytes.%s" % cls] = by_class[cls]
    for kind in OPERATOR_KINDS:
        key = "operators.%s" % kind
        values[key + ".calls"] = count(key)
        values[key + ".self_s"] = own(key)
        values[key + ".rows_in"] = c[key + ".rows_in"]
        values[key + ".rows_out"] = c[key + ".rows_out"]
    for kind in PACKET_KINDS.values():
        values["engine.%s.count" % kind] = count("engine.%s" % kind)
        values["engine.%s.self_s" % kind] = own("engine.%s" % kind)
    for n, seconds in sweep.items():
        values["sim.init_s.n%d" % n] = seconds

    queries = sum(len(s.spec.queries) for s in tracer.sims)
    lines = [
        "traced run: workload=%s seed=%d, %d spans written to %s" % (workload, seed, len(tracer.start), spans_out),
        "wall time: untraced %.3f s, traced %.3f s, tracing overhead %.3f s (%.0f %%)"
        % (untraced_s, traced_s, traced_s - untraced_s, 100.0 * ratio(traced_s - untraced_s, untraced_s)),
    ]
    for name, unit, _, moves in METRICS:
        lines.append("  %-32s %16.6g %-6s moves %s" % (name, values[name], unit, moves))
    for msg in failed_checks:
        lines.append("FAILED CHECK: %s" % msg)
    result = {
        "correct": not failed_checks,
        "attempted": handled + queries,
        "failed": len(failed_checks) + counters["errors"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _, _ in METRICS},
    }
    return result, lines
