"""Command-line front end: parse, explain, run-sim, replay, metrics.

Exit codes: 0 success, 1 syntax error in a query, 2 semantic rejection,
3 configuration or I/O failure. Commands validate their inputs fully before
writing anything.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from .placement import NoPath, plan_dump, plan_query
from .query import (
    STREAM_SCHEMAS,
    LexError,
    ParseError,
    QueryError,
    _render_param,
    canonical_text,
    create_operator_graph,
    to_nfn_expression,
)
from .sim import (
    ConfigError,
    SchemaMismatch,
    StreamDef,
    emit_metrics,
    load_scenario,
    override_scenario,
    replay_dataset,
    run_scenario,
    valid_rate,
)

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_SEMANTIC = 2
EXIT_CONFIG = 3


def _cmd_parse(args) -> int:
    text = args.query
    if text is None or text == "-":
        text = sys.stdin.read()
    text = text.strip()
    if not text:
        print("error: empty query", file=sys.stderr)
        return EXIT_SYNTAX
    try:
        tree = create_operator_graph(text)
    except (LexError, ParseError) as err:
        print("syntax error: %s" % err, file=sys.stderr)
        return EXIT_SYNTAX
    except QueryError as err:
        print("semantic error: %s" % err, file=sys.stderr)
        return EXIT_SEMANTIC
    print("canonical: %s" % canonical_text(tree))
    for node in tree.walk():
        params = ",".join(_render_param(p) for p in node.params)
        suffix = " [%s]" % params if params else ""
        print("%s%d %s%s" % ("  " * node.depth, node.index, node.kind, suffix))
    print("nfn: %s" % to_nfn_expression(tree))
    return EXIT_OK


def _coordinator_for(spec, consumer: str) -> str:
    """`consumer`'s ingress broker, which coordinates its queries."""
    coordinator = spec.topology.ingress_broker(consumer)
    if coordinator is None:
        raise NoPath("topology %s has no broker to coordinate a query" % spec.topology.name)
    return coordinator


def _cmd_explain(args) -> int:
    try:
        spec = load_scenario(args.scenario)
    except ConfigError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    q = next((q for q in spec.queries if q.query_id == args.query_id), None)
    if q is None:
        known = ",".join(sorted(x.query_id for x in spec.queries))
        print("error: no query %r in scenario (have %s)" % (args.query_id, known), file=sys.stderr)
        return EXIT_SEMANTIC
    bindings = spec.bindings()
    tree = create_operator_graph(q.text, bindings)
    try:
        coordinator = _coordinator_for(spec, q.consumer)
        plan = plan_query(tree, coordinator, q.mode, spec.topology, bindings)
    except NoPath as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_SEMANTIC
    print(plan_dump(plan, tree))
    return EXIT_OK


def _cmd_run_sim(args) -> int:
    for flag, path in (("--metrics", args.metrics), ("--trace", args.trace)):
        if path and not Path(path).parent.is_dir():
            where = Path(path).parent
            print("error: %s %s: no directory %s" % (flag, path, where), file=sys.stderr)
            return EXIT_CONFIG
    try:
        spec = load_scenario(args.scenario)
        if args.topology or args.mode:
            spec = override_scenario(spec, topology=args.topology, mode=args.mode)
        metrics = run_scenario(spec)
    except (ConfigError, SchemaMismatch) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.metrics:
            emit_metrics(metrics, args.metrics)
        if args.trace:
            with Path(args.trace).open("w") as fh:
                metrics.trace.write(fh)
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    for qid in sorted(metrics.queries):
        q = metrics.queries[qid]
        print(
            "%s mode=%s notifications=%d control=%d total_ms=%.3f graph_ms=%.3f"
            " placement_ms=%.3f placement_sim_ms=%.3f plan_real_ms=%.3f communication_ms=%.3f"
            % (
                qid, q.mode, q.notifications, q.control_packets, q.total_ms, q.graph_ms,
                q.placement_ms, q.placement_sim_ms, q.plan_real_ms, q.communication_ms,
            )
        )
    drops = sum(metrics.link_drops.values())
    print("trace_hash=%s events=%d drops=%d" % (metrics.trace_hash, len(metrics.trace), drops))
    if metrics.reorder_warnings:
        print("reordered rows: %d" % metrics.reorder_warnings, file=sys.stderr)
    return EXIT_OK


def _cmd_replay(args) -> int:
    if args.limit is not None and args.limit < 0:
        print("error: --limit must not be negative, got %d" % args.limit, file=sys.stderr)
        return EXIT_CONFIG
    if not valid_rate(args.rate):
        print("error: --rate must be a finite number > 0, got %r" % args.rate, file=sys.stderr)
        return EXIT_CONFIG
    stream = StreamDef("REPLAY", args.uri, args.schema, args.csv, args.rate)
    try:
        schedule, warnings = replay_dataset(stream)
    except SchemaMismatch as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    limit = args.limit if args.limit is not None else len(schedule)
    for t, packet in schedule[:limit]:
        print("%.3f %s ts=%d" % (t, packet.stream_name.to_uri(), packet.tuple.ts))
    if warnings:
        print("reordered rows: %d" % warnings, file=sys.stderr)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    path = Path(args.csv)
    if not path.is_file():
        print("error: no metrics file %s" % args.csv, file=sys.stderr)
        return EXIT_CONFIG
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    if not lines:
        print("error: empty metrics file", file=sys.stderr)
        return EXIT_CONFIG
    header = lines[0].split(",")
    columns = header[1:]
    groups: dict[str, list[list[float]]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError
            groups.setdefault(cells[0], []).append([float(v) for v in cells[1:]])
        except ValueError:
            print("error: bad row %r" % line, file=sys.stderr)
            return EXIT_CONFIG
    for qid in sorted(groups):
        samples = groups[qid]
        parts = ["%s n=%d" % (qid, len(samples))]
        for i, col in enumerate(columns):
            vals = [row[i] for row in samples]
            mean = statistics.fmean(vals)
            # normal-approximation 95% interval over the runs
            ci = 1.96 * statistics.stdev(vals) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
            parts.append("%s=%.3f±%.3f" % (col, mean, ci))
        print(" ".join(parts))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icncep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a query and print its operator tree")
    p.add_argument("query", nargs="?", help="query text; omit or use - for stdin")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("explain", help="show the placement plan for a scenario query")
    p.add_argument("scenario")
    p.add_argument("query_id")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("run-sim", help="execute a scenario file")
    p.add_argument("scenario")
    p.add_argument("--metrics", help="write the per-query delay CSV here")
    p.add_argument("--trace", help="write the event trace here")
    p.add_argument("--topology", help="re-target onto another topology preset")
    p.add_argument("--mode", choices=("centralized", "distributed"))
    p.set_defaults(fn=_cmd_run_sim)

    p = sub.add_parser("replay", help="print the packet schedule for a dataset")
    p.add_argument("csv")
    p.add_argument("--schema", required=True, choices=sorted(STREAM_SCHEMAS))
    p.add_argument("--uri", default="/node/p1/gps")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("metrics", help="summarize metric CSV rows per query")
    p.add_argument("csv")
    p.set_defaults(fn=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
