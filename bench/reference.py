"""Reference pass and loop probe.

The reference pass replays every scenario of a workload once, untimed, with
event tracing on as `icncep run-sim` does. It sizes every packet put on a
link with the wire codec, derives the simulated end-to-end metrics and runs
the output checks. It is the first pass of a run, so it also warms the
process up before the timed replays.

The loop probe replays the reproducer of known defect 1, which never ends
today, in a child process; the parent kills it after `LOOP_TIMEOUT_S` and
counts a timeout:

    python3 bench/reference.py loop <workdir>
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator

import checkout

checkout.use_checkout_source()

import workloads  # noqa: E402
from icncep import sim  # noqa: E402
from icncep.engine import APP_FACE  # noqa: E402
from icncep.packet import (  # noqa: E402
    AddQueryInterest,
    Data,
    DataStream,
    Packet,
    RemoveQueryInterest,
    encode_packet,
)
from icncep.query import canonical_text, create_operator_graph, query_hash  # noqa: E402

LOOP_TIMEOUT_S = 3.0

# ---------------------------------------------------------------------------
# packets on the wire


def wire_packet(p: Packet) -> Packet:
    """The packet as the codec can encode it.

    The simulator's query-control packets carry text nonces such as "q1:1",
    which the codec's 64-bit nonce field cannot hold. A zero nonce has the
    same width, so the encoded size is unchanged.
    """
    if isinstance(p, (AddQueryInterest, RemoveQueryInterest)) and not isinstance(p.nonce, int):
        return replace(p, nonce=0)
    return p


def packet_class(p: Packet) -> str:
    """stream (producer tuples), snapshot (/state/.../out), data, or control."""
    if isinstance(p, DataStream):
        return "snapshot" if p.stream_name.components[0] == "state" else "stream"
    if isinstance(p, Data):
        return "data"
    return "control"


@contextmanager
def capture_sends(sink: Callable[[Packet], None]) -> Iterator[None]:
    """Call `sink` with every packet the simulator puts on a link.

    Deliveries to the application face and stream packets dropped for lack
    of link capacity never reach a link and are not passed on.
    """
    original = sim.Simulator._dispatch

    def dispatch(self, node, face_id, packet, at):
        original(self, node, face_id, packet, at)
        if face_id == APP_FACE:
            return
        flight = self._in_flight.get((node, self.engines[node].faces[face_id].peer))
        # a packet put on a link takes uid _seq - 1; its delivery event takes _seq
        if flight and flight[-1][0] == self._seq - 1:
            sink(packet)

    dispatch.__bench_wrapped__ = True
    sim.Simulator._dispatch = dispatch
    try:
        yield
    finally:
        sim.Simulator._dispatch = original


# ---------------------------------------------------------------------------
# simulated metrics and output checks


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def notifications(spec: sim.ScenarioSpec, metrics: sim.Metrics) -> dict[str, list[tuple[float, Data]]]:
    """/ce/ deliveries to each query's consumer application, by query id."""
    bindings = spec.bindings()
    out: dict[str, list[tuple[float, Data]]] = {}
    for q in spec.queries:
        unsalted = query_hash(canonical_text(create_operator_graph(q.text, bindings)))
        out[q.query_id] = [
            (at, p)
            for at, p in metrics.app_deliveries.get(q.consumer, [])
            if isinstance(p, Data) and p.name.components[:2] == ("ce", unsalted)
        ]
    return out


def result_latencies(spec: sim.ScenarioSpec, by_query: dict) -> list[float]:
    """Delivery time minus the emission time of the result's watermark tuple.

    The watermark tuple left its producer at ts / rate. Queries over several
    streams use the rate of their first stream; the workloads give every
    stream the same rate.
    """
    rate = {s.alias: s.rate for s in spec.streams}
    bindings = spec.bindings()
    out = []
    for q in spec.queries:
        first = sorted(create_operator_graph(q.text, bindings).stream_aliases())[0]
        out += [at - p.ts / rate[first] for at, p in by_query[q.query_id]]
    return out


def _values(deliveries: list[tuple[float, Data]]) -> list:
    out = []
    for _, p in deliveries:
        doc = json.loads(p.payload.decode("utf-8"))
        out.append((doc["ts"], doc["rows"]))
    return out


def replay(runs: list[workloads.Run]) -> tuple[dict, dict[str, list]]:
    """Replay each run once; returns the result and, per run, the first
    query's notifications as (ts, rows)."""
    totals: Counter = Counter()
    by_class: Counter = Counter()
    latencies: list[float] = []
    deploys: list[float] = []
    failed_checks: list[str] = []
    hashes: dict[str, str] = {}
    values: dict[str, list] = {}

    def sink(p: Packet) -> None:
        size = len(encode_packet(wire_packet(p)))
        totals["net_packets"] += 1
        totals["net_bytes"] += size
        by_class[packet_class(p)] += size

    for run in runs:
        spec = run.load()
        before = totals["net_packets"]
        with capture_sends(sink):
            metrics = sim.run_scenario(spec)
        hashes[run.label] = metrics.trace_hash
        totals["queries"] += len(spec.queries)
        for counters in metrics.nodes.values():
            totals["received"] += counters.get("received", 0)
            totals["errors"] += counters.get("errors", 0)
        deployed = set()
        for _, kind, payload in metrics.events:
            if kind in ("plan_failed", "deploy_timeout"):
                totals[kind] += 1
            elif kind == "query_deployed":
                deployed.add(payload["nonce"].split(":")[0])
                if payload["mode"] == "distributed":
                    deploys.append(payload["placement_sim_ms"])
        by_query = notifications(spec, metrics)
        latencies += result_latencies(spec, by_query)

        sends = sum(1 for line in metrics.trace if " send uid=" in line)
        captured = totals["net_packets"] - before
        if sends != captured:
            failed_checks.append("%s: %d sends traced, %d captured" % (run.label, sends, captured))
        for q in spec.queries:
            if q.query_id not in deployed:
                failed_checks.append("%s: query %s never deployed" % (run.label, q.query_id))
            if not by_query[q.query_id]:
                failed_checks.append("%s: query %s never notified" % (run.label, q.query_id))
        values[run.label] = _values(by_query[spec.queries[0].query_id])

    result = {
        "hashes": hashes,
        "totals": dict(totals),
        "bytes_by_class": dict(by_class),
        "latency_p50": percentile(latencies, 0.50) if latencies else None,
        "latency_p99": percentile(latencies, 0.99) if latencies else None,
        "latency_n": len(latencies),
        "deploy_p50": percentile(deploys, 0.50) if deploys else None,
        "deploy_n": len(deploys),
        "failed_checks": failed_checks,
    }
    return result, values


def reference_pass(workload: str, seed: int, runs: list[workloads.Run]) -> dict:
    """Replay the workload once and run its output checks.

    On paper, centralized and distributed runs must notify identical
    (ts, rows), and at seed 42 every trace hash must equal the pinned one.
    """
    result, values = replay(runs)
    checks = result["failed_checks"]
    if workload == "paper":
        for qid in workloads.PAPER_QUERIES:
            if values["%s/centralized" % qid] != values["%s/distributed" % qid]:
                checks.append("%s: centralized and distributed notifications differ" % qid)
        if seed == 42:
            for (qid, mode), pinned in workloads.PAPER_HASHES_SEED42.items():
                got = result["hashes"]["%s/%s" % (qid, mode)]
                if not got.startswith(pinned):
                    checks.append("%s/%s: trace hash %s, pinned %s" % (qid, mode, got[:8], pinned))
    return result


def tally(result: dict, more_checks: list[str]) -> tuple[int, int]:
    """(attempted, failed) behind failed_share.

    Attempts are packets received by engines plus queries issued. Failures
    are engine errors, plan_failed and deploy_timeout events, and failed
    output checks.
    """
    totals = result["totals"]
    failed = (
        totals.get("errors", 0) + totals.get("plan_failed", 0) + totals.get("deploy_timeout", 0)
        + len(result["failed_checks"]) + len(more_checks)
    )
    return totals["received"] + totals["queries"], failed


# ---------------------------------------------------------------------------
# loop probe


def spawn_loop_probe(workdir: Path) -> dict:
    """Replay the defect-1 reproducer under a wall-clock limit."""
    argv = [sys.executable, str(Path(__file__)), "loop", str(workdir)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=LOOP_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        timed_out = True
    return {
        "timed_out": timed_out,
        "exit": proc.returncode,
        "seconds": time.perf_counter() - started,
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "loop":
        run = workloads.build_loop_probe(Path(argv[1]))
        sim.run_scenario(run.load(), collect_trace=False)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
