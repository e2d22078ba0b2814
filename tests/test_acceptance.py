"""Acceptance gate: nine behavioral criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; without -s
pytest still enforces every assertion, it just swallows the prints.

Every expected value here is produced by an independent oracle written before
the comparison: brute-force enumeration for paths and joins, direct arithmetic
for forecasts and binning. None of them call back into the code under test.
"""

import contextlib
import json
import math
import random
import statistics
import time
from collections import Counter

import pytest

from icncep.engine import APP_FACE, Engine, NodeConfig
from icncep.operators import (
    EmptyWindow,
    PredictState,
    aggregate_eval,
    compile_join,
    heatmap_eval,
    join_eval,
    predict_eval,
)
from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    MalformedPacket,
    Name,
    Tuple,
    decode_packet,
    encode_packet,
)
from icncep.placement import NoPath, build_path
from icncep.query import (
    GPS_SCHEMA,
    AttrRef,
    Comparison,
    Duration,
    QueryError,
    SchemaCtx,
    create_operator_graph,
    default_streams,
)
from icncep.sim import (
    TopoLink,
    TopologyConfig,
    TopoNode,
    data_path,
    emit_metrics,
    generate_gps_csv,
    load_scenario,
    load_topology,
    override_scenario,
    run_scenario,
)

QUERY_IDS = ["q1", "q2", "q3", "q4", "q5", "q6"]
SIMPLE, COMPLEX = ("q1", "q2", "q3"), ("q4", "q5", "q6")


@contextlib.contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, label))
        raise
    print("criterion %d (%s): PASS" % (num, label))


# ---------------------------------------------------------------------------
# oracles (fixed before the comparisons; no calls into the code under test)


def oracle_join_ts(left, right):
    """All concatenations with equal timestamps, in (left, right) scan order."""
    return [
        (l.ts, l.values + r.values) for l in left for r in right if l.ts == r.ts
    ]


def oracle_grid(points, cell, lat_min, lat_max, long_min, long_max):
    """Independent floor-division binning; returns (grid, skipped)."""
    hc = math.floor((long_max - long_min) / cell)
    vc = math.floor((lat_max - lat_min) / cell)
    grid = [[0] * hc for _ in range(vc)]
    skipped = 0
    for lat, lon in points:
        if lat < lat_min or lon < long_min:
            skipped += 1
            continue
        row = math.floor((lat - lat_min) / cell)
        col = math.floor((lon - long_min) / cell)
        if row >= vc or col >= hc:
            skipped += 1
        else:
            grid[row][col] += 1
    return grid, skipped


def oracle_forecast(window_values, past_same_slot):
    """Current-average plus median-of-history."""
    current = sum(window_values) / len(window_values)
    if not past_same_slot:
        return current
    return current + statistics.median(past_same_slot)


def oracle_cheapest_path(delays, links, producers, consumer):
    """Exhaustive simple-path search minimizing (cost, node sequence)."""
    brokers = {n for n, e in delays.items() if not math.isinf(e)}
    adj = {}
    for (a, b), d in links.items():
        adj.setdefault(a, []).append((b, d))
        adj.setdefault(b, []).append((a, d))

    def attached(endpoint):
        if endpoint in brokers:
            return {endpoint}
        return {b for b, _ in adj.get(endpoint, []) if b in brokers}

    starts = set()
    for p in producers:
        starts |= attached(p)
    goals = attached(consumer)
    best = None

    def walk(path, cost):
        nonlocal best
        here = path[-1]
        if here in goals:
            cand = (cost, tuple(path))
            if best is None or cand < best:
                best = cand
            return
        for nxt, d in adj.get(here, []):
            if nxt in brokers and nxt not in path:
                walk(path + [nxt], cost + d + delays[nxt])

    for s in starts:
        walk([s], delays[s])
    return None if best is None else list(best[1])


def oracle_endpoints(delays, links, producers, consumer):
    """The start and goal brokers by oracle_cheapest_path's endpoint rule."""
    brokers = {n for n, e in delays.items() if not math.isinf(e)}

    def attached(endpoint):
        if endpoint in brokers:
            return {endpoint}
        return {b for pair in links if endpoint in pair for b in pair if b in brokers}

    return set().union(*map(attached, producers)), attached(consumer)


# ---------------------------------------------------------------------------
# shared runs: every shipped query in both deployment modes


@pytest.fixture(scope="module")
def shipped_runs():
    runs = {}
    for qid in QUERY_IDS:
        for mode in ("centralized", "distributed"):
            spec = load_scenario(str(data_path(qid + ".scn")))
            if mode == "centralized":
                spec = override_scenario(spec, topology="centralized", mode=mode)
            runs[(qid, mode)] = run_scenario(spec, collect_trace=False)
    return runs


def scenario_file(tmp_path, rows=100, poll=None, stop=150000, name="run.scn"):
    csv = tmp_path / ("feed_%s.csv" % name)
    generate_gps_csv(str(csv), seed=11, rows=rows)
    polltok = " poll=%d" % poll if poll else ""
    scn = tmp_path / name
    scn.write_text(
        "topology centralized\n"
        "seed 11\n"
        "stream GPS_S1 /node/p1/gps gps %s 1.0\n"
        "query q1 c1 50 %d centralized%s WINDOW(GPS_S1, 4s)\n"
        % (csv.name, stop, polltok)
    )
    return str(scn)


# ---------------------------------------------------------------------------
# criteria


def test_c1_parse_cost_scaling():
    with verdict(1, "parse cost scales sub-quadratically"):
        def nested(n):
            text = "WINDOW(GPS_S1, 4s)"
            for i in range(n - 1):
                text = "FILTER(%s, 'latitude' < %d)" % (text, 50 + i)
            return text

        samples = []
        for n in range(1, 21):
            text = nested(n)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(5):
                    tree = create_operator_graph(text)
                best = min(best, (time.perf_counter() - t0) / 5)
            assert tree.index == 0 and best < 0.010
            samples.append((math.log(n), math.log(best)))

        xm = statistics.fmean(x for x, _ in samples)
        ym = statistics.fmean(y for _, y in samples)
        slope = sum((x - xm) * (y - ym) for x, y in samples) / sum(
            (x - xm) ** 2 for x, _ in samples
        )
        assert slope < 1.5


def test_c2_push_economy(tmp_path):
    with verdict(2, "resident queries push instead of being polled"):
        push = run_scenario(
            load_scenario(scenario_file(tmp_path, name="push.scn")),
            collect_trace=False,
        )
        polled = run_scenario(
            load_scenario(scenario_file(tmp_path, poll=1000, name="poll.scn")),
            collect_trace=False,
        )
        assert push.queries["q1"].notifications == 100
        assert push.queries["q1"].control_packets == 2
        assert polled.queries["q1"].control_packets >= 100
        assert polled.queries["q1"].notifications >= 1


class _RecordingServices:
    def __init__(self):
        self.sent = []
        self.clock = 0

    def send(self, node_id, face_id, packet):
        self.sent.append((face_id, packet))

    def now(self):
        return self.clock

    def schedule(self, delay_ms, fn):
        pass

    def local_delay_ms(self, node_id):
        return 1.0

    def charge(self, node_id, ms):
        pass

    def event(self, node_id, kind, payload):
        pass


def test_c3_result_freshness():
    with verdict(3, "cached replies are never older than the newest tuple"):
        svc = _RecordingServices()
        eng = Engine(
            NodeConfig(
                node_id="b1",
                topology=load_topology("centralized"),  # c1 on face 1, p1 on face 2
                streams=default_streams(),
                mode="centralized",
            ),
            svc,
        )
        query = "FILTER(WINDOW(GPS_S1, 4s), 'latitude' < 50)"
        eng.handle_packet(AddQueryInterest(query=query, nonce=0), in_face=1)
        rng = random.Random(3)
        newest = 0
        seen = 0
        fresh_replies = 0
        for k in range(1, 41):
            ts = 1000 * k
            lat = 49.5 if rng.random() < 0.7 else 51.0  # some tuples filtered out
            t = Tuple.from_values("gps", (ts, 1.0, lat, 8.65, 120.0, 5.0, 0.0, 10.0))
            svc.clock = ts
            eng.handle_packet(
                DataStream(stream_name=Name.from_uri("/node/p1/gps"), tuple=t),
                in_face=2,
            )
            newest = ts
            eng.handle_packet(AddQueryInterest(query=query, nonce=k), in_face=1)
            for face_id, packet in svc.sent[seen:]:
                if (
                    face_id == 1
                    and isinstance(packet, Data)
                    and packet.name.components[0] == "ce"
                ):
                    payload = json.loads(packet.payload.decode())
                    assert payload["ts"] >= newest
                    fresh_replies += 1
            seen = len(svc.sent)
        assert fresh_replies > 0  # plenty of re-adds were answered from cache


def test_c4_latency_breakdown(shipped_runs, tmp_path):
    with verdict(4, "delay splits add up and rank query complexity"):
        totals = {}
        for (qid, mode), metrics in shipped_runs.items():
            out = tmp_path / ("%s_%s.csv" % (qid, mode))
            emit_metrics(metrics, str(out))
            lines = [
                l for l in out.read_text().splitlines() if l and not l.startswith("#")
            ]
            assert lines[0] == "query,total_ms,graph_ms,placement_ms,communication_ms"
            name, total, graph, place, comm = lines[1].split(",")
            assert name == qid
            assert abs(float(total) - (float(graph) + float(place) + float(comm))) < 1e-9
            if mode == "centralized":
                assert float(place) == 0.0
            totals[(qid, mode)] = float(total)
        for mode in ("centralized", "distributed"):
            cheap = max(totals[(q, mode)] for q in SIMPLE)
            rich = min(totals[(q, mode)] for q in COMPLEX)
            assert rich > cheap


def _notification_values(metrics, consumer="c1"):
    out = []
    for _, packet in metrics.app_deliveries.get(consumer, []):
        if isinstance(packet, Data) and packet.name.components[0] == "ce":
            payload = json.loads(packet.payload.decode())
            out.append((payload["ts"], payload["rows"]))
    return out


def test_c5_mode_equivalence(shipped_runs):
    with verdict(5, "central and distributed runs notify identical values"):
        for qid in QUERY_IDS:
            central = _notification_values(shipped_runs[(qid, "centralized")])
            spread = _notification_values(shipped_runs[(qid, "distributed")])
            assert central, qid
            assert central == spread, qid


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_c5_modes_agree_on_the_distributed_preset(shipped_runs, qid):
    """Centralized mode on the distributed topology, whose coordinator is not
    the ingress broker, notifies exactly what distributed mode does there."""
    spec = override_scenario(load_scenario(str(data_path(qid + ".scn"))), mode="centralized")
    central = run_scenario(spec, collect_trace=False)
    assert not any(n.get("errors") for n in central.nodes.values())
    values = _notification_values(central)
    assert values, qid
    assert values == _notification_values(shipped_runs[(qid, "distributed")]), qid


def test_c6_operator_correctness():
    with verdict(6, "operators agree with independent arithmetic"):
        rng = random.Random(6)
        gps = lambda ts, lat, lon: Tuple.from_values(
            "gps", (ts, 1.0, lat, lon, 120.0, 5.0, 0.0, 10.0)
        )
        left_ctx = SchemaCtx.single("GPS_S1", GPS_SCHEMA)
        right_ctx = SchemaCtx.single("GPS_S2", GPS_SCHEMA)
        cond = compile_join(
            Comparison(AttrRef("ts", "GPS_S1"), "=", AttrRef("ts", "GPS_S2")), left_ctx, right_ctx
        )
        for _ in range(50):
            left = [
                gps(rng.randint(1, 4) * 1000, 49.9, 8.65)
                for _ in range(rng.randint(0, 8))
            ]
            right = [
                gps(rng.randint(1, 4) * 1000, 49.7, 8.62)
                for _ in range(rng.randint(0, 8))
            ]
            got = join_eval(left, right, cond)
            assert [(t.ts, t.values) for t in got] == oracle_join_ts(left, right)

        bounds = (49.86, 49.92, 8.61, 8.69)
        points = [
            (rng.uniform(49.85, 49.93), rng.uniform(8.60, 8.70)) for _ in range(1000)
        ]
        grid, skipped = heatmap_eval(
            [gps(1000, lat, lon) for lat, lon in points], 0.01, bounds, left_ctx
        )
        want_grid, want_skipped = oracle_grid(points, 0.01, *bounds)
        assert grid == want_grid
        assert skipped == want_skipped
        assert sum(map(sum, grid)) + skipped == 1000

        speed = AttrRef("speed")
        for _ in range(30):
            rows = [
                gps(1000 * i, 49.9, 8.65)
                for i in range(1, rng.randint(2, 21))
            ]
            rows = [
                Tuple(ts=t.ts, schema_id=t.schema_id,
                      values=t.values[:7] + (rng.uniform(0, 60),))
                for t in rows
            ]
            vals = [t.values[7] for t in rows]
            s = aggregate_eval("SUM", speed, rows, left_ctx).values[1]
            a = aggregate_eval("AVG", speed, rows, left_ctx).values[1]
            c = aggregate_eval("COUNT", speed, rows, left_ctx).values[1]
            assert c == len(vals)
            assert abs(a * c - s) <= 1e-9 * max(1.0, abs(s))
            assert aggregate_eval("MIN", speed, rows, left_ctx).values[1] == min(vals)
            assert aggregate_eval("MAX", speed, rows, left_ctx).values[1] == max(vals)
        with pytest.raises(EmptyWindow):
            aggregate_eval("AVG", speed, [], left_ctx)
        assert aggregate_eval("COUNT", speed, [], left_ctx).values[1] == 0

        plug = lambda ts, value: Tuple.from_values(
            "plug", (ts, 1.0, value, 0.0, 1.0, 2.0, 3.0)
        )
        horizon, slot = Duration(5, "m"), Duration(1, "m")
        day = 86400000
        for loads in ([12.0, 12.0, 12.0], [5.0, 15.0, 25.0]):  # constant, ramp
            state = PredictState()
            history = []
            for d, load in enumerate(loads):
                window = [plug(d * day + 600000 + i * 10000, load) for i in range(3)]
                state, pred = predict_eval(window, horizon, state, slot)
                assert pred is not None
                _, plug_id, household_id, house_id, predicted = pred.values
                want = oracle_forecast([load] * 3, history)
                assert abs(predicted - want) < 1e-9
                assert (plug_id, household_id, house_id) == (1.0, 2.0, 3.0)
                history.append(load)
            # inside the same horizon epoch nothing new is emitted
            state, pred = predict_eval([plug(2 * day + 620000, 99.0)], horizon, state, slot)
            assert pred is None


def test_c7_cheapest_path_matches_brute_force():
    with verdict(7, "planned broker paths match exhaustive search"):
        rng = random.Random(7)
        disagreements = 0
        solved = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            brokers = ["b%d" % i for i in range(n)]
            delays = {
                b: math.inf if rng.random() < 0.1 else rng.choice((0.5, 1.0, 2.0, 3.0))
                for b in brokers
            }
            links = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        links[(brokers[i], brokers[j])] = rng.choice((0.5, 1.0, 2.0))
            for endpoint in ("p", "c"):
                for b in rng.sample(brokers, rng.randint(0, 2)):
                    links[tuple(sorted((endpoint, b)))] = 1.0
            roles = dict.fromkeys(brokers, "broker") | {"p": "producer", "c": "consumer"}
            topology = TopologyConfig(
                "c7",
                {n: TopoNode(n, role, 1.0) for n, role in roles.items()},
                [TopoLink(a, b, d) for (a, b), d in links.items()],
            )
            producers = [rng.choice(brokers)] if rng.random() < 0.3 else ["p"]
            expected = oracle_cheapest_path(delays, links, producers, "c")
            try:
                got = build_path(
                    topology, delays, *oracle_endpoints(delays, links, producers, "c")
                )
            except NoPath:
                got = None
            if got != expected:
                disagreements += 1
            if expected is not None:
                solved += 1
        assert disagreements == 0
        assert solved > 50  # the generator must exercise real routing work


def test_c8_load_balance(tmp_path):
    with verdict(8, "plans stay balanced and degrade monotonically under load"):
        rows = 25
        for s_id, fname in ((1, "g1.csv"), (2, "g2.csv")):
            generate_gps_csv(str(tmp_path / fname), seed=8, s_id=s_id, rows=rows)
        template = (
            "JOIN(FILTER(WINDOW(GPS_S1, 4s), 'latitude' < %(b)s),"
            " FILTER(WINDOW(GPS_S2, 4s), 'latitude' < %(b)s),"
            " GPS_S1.'ts' = GPS_S2.'ts')"
        )
        consumers = ["b1", "b2", "b3", "b4", "b5"]
        means = []
        for load in (10, 20, 30, 40, 50):
            lines = [
                "topology distributed",
                "seed 8",
                "stream GPS_S1 /node/p1/gps gps g1.csv 1.0",
                "stream GPS_S2 /node/p2/gps gps g2.csv 1.0",
            ]
            for i in range(load):
                text = template % {"b": "%.3f" % (50 + i * 0.001)}
                # spaced adds: every plan must land, load still compounds
                lines.append(
                    "query v%02d %s %d %d distributed %s"
                    % (i, consumers[i % len(consumers)], 50 + i * 100,
                       1000 * rows + 5000, text)
                )
            scn = tmp_path / ("load%d.scn" % load)
            scn.write_text("\n".join(lines) + "\n")
            metrics = run_scenario(load_scenario(str(scn)), collect_trace=False)
            assert len(metrics.queries) == load

            plans = [
                payload
                for _, kind, payload in metrics.events
                if kind == "query_deployed"
            ]
            assert len(plans) == load
            for payload in plans:
                pinned = set(payload["pinned"])
                spread = Counter(
                    broker
                    for idx, broker in payload["assignments"].items()
                    if int(idx) not in pinned
                )
                per_broker = [spread.get(b, 0) for b in payload["path"]]
                assert max(per_broker) - min(per_broker) <= 1
            means.append(statistics.fmean(q.total_ms for q in metrics.queries.values()))
        for lighter, heavier in zip(means, means[1:]):
            assert heavier >= lighter - 1e-6


def test_c9_malformed_input_safety():
    with verdict(9, "hostile bytes and mangled queries fail closed"):
        rng = random.Random(9)
        sample = encode_packet(
            DataStream(
                stream_name=Name.from_uri("/node/p1/gps"),
                tuple=Tuple.from_values(
                    "gps", (1000, 1.0, 49.9, 8.65, 120.0, 5.0, 0.0, 10.0)
                ),
            )
        )
        decoded = 0
        for i in range(10000):
            if i % 2:
                blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 80)))
            else:
                mutated = bytearray(sample)
                mutated[rng.randrange(len(mutated))] = rng.getrandbits(8)
                blob = bytes(mutated)
            try:
                decode_packet(blob)
                decoded += 1
            except MalformedPacket:
                pass
        assert decoded > 0  # some single-byte mutations stay well-formed

        bases = [
            load_scenario(str(data_path(qid + ".scn"))).queries[0].text
            for qid in QUERY_IDS
        ]
        # non-ASCII letters and digits are illegal characters, not crashes
        glyphs = "()',.<>=&|0123456789 ABCDEFGHIJKLMNOPQRSTUVWXYZ_éß٣²→"
        parsed = 0
        for _ in range(1000):
            text = list(rng.choice(bases))
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                pos = rng.randrange(len(text))
                if kind == 0:
                    del text[pos]
                elif kind == 1:
                    text.insert(pos, rng.choice(glyphs))
                else:
                    text[pos] = rng.choice(glyphs)
            try:
                create_operator_graph("".join(text))
                parsed += 1
            except QueryError:
                pass
        assert parsed < 1000  # at least something must have been rejected
