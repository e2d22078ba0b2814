"""Seeded inputs for the benchmark workloads.

Each workload writes its topology, scenario and dataset files into a work
directory and returns the runs to replay. The program only ever sees these
generated files; the seed never reaches it directly. Why each workload
exists, which layer it loads and which it bypasses is recorded in
`bench/README.md`; the short form sits next to each builder below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checkout

checkout.use_checkout_source()

from icncep import sim  # noqa: E402  (after the source path is set)
from icncep.sim import data_path, generate_gps_csv, generate_plug_csv  # noqa: E402

WORKLOADS = ("paper", "mesh", "churn")
PAPER_QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6")

# the shipped trace hashes of `paper` at seed 42, with event tracing on
PAPER_HASHES_SEED42 = {
    ("q1", "centralized"): "41e13ee4",
    ("q2", "centralized"): "86586615",
    ("q3", "centralized"): "413d5c5e",
    ("q4", "centralized"): "08b09400",
    ("q5", "centralized"): "909034b7",
    ("q6", "centralized"): "349dfa1a",
    ("q1", "distributed"): "138cd143",
    ("q2", "distributed"): "637ac7e9",
    ("q3", "distributed"): "73018bb6",
    ("q4", "distributed"): "0c60b24e",
    ("q5", "distributed"): "af5a51c4",
    ("q6", "distributed"): "edec0a5b",
}


@dataclass(frozen=True)
class Run:
    """One scenario replay: a generated .scn file, optionally re-targeted."""

    label: str
    scenario: str
    topology: Optional[str] = None
    mode: Optional[str] = None

    def load(self) -> sim.ScenarioSpec:
        """Load through the public API; the traced run wraps these calls."""
        spec = sim.load_scenario(self.scenario)
        if self.topology or self.mode:
            spec = sim.override_scenario(spec, topology=self.topology, mode=self.mode)
        return spec


def build(workload: str, seed: int, workdir: Path) -> list[Run]:
    builders = {"paper": build_paper, "mesh": build_mesh, "churn": build_churn}
    if workload not in builders:
        raise ValueError("unknown workload %r (have %s)" % (workload, ", ".join(WORKLOADS)))
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[workload](seed, workdir)


# ---------------------------------------------------------------------------
# paper: the six shipped queries on both presets


def build_paper(seed: int, workdir: Path) -> list[Run]:
    """q1-q6 on the distributed preset and re-targeted to centralized.

    Loads the operators (q4's join and heat map dominate); set-up is tiny.
    At seed 42 the datasets equal the shipped CSVs byte for byte.
    """
    datasets, scenarios = workdir / "datasets", workdir / "scenarios"
    datasets.mkdir(exist_ok=True)
    scenarios.mkdir(exist_ok=True)
    for k in (1, 2):
        generate_gps_csv(str(datasets / ("gps_s%d.csv" % k)), seed=seed, s_id=k)
        generate_plug_csv(str(datasets / ("plug_s%d.csv" % k)), seed=seed, plug_id=k)
    runs = []
    for qid in PAPER_QUERIES:
        text = data_path(qid + ".scn").read_text()
        lines = [("seed %d" % seed) if l.startswith("seed ") else l for l in text.splitlines()]
        scn = scenarios / (qid + ".scn")
        scn.write_text("\n".join(lines) + "\n")
        runs.append(Run("%s/centralized" % qid, str(scn), "centralized", "centralized"))
        runs.append(Run("%s/distributed" % qid, str(scn)))
    return runs


# ---------------------------------------------------------------------------
# shared query mix for mesh and churn


def _query_text(i: int, aliases: list[str], rng: random.Random) -> str:
    """The i-th query: kind, windows, streams and attributes follow from i;
    filter thresholds come from rng.

    Keeping window sizes and stream pairs fixed keeps the work and traffic of
    the mix about the same from seed to seed.
    """
    kind, j = ("FILTER", "AVG", "JOIN", "SEQUENCE")[i % 4], i // 4
    a = aliases[j % len(aliases)]
    b = aliases[(j + 1 + j // len(aliases)) % len(aliases)]
    if a == b:
        b = aliases[(j + 1) % len(aliases)]
    w = 2 + j % 5
    if kind == "FILTER":
        return "FILTER(WINDOW(%s, %ds), 'speed' > %.2f)" % (a, w, rng.uniform(5.0, 20.0))
    if kind == "AVG":
        attr = ("speed", "altitude", "accuracy", "distance")[(j // 5) % 4]
        return "AVG('%s', WINDOW(%s, %ds))" % (attr, a, w)
    if kind == "JOIN":
        v = 2 + (j // 5) % 5
        return "JOIN(WINDOW(%s, %ds), WINDOW(%s, %ds), %s.'ts' = %s.'ts')" % (a, w, b, v, a, b)
    return "SEQUENCE(FILTER(WINDOW(%s, %ds), 'accuracy' < %.2f) -> WINDOW(%s, %ds))" % (
        a, w, rng.uniform(3.0, 8.0), b, w,
    )


def _query_mix(count: int, aliases: list[str], rng: random.Random) -> list[str]:
    """Equal shares of FILTER, AVG, JOIN and SEQUENCE queries, all distinct.

    Bare WINDOW roots are left out: on a cyclic mesh they trigger the
    forwarding loop of known defect 1 (see `build_loop_probe`).

    A query whose text equals one already live joins that query's PIT entry
    instead of deploying, so a FILTER or SEQUENCE threshold that repeats an
    earlier one is drawn again. AVG and JOIN texts are distinct by
    construction for fewer than 80 queries.
    """
    texts: list[str] = []
    for i in range(count):
        text = _query_text(i, aliases, rng)
        while text in texts:
            text = _query_text(i, aliases, rng)
        texts.append(text)
    return texts


def _gps_streams(workdir: Path, seed: int, count: int, rows: int, start_ts: int = 1000) -> list[str]:
    lines = []
    for k in range(1, count + 1):
        csv = workdir / ("gps_s%d.csv" % k)
        generate_gps_csv(str(csv), seed=seed, s_id=k, rows=rows, start_ts=start_ts)
        lines.append("stream GPS_S%d /node/p%d/gps gps %s 1.0" % (k, k, csv.name))
    return lines


# ---------------------------------------------------------------------------
# mesh: a cyclic broker overlay


MESH_BROKERS = 64
MESH_CHORDS = 32
MESH_PRODUCERS = 4
MESH_CONSUMERS = 8
MESH_QUERIES = 40
MESH_ROWS = 300
MESH_SPACING_MS = 150
MESH_DATA_START_MS = 10000  # after the last query has deployed


def mesh_topology(seed: int, brokers: int, chords: int, producers: int, consumers: int) -> str:
    """A random spanning tree plus chords, with seeded link delays of 1-3 ms.

    The graph (tree, chords, and the brokers that producers and consumers
    hang off) is the same for every seed, so that hop counts, and with them
    the simulated metrics, differ little between seeds; the link delays,
    which decide the cheapest placement paths, come from the seed. Broker
    ids are zero-padded so that id order equals numeric order.
    """
    skeleton = random.Random("mesh-skeleton:%d" % brokers)
    rng = random.Random("mesh:%d:%d" % (seed, brokers))
    ids = ["b%03d" % i for i in range(1, brokers + 1)]
    lines = ["node %s broker 1" % b for b in ids]
    edges: set[tuple[str, str]] = set()
    for i in range(1, brokers):
        edges.add(tuple(sorted((ids[i], ids[skeleton.randrange(i)]))))
    while len(edges) < brokers - 1 + chords:
        a, b = skeleton.sample(ids, 2)
        edges.add(tuple(sorted((a, b))))
    links = ["link %s %s %d" % (a, b, rng.randint(1, 3)) for a, b in sorted(edges)]
    for role, prefix, n in (("producer", "p", producers), ("consumer", "c", consumers)):
        for k in range(1, n + 1):
            lines.append("node %s%d %s 1" % (prefix, k, role))
            links.append("link %s%d %s %d" % (prefix, k, skeleton.choice(ids), rng.randint(1, 3)))
    return "\n".join(lines + links) + "\n"


def build_mesh(seed: int, workdir: Path) -> list[Run]:
    """40 distributed queries on a cyclic 64-broker mesh.

    Loads simulator set-up (the per-node BFS routing is O(N^4)), forwarding
    over many hops and planning over alternative paths; operators do little.
    The streams start once every query has deployed, so that result latency
    measures steady forwarding rather than the probe bursts of planning.
    """
    (workdir / "mesh.topo").write_text(
        mesh_topology(seed, MESH_BROKERS, MESH_CHORDS, MESH_PRODUCERS, MESH_CONSUMERS)
    )
    rng = random.Random("mesh-queries:%d" % seed)
    aliases = ["GPS_S%d" % k for k in range(1, MESH_PRODUCERS + 1)]
    lines = ["topology mesh.topo", "seed %d" % seed]
    lines += _gps_streams(workdir, seed, MESH_PRODUCERS, MESH_ROWS, MESH_DATA_START_MS)
    for i, text in enumerate(_query_mix(MESH_QUERIES, aliases, rng)):
        consumer = "c%d" % (i % MESH_CONSUMERS + 1)
        lines.append("query m%d %s %d - distributed %s" % (i, consumer, 100 + i * MESH_SPACING_MS, text))
    scn = workdir / "mesh.scn"
    scn.write_text("\n".join(lines) + "\n")
    return [Run("mesh", str(scn))]


def mesh_sweep_topology(workdir: Path, seed: int, brokers: int) -> Path:
    """A mesh of the given size for the set-up scaling sweep of the traced run."""
    path = workdir / ("sweep_n%d.topo" % brokers)
    path.write_text(mesh_topology(seed, brokers, brokers // 2, MESH_PRODUCERS, MESH_CONSUMERS))
    return path


# ---------------------------------------------------------------------------
# churn: queries come and go on the distributed preset


CHURN_CONSUMERS = 4
CHURN_QUERIES = 56
CHURN_LIFETIME_MS = 30000
CHURN_POLL_MS = 5000
CHURN_ROWS = 600


def build_churn(seed: int, workdir: Path) -> list[Run]:
    """56 short-lived queries plus 4 polling consumers on the distributed preset.

    Loads the write side (add, remove, deploy, PIT and CS churn) beside the
    streaming reads. The pollers re-issue their query every 5 s all run long,
    which is where known defect 2 (stale content-store replies) shows.
    """
    topo = data_path("distributed.topo").read_text().rstrip("\n").splitlines()
    for k in range(2, CHURN_CONSUMERS + 1):
        topo += ["node c%d consumer 1" % k, "link c%d b6 1" % k]
    (workdir / "churn.topo").write_text("\n".join(topo) + "\n")
    rng = random.Random("churn-queries:%d" % seed)
    lines = ["topology churn.topo", "seed %d" % seed]
    lines += _gps_streams(workdir, seed, 2, CHURN_ROWS)
    texts = _query_mix(CHURN_QUERIES + CHURN_CONSUMERS, ["GPS_S1", "GPS_S2"], rng)
    end_ms = 1000 * CHURN_ROWS
    for k in range(CHURN_CONSUMERS):
        lines.append(
            "query poll%d c%d %d %d distributed poll=%d %s"
            % (k, k + 1, 100 + 50 * k, end_ms, CHURN_POLL_MS, texts[CHURN_QUERIES + k])
        )
    stagger = (end_ms - CHURN_LIFETIME_MS) // CHURN_QUERIES
    for i in range(CHURN_QUERIES):
        start = 500 + i * stagger + rng.randrange(stagger // 2)
        lines.append(
            "query q%d c%d %d %d distributed %s"
            % (i, i % CHURN_CONSUMERS + 1, start, start + CHURN_LIFETIME_MS, texts[i])
        )
    scn = workdir / "churn.scn"
    scn.write_text("\n".join(lines) + "\n")
    return [Run("churn", str(scn))]


# ---------------------------------------------------------------------------
# known defect 1: forwarding loop on a cyclic topology


LOOP_LINKS = (
    ("b1", "b2"), ("b1", "b3"), ("b1", "b5"), ("b2", "b3"), ("b2", "b5"), ("b2", "b6"),
    ("b3", "b4"), ("b3", "b5"), ("b4", "b8"), ("b5", "b7"), ("b6", "b8"),
)


def build_loop_probe(workdir: Path) -> Run:
    """The 8-broker reproducer of defect 1; its run never ends today.

    The host of a bare WINDOW root has no route for the stream name, so
    longest-prefix match falls back to the /node/<producer> route, whose next
    hop can differ from the face the tuple came in on.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    nodes = ["node b%d broker 1" % k for k in range(1, 9)]
    nodes += ["node p1 producer 1", "node c1 consumer 1", "node c2 consumer 1", "node c3 consumer 1"]
    links = ["link %s %s 1" % ab for ab in LOOP_LINKS]
    links += ["link p1 b1 1", "link c1 b8 1", "link c2 b6 1", "link c3 b2 1"]
    (workdir / "loop.topo").write_text("\n".join(nodes + links) + "\n")
    generate_gps_csv(str(workdir / "loop.csv"), seed=1, s_id=1, rows=60)
    lines = [
        "topology loop.topo",
        "seed 1",
        "stream GPS_S1 /node/p1/gps gps loop.csv 1.0",
        "query w1 c1 100 - distributed WINDOW(GPS_S1, 4s)",
        "query w2 c2 200 - distributed WINDOW(GPS_S1, 5s)",
        "query w3 c3 300 - distributed WINDOW(GPS_S1, 6s)",
    ]
    scn = workdir / "loop.scn"
    scn.write_text("\n".join(lines) + "\n")
    return Run("loop", str(scn))
