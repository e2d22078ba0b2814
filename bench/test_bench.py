"""Tests of the benchmark itself: inputs, simulated metrics, tracing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.use_checkout_source()

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from icncep import engine, operators, packet, sim, tables  # noqa: E402
from icncep.sim import data_path  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    workloads.build(workload, 7, tmp_path / "a")
    workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    a, b, c = _files(tmp_path / "a"), _files(tmp_path / "b"), _files(tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_seed_42_reproduces_the_shipped_datasets(tmp_path):
    workloads.build("paper", 42, tmp_path)
    for name in ("gps_s1.csv", "gps_s2.csv", "plug_s1.csv", "plug_s2.csv"):
        assert (tmp_path / "datasets" / name).read_bytes() == data_path(name).read_bytes(), name


@pytest.mark.parametrize("workload", ["mesh", "churn"])
@pytest.mark.parametrize("seed", [3, 1345004560])  # at 1345004560 a churn threshold repeats
def test_query_texts_are_distinct(workload, seed, tmp_path):
    runs = workloads.build(workload, seed, tmp_path)
    texts = [q.text for q in runs[0].load().queries]
    assert len(texts) == len(set(texts))


TINY_CSV = (
    "ts,s_id,latitude,longitude,altitude,accuracy,distance,speed\n"
    "1000,1,49.9,8.65,120,5,0,10\n"
    "2000,1,49.9,8.65,120,5,0,10\n"
    "3000,1,49.9,8.65,120,5,0,10\n"
)


def _tiny(tmp_path: Path, *queries: str) -> workloads.Run:
    (tmp_path / "feed.csv").write_text(TINY_CSV)
    lines = ["topology centralized", "stream GPS_S1 /node/p1/gps gps feed.csv 1.0"]
    lines += ["query t%d c1 50 - centralized %s" % (i, q) for i, q in enumerate(queries)]
    (tmp_path / "tiny.scn").write_text("\n".join(lines) + "\n")
    return workloads.Run("tiny", str(tmp_path / "tiny.scn"))


def test_latency_and_failures_on_a_hand_checked_scenario(tmp_path):
    # p1 -> b1 -> c1 on the centralized preset: 1 ms per link and per node.
    # A tuple leaves p1 1 ms after its ts, reaches b1 at +2, leaves b1 at
    # +3.05 (node delay plus the 0.05 ms window charge), reaches c1 at +4.05
    # and the consumer application at +5.05.
    result, values = reference.replay([_tiny(tmp_path, "WINDOW(GPS_S1, 4s)")])
    assert result["latency_n"] == 3
    assert result["latency_p50"] == pytest.approx(5.05)
    assert result["latency_p99"] == pytest.approx(5.05)
    assert [ts for ts, _ in values["tiny"]] == [1000, 2000, 3000]
    # on links: 1 AddQueryInterest c1->b1, 3 tuples p1->b1, 3 results b1->c1;
    # a tuple is 1 tag + 17 name + 87 tuple bytes
    assert result["totals"]["net_packets"] == 7
    assert result["bytes_by_class"]["stream"] == 3 * 105
    # received: p1 3 tuples; b1 3 tuples + 1 query; c1 1 query + 3 results
    assert reference.tally(result, []) == (11 + 1, 0)
    assert reference.tally(result, ["a timed replay differed"]) == (12, 1)


def test_a_query_that_never_notifies_counts_as_a_failure(tmp_path):
    result, _ = reference.replay(
        [_tiny(tmp_path, "WINDOW(GPS_S1, 4s)", "FILTER(WINDOW(GPS_S1, 4s), 'speed' > 100)")]
    )
    assert result["failed_checks"] == ["tiny: query t1 never notified"]
    # the second query adds one packet received by c1 (from the app) and one by b1
    assert reference.tally(result, []) == (13 + 2, 1)


def test_wire_packet_keeps_the_encoded_size():
    add = packet.AddQueryInterest(query="WINDOW(GPS_S1, 4s)", nonce="q1:12")
    with pytest.raises(Exception):
        packet.encode_packet(add)
    sized = packet.encode_packet(reference.wire_packet(add))
    assert len(sized) == len(packet.encode_packet(packet.AddQueryInterest(add.query, 2**63)))


def _originals() -> dict[str, object]:
    targets = {
        "Tuple.__post_init__": packet.Tuple.__dict__["__post_init__"],
        "Engine.handle_packet": engine.Engine.__dict__["handle_packet"],
        "ContentStore.insert": tables.ContentStore.__dict__["insert"],
        "Simulator._at": sim.Simulator.__dict__["_at"],
        "engine.join_eval": engine.join_eval,
        "operators.join_eval": operators.join_eval,
        "sim.run_scenario": sim.run_scenario,
        "sim.canonical_text": sim.canonical_text,
    }
    return targets


def test_tracer_restores_every_original(tmp_path):
    before = _originals()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert engine.join_eval is not before["engine.join_eval"]
        assert layers.wrapped_targets()
        with pytest.raises(RuntimeError):
            run.check_unwrapped()
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert layers.wrapped_targets() == []


def test_untraced_measurement_refuses_wrapped_code(tmp_path):
    tiny = _tiny(tmp_path, "WINDOW(GPS_S1, 4s)")
    tracer = layers.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            run.timed_replays([tiny], {"tiny": ""}, 1e-9)
    finally:
        tracer.uninstall()
    setups, samples, wall, mismatches, passes, _ = run.timed_replays([tiny], {"tiny": ""}, 1e-9)
    assert passes == 1 and samples == {"tiny": []} and len(mismatches) == 1
    assert len(setups["tiny"]) == len(wall["setups"]["tiny"]) >= 1
    # the host-speed sampler is gone again
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_host_speed_cuts_out_sampling_and_scales_by_the_speed_around():
    ref = run.CALIBRATION_REF_S
    speed = run.HostSpeed()
    # two kernel calls that each took twice the reference time
    speed.samples = [(0.0, 2 * ref), (10.0, 10.0 + 2 * ref)]
    assert speed.ran(0.0, 10.0) == pytest.approx(10.0 - 2 * ref)
    assert speed.scaled(0.0, 10.0) == pytest.approx((10.0 - 2 * ref) / 2)
    # a short interval between the calls is scaled by the call near it
    assert speed.scaled(9.9, 9.95) == pytest.approx(0.05 / 2)


def test_self_time_subtracts_children():
    tracer = layers.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.span(leaf, "leaf")

    def outer():
        return traced_leaf() + traced_leaf()

    tracer.span(outer, "outer")()
    agg = tracer.summary()
    count, total, own = agg["outer"]
    leaf_count, leaf_total, leaf_own = agg["leaf"]
    assert (count, leaf_count) == (1, 2)
    assert leaf_own == pytest.approx(leaf_total)
    assert own == pytest.approx(total - leaf_total)
    assert list(tracer.parent) == [-1, 0, 0]


def test_tracer_counts_layer_work_on_the_tiny_scenario(tmp_path):
    tracer = layers.Tracer()
    tracer.install()
    try:
        with reference.capture_sends(lambda p: None):
            sim.run_scenario(_tiny(tmp_path, "WINDOW(GPS_S1, 4s)").load())
    finally:
        tracer.uninstall()
    agg = tracer.summary()
    assert agg["engine.stream"][0] == 6  # p1 and b1 each handle three tuples
    assert agg["operators.window"][0] == 3
    assert tracer.counts["operators.window.rows_out"] == 1 + 2 + 3
    assert len(tracer.sims) == 1


def test_benchmark_json_matches_the_code():
    doc = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS
    ]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_loop_probe_is_bounded_in_time(tmp_path):
    probe = reference.spawn_loop_probe(tmp_path)
    assert probe["seconds"] < reference.LOOP_TIMEOUT_S + 10
    assert probe["timed_out"] or probe["exit"] == 0
