"""Benchmark of the icncep simulator: one seeded workload per invocation.

    python3 bench/run.py --workload paper|mesh|churn --seed N --seconds S --trace 0|1

With --trace 0 the run measures end to end:

1. a reference pass: output checks, simulated metrics and bytes on the wire
   (see reference.py); it also warms the process up;
2. timed replays of run_scenario over every scenario, in whole passes until
   S seconds have gone, each replay preceded by timed set-ups
   (load_scenario/override_scenario plus Simulator.__init__) of the same
   scenario; every replay must reproduce the reference trace hash, and
   nothing may be wrapped while they run; host speed is sampled throughout
   and every time is scaled to a reference host (see HostSpeed);
3. peak memory as the peak RSS of this process, which is started fresh for
   each run;
4. on mesh, the loop probe for known defect 1.

With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics (see layers.py). Report lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The simulator is a batch job replaying a fixed scenario
in simulated time, so the load is neither open nor closed loop; everything
runs in one process and one thread, workloads one at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checkout

checkout.use_checkout_source()

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from icncep import sim  # noqa: E402

SETUP_PASS_S = 0.6  # set-up repeats per pass, shared out over the scenarios
# Host speed is sampled every SPEED_PERIOD_S during the timed replays, as the
# time of one calibration_kernel call. Each set-up and replay time is scaled
# to read as on a host where that call takes CALIBRATION_REF_S.
SPEED_PERIOD_S = 0.25
CALIBRATION_REF_S = 0.01
# String hashing is salted per process unless this is set. The salt changes
# the layout of every dict and set and, with it, replay time by up to a third
# between processes (trace hashes do not depend on it), so every run uses
# the same one.
HASH_SEED = "0"

# (name, unit, what it is); simulated quantities carry the unit sim_ms
END_TO_END = [
    ("setup_s", "s", "load/override plus Simulator.__init__, per-scenario medians summed, host-speed scaled"),
    ("tuples_per_s", "tuples/s", "dataset tuples / (run_scenario minus Simulator.__init__), medians, host-speed scaled"),
    ("peak_mem_mb", "MB", "peak RSS of the benchmark process (one run at a time)"),
    ("result_latency_p50_ms", "sim_ms", "simulated: /ce/ delivery time - watermark ts / rate, median"),
    ("result_latency_p99_ms", "sim_ms", "simulated: /ce/ delivery time - watermark ts / rate, p99"),
    ("deploy_latency_p50_ms", "sim_ms", "simulated: placement_sim_ms of distributed deployments, median"),
    ("net_packets", "count", "packets put on links (application-face deliveries excluded)"),
    ("net_bytes", "bytes", "encode_packet size of those packets"),
    ("ok_share", "ratio", "1 - failed / attempted"),
]


def calibration_kernel() -> int:
    """Fixed interpreter work that uses no code of the program under test.

    A plain bytecode loop. On the host described in README.md its speed
    follows the simulator's better than kernels that also format strings,
    match regexes or build dicts and JSON.
    """
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    return acc


class HostSpeed:
    """Samples host speed throughout an interval, from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it samples the
    speed in the middle of a replay as well as between replays. The time it
    takes is cut out of every interval measured while it is installed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel call

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def ran(self, a: float, b: float) -> float:
        """Time between perf_counter readings a and b, sampling cut out."""
        return b - a - sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.samples)

    def scaled(self, a: float, b: float) -> float:
        """ran(a, b) as on the reference host: each stretch of time counts
        CALIBRATION_REF_S over the kernel time sampled then, averaged over
        the samples within one period of the interval."""
        near = [(s, e) for s, e in self.samples if a - SPEED_PERIOD_S <= e and s <= b + SPEED_PERIOD_S]
        if not near:  # a C call held the handler back for more than a period
            near = [min(self.samples, key=lambda se: abs(se[0] - a))]
        return self.ran(a, b) * CALIBRATION_REF_S * statistics.mean(1.0 / (e - s) for s, e in near)


def check_unwrapped() -> None:
    wrapped = layers.wrapped_targets()
    if wrapped:
        raise RuntimeError("untraced run found wrappers on %s" % ", ".join(wrapped))


def dataset_tuples(spec: sim.ScenarioSpec) -> int:
    total = 0
    for stream in spec.streams:
        with open(stream.csv_path) as fh:
            total += sum(1 for line in fh if line.strip()) - 1
    return total


def timed_replays(runs: list[workloads.Run], hashes: dict[str, str], seconds: float):
    """Replay every scenario, in whole passes, until `seconds` have gone.

    Before each replay the scenario is set up (loaded, re-targeted and given
    a Simulator) repeatedly for its share of SETUP_PASS_S, at least once, so
    that set-up samples spread over the run like the replays. A replay's
    time is the wall time of run_scenario minus the median
    Simulator.__init__ time of the set-ups just before it. A replay whose
    trace hash differs from the reference is a failed check and its time is
    dropped. Garbage from the previous replay is collected before each
    clock starts.

    Host speed is sampled throughout (see HostSpeed); each set-up and
    replay time is returned twice, as measured (`wall`) and scaled to the
    reference host.
    """
    # perf_counter readings: (start, end) of each set-up and (start, end,
    # Simulator.__init__ intervals just before) of each matching replay
    setup_spans: dict[str, list[tuple[float, float]]] = {run.label: [] for run in runs}
    replay_spans: dict[str, list[tuple[float, float, list]]] = {run.label: [] for run in runs}
    mismatches: list[str] = []
    slot_s = SETUP_PASS_S / len(runs)
    passes = 0
    started = time.perf_counter()
    with HostSpeed() as speed:
        while passes == 0 or time.perf_counter() - started < seconds:
            for run in runs:
                check_unwrapped()
                gc.collect()
                inits = []
                slot = time.perf_counter()
                while not inits or time.perf_counter() - slot < slot_s:
                    t0 = time.perf_counter()
                    spec = run.load()
                    t1 = time.perf_counter()
                    sim.Simulator(spec)
                    t2 = time.perf_counter()
                    setup_spans[run.label].append((t0, t2))
                    inits.append((t1, t2))
                gc.collect()
                t0 = time.perf_counter()
                metrics = sim.run_scenario(spec)
                t1 = time.perf_counter()
                if metrics.trace_hash == hashes[run.label]:
                    replay_spans[run.label].append((t0, t1, inits))
                else:
                    mismatches.append("%s: timed replay hash %s differs from reference %s"
                                      % (run.label, metrics.trace_hash[:8], hashes[run.label][:8]))
                del metrics
            passes += 1
    elapsed = time.perf_counter() - started

    # a replay's time is run_scenario minus the median Simulator.__init__ before it
    wall = {"setups": {}, "replays": {}}
    setups, replays = {}, {}
    for label, spans in setup_spans.items():
        wall["setups"][label] = [speed.ran(a, b) for a, b in spans]
        setups[label] = [speed.scaled(a, b) for a, b in spans]
    for label, spans in replay_spans.items():
        wall["replays"][label] = [
            speed.ran(a, b) - statistics.median(speed.ran(*i) for i in inits) for a, b, inits in spans
        ]
        replays[label] = [
            speed.scaled(a, b) - statistics.median(speed.scaled(*i) for i in inits) for a, b, inits in spans
        ]
    return setups, replays, wall, mismatches, passes, elapsed


def _sum_of_medians(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    runs = workloads.build(workload, seed, workdir)
    ref = reference.reference_pass(workload, seed, runs)
    setups, samples, wall, mismatches, passes, timed_s = timed_replays(runs, ref["hashes"], seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = reference.spawn_loop_probe(workdir / "loop") if workload == "mesh" else None

    totals = ref["totals"]
    checks = ref["failed_checks"] + mismatches
    attempted, failed = reference.tally(ref, mismatches)
    values = {
        "peak_mem_mb": peak_mb,
        "result_latency_p50_ms": ref["latency_p50"],
        "result_latency_p99_ms": ref["latency_p99"],
        "deploy_latency_p50_ms": ref["deploy_p50"],
        "net_packets": totals["net_packets"],
        "net_bytes": totals["net_bytes"],
        "ok_share": 1.0 - failed / attempted,
    }
    tuples = sum(dataset_tuples(run.load()) for run in runs)
    if not checks:  # the timing of a run that failed a check is never reported
        values["setup_s"] = _sum_of_medians(setups)
        values["tuples_per_s"] = tuples / _sum_of_medians(samples)

    lines = [
        "workload=%s seed=%d: %d scenario(s), %d timed pass(es) in %.2f s, %d set-ups"
        % (workload, seed, len(runs), passes, timed_s, sum(len(v) for v in setups.values())),
        "simulated latencies over %d notifications and %d distributed deployments"
        % (ref["latency_n"], ref["deploy_n"]),
    ]
    for name, unit, what in END_TO_END:
        if name in values:
            lines.append("  %-22s %16.6f %-8s %s" % (name, values[name], unit, what))
    if not checks:
        lines.append(
            "  as measured, before host-speed scaling: setup_s %.6f s, tuples_per_s %.3f tuples/s"
            % (_sum_of_medians(wall["setups"]), tuples / _sum_of_medians(wall["replays"]))
        )
    lines.append(
        "  net_bytes by class: %s"
        % ", ".join("%s %d" % kv for kv in sorted(ref["bytes_by_class"].items()))
    )
    lines.append(
        "  failed_share = %d / %d (engine errors %d, plan_failed %d, deploy_timeout %d, failed checks %d)"
        % (failed, attempted, totals.get("errors", 0), totals.get("plan_failed", 0),
           totals.get("deploy_timeout", 0), len(checks))
    )
    if probe is not None:
        lines.append(
            "  loop probe (known defect 1): %s after %.2f s; failed_share with the probe = %d / %d"
            % ("timed out" if probe["timed_out"] else "ended", probe["seconds"],
               failed + probe["timed_out"], attempted + 1)
        )
    lines += ["FAILED CHECK: %s" % msg for msg in checks]
    result = {
        "correct": not checks and "tuples_per_s" in values,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END if name in values
        },
    }
    return result, lines


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__] + sys.argv[1:], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = checkout.WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.trace:
            spans = checkout.OUT / ("spans-%s.bin" % args.workload)
            result, lines = layers.traced_run(args.workload, args.seed, workdir, spans)
        else:
            result, lines = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
