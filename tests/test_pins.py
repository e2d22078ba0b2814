"""Every pinned run replays to its pins in `golden/pins.json`.

The registry pins 15 runs by label: the 12 shipped runs (`q<n>/distributed`
and `q<n>/centralized`, each scenario re-targeted to the other preset) and
the benchmark's generated `churn/42`, `churn/7` and `mesh/42`, which load
queries that come and go, pollers and multi-hop forwarding on a cyclic mesh.
Each is replayed once, traced as `icncep run-sim` traces, by `repin.replay`.
Per run it pins three values:

- `trace`, the trace hash: a change that keeps every one has not changed
  behaviour;
- `wire`, the sha256 over the `encode_packet` bytes of every link send, in
  order (`digests.wire_digest`), since the trace names packets but not
  their payloads;
- `results`, what the consumers received, with no times, uids or nonces
  (`digests.results_digest`), so a change that must move a trace hash can
  show that the results held.

`python tests/repin.py` re-pins moved trace and wire pins and reports where
each moved trace first parts from HEAD's; results pins are edited by hand.
"""

import json
from contextlib import nullcontext

import pytest

import repin
from digests import results_digest, unbalanced_nodes

PINS = json.loads(repin.PINS.read_text())
SHIPPED = [
    "%s/%s" % (qid, mode)
    for qid in ("q1", "q2", "q3", "q4", "q5", "q6")
    for mode in ("centralized", "distributed")
]
RUNS = SHIPPED + ["churn/42", "churn/7", "mesh/42"]


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """(metrics, wire digest) per run, each replayed once on first use."""
    done = {}

    def replay(label, workdir=None):
        if label not in done:
            done[label] = repin.replay(label, tmp_path_factory.mktemp("run"))
        return done[label]

    return replay


def test_the_registry_pins_exactly_the_replayed_runs_as_repin_writes_it():
    assert list(PINS) == RUNS
    assert all(sorted(pins) == ["results", "trace", "wire"] for pins in PINS.values())
    assert repin.PINS.read_text() == json.dumps(PINS, indent=2) + "\n"


@pytest.mark.parametrize("label", RUNS)
def test_trace_hash_is_pinned(replays, label):
    assert replays(label)[0].trace_hash == PINS[label]["trace"]


@pytest.mark.parametrize("label", RUNS)
def test_wire_digest_is_pinned(replays, label):
    assert replays(label)[1] == PINS[label]["wire"]


@pytest.mark.parametrize("label", RUNS)
def test_results_digest_is_pinned(replays, label):
    assert results_digest(replays(label)[0]) == PINS[label]["results"]


@pytest.mark.parametrize("label", RUNS)
def test_pinned_run_ends_without_errors_and_its_dispositions_add_up(replays, label):
    metrics = replays(label)[0]
    assert {n: c["errors"] for n, c in metrics.nodes.items() if c.get("errors")} == {}
    assert not any(" error " in line for line in metrics.trace)
    assert unbalanced_nodes(metrics) == {}


def test_bench_paper_hashes_are_prefixes_of_their_trace_pins():
    paper = repin.bench_workloads().PAPER_HASHES_SEED42
    assert sorted("%s/%s" % run for run in paper) == sorted(SHIPPED)
    for (qid, mode), prefix in paper.items():
        assert PINS["%s/%s" % (qid, mode)]["trace"].startswith(prefix)


Q1_PINS = json.dumps({label: PINS[label] for label in SHIPPED[:2]}, indent=2) + "\n"


def _repin(replays, path):
    """Run `repin.main` on `path`; return its exit code and the runs it replayed at HEAD."""
    at_head = []

    def head_trace(label):
        at_head.append(label)
        return []

    return repin.main(path, replays, lambda: nullcontext(head_trace)), at_head


def test_repin_restores_a_moved_trace_and_wire_pin_and_no_other_byte(replays, tmp_path, capsys):
    trace, wire = PINS["q1/centralized"]["trace"], PINS["q1/distributed"]["wire"]
    path = tmp_path / "pins.json"
    path.write_text(Q1_PINS.replace(trace, "0" * 64).replace(wire, "1" * 64))
    assert _repin(replays, path) == (0, ["q1/centralized"])
    assert path.read_text() == Q1_PINS
    out = capsys.readouterr().out
    assert "trace %s -> %s" % ("0" * 64, trace) in out and "wire %s -> %s" % ("1" * 64, wire) in out
    assert "traces part at line 0" in out


def test_repin_writes_nothing_and_fails_when_a_results_pin_moved(replays, tmp_path, capsys):
    pins = json.loads(Q1_PINS)
    pins["q1/distributed"]["results"] = "2" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins, indent=2) + "\n")
    before = path.read_text()
    assert _repin(replays, path)[0] == 1
    assert path.read_text() == before
    assert "results pins moved, nothing written: q1/distributed" in capsys.readouterr().out
