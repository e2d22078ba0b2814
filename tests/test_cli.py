"""Command-line behavior: output shapes, exit codes, golden parse renderings."""

import argparse
import json
from pathlib import Path

import pytest

from icncep.cli import EXIT_SYNTAX, _build_parser, main
from icncep.sim import data_path, generate_gps_csv, load_scenario, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
QUERY_IDS = ["q1", "q2", "q3", "q4", "q5", "q6"]


def shipped_query_text(qid):
    spec = load_scenario(str(data_path(qid + ".scn")))
    return spec.queries[0].text


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_parse_matches_golden(qid, capsys):
    assert main(["parse", shipped_query_text(qid)]) == 0
    expected = (GOLDEN_DIR / (qid + ".txt")).read_text()
    assert capsys.readouterr().out == expected


def test_parse_output_is_stable_across_runs(capsys):
    text = shipped_query_text("q3")
    main(["parse", text])
    first = capsys.readouterr().out
    main(["parse", text])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "text, message",
    [
        ("WINDOW(GPS_S1, 4s", "syntax error"),
        ("WINDOW(GPSé, 4s)", "syntax error: illegal character 'é' (at offset 10)"),
        pytest.param(
            "FILTER(" * 3000 + "WINDOW(GPS_S1, 4s)" + ", 'speed' > 1)" * 3000,
            "syntax error: operators nest deeper than 64",
            id="nested-too-deep",
        ),
    ],
)
def test_parse_syntax_error_exits_1(capsys, text, message):
    assert main(["parse", text]) == EXIT_SYNTAX
    assert message in capsys.readouterr().err


def test_parse_semantic_error_exits_2(capsys):
    assert main(["parse", "NOSUCH(GPS_S1, 4s)"]) == 2
    assert "semantic error" in capsys.readouterr().err


def test_parse_empty_stdin_exits_1(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("   \n"))
    assert main(["parse", "-"]) == 1
    assert "empty" in capsys.readouterr().err


def test_parse_reads_query_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("WINDOW(GPS_S1, 4s)\n"))
    assert main(["parse", "-"]) == 0
    assert "canonical: WINDOW(GPS_S1,4s)" in capsys.readouterr().out


def scenario_file(tmp_path, mode="centralized", topology="centralized", rows=20,
                  poll=None, stop=None):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=rows)
    stop_ms = stop if stop is not None else 1000 * rows + 5000
    polltok = " poll=%d" % poll if poll else ""
    scn = tmp_path / "run.scn"
    scn.write_text(
        "topology %s\n"
        "seed 7\n"
        "stream GPS_S1 /node/p1/gps gps %s 1.0\n"
        "query q1 c1 50 %d %s%s WINDOW(GPS_S1, 4s)\n"
        % (topology, csv.name, stop_ms, mode, polltok)
    )
    return str(scn)


def test_explain_distributed_plan_places_root_at_coordinator(capsys):
    assert main(["explain", str(data_path("q3.scn")), "q3"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["mode"] == "distributed"
    assert plan["coordinator"] == "b6"
    by_index = {op["index"]: op for op in plan["operators"]}
    assert by_index[0]["node"] == plan["coordinator"]
    kinds = sorted(op["kind"] for op in plan["operators"])
    assert kinds == ["FILTER", "FILTER", "JOIN", "WINDOW", "WINDOW"]
    assert all(op["nfn"].startswith("(call ") for op in plan["operators"])


def test_explain_centralized_puts_everything_on_one_broker(tmp_path, capsys):
    scn = scenario_file(tmp_path, mode="centralized")
    assert main(["explain", scn, "q1"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["mode"] == "centralized"
    nodes = {op["node"] for op in plan["operators"]}
    assert nodes == {plan["coordinator"]}


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_explain_prints_the_plan_the_engine_deploys(qid, capsys):
    scn = str(data_path(qid + ".scn"))
    assert main(["explain", scn, qid]) == 0
    plan = json.loads(capsys.readouterr().out)
    metrics = run_scenario(load_scenario(scn), collect_trace=False)
    deployed = [
        p for _, kind, p in metrics.events
        if kind == "query_deployed" and p["nonce"] == "%s:1" % qid
    ]
    assert len(deployed) == 1
    assert plan["path"] == deployed[0]["path"]
    assert {str(op["index"]): op["node"] for op in plan["operators"]} == deployed[0]["assignments"]
    assert sorted(op["index"] for op in plan["operators"] if op["pinned"]) == deployed[0]["pinned"]


def test_explain_prints_the_path_the_engine_deploys_past_a_detour_off_the_corridor(
    tmp_path, capsys
):
    """The detour b1-b4-b5-b6-b3 is cheaper than b1-b2-b3, but b5 is two hops
    off the fewest-hop path, so the engine never probes it; explain plans on
    the same corridor and prints the path the engine deploys."""
    topo = tmp_path / "detour.topo"
    nodes = ["node p1 producer 1", "node c1 consumer 1", "node b2 broker 10"]
    nodes += ["node b%d broker 1" % i for i in (1, 3, 4, 5, 6)]
    links = ["p1 b1", "b1 b2", "b2 b3", "b3 c1", "b1 b4", "b4 b5", "b5 b6", "b6 b3"]
    topo.write_text("\n".join(nodes + ["link %s 1" % l for l in links]) + "\n")
    scn = scenario_file(tmp_path, mode="distributed", topology=str(topo))
    assert main(["explain", scn, "q1"]) == 0
    plan = json.loads(capsys.readouterr().out)
    metrics = run_scenario(load_scenario(scn), collect_trace=False)
    (deployed,) = [p for _, kind, p in metrics.events if kind == "query_deployed"]
    assert plan["path"] == deployed["path"] == ["b1", "b2", "b3"]


def test_explain_unknown_query_exits_2(capsys):
    assert main(["explain", str(data_path("q3.scn")), "zz"]) == 2
    assert "no query" in capsys.readouterr().err


def test_explain_on_a_topology_without_a_broker_exits_2(tmp_path, capsys):
    """No broker coordinates the query: an error line, not an IndexError's traceback."""
    topo = tmp_path / "nobroker.topo"
    topo.write_text("node p1 producer 1\nnode c1 consumer 1\nlink p1 c1 1\n")
    assert main(["explain", scenario_file(tmp_path, topology=str(topo)), "q1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: topology nobroker has no broker to coordinate a query\n"


def test_explain_missing_scenario_exits_3(capsys):
    assert main(["explain", "/no/such/file.scn", "q1"]) == 3
    assert "error" in capsys.readouterr().err


def test_run_sim_writes_metrics_and_trace(tmp_path, capsys):
    scn = scenario_file(tmp_path)
    mcsv = tmp_path / "m.csv"
    tr = tmp_path / "t.ndev"
    assert main(["run-sim", scn, "--metrics", str(mcsv), "--trace", str(tr)]) == 0
    out = capsys.readouterr().out
    assert "q1 mode=centralized notifications=20 control=2" in out
    assert "trace_hash=" in out
    lines = mcsv.read_text().splitlines()
    assert lines[2] == "query,total_ms,graph_ms,placement_ms,communication_ms"
    assert lines[3].startswith("q1,")
    assert len(tr.read_text().splitlines()) > 50


def test_run_sim_trace_file_holds_the_trace_lines(tmp_path, capsys):
    scn = str(data_path("q3.scn"))
    tr = tmp_path / "t.ndev"
    assert main(["run-sim", scn, "--trace", str(tr)]) == 0
    lines = list(run_scenario(load_scenario(scn)).trace)
    assert len(lines) > 4096  # more than one sealed chunk
    assert tr.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_run_sim_mode_and_topology_override(tmp_path, capsys):
    scn = scenario_file(tmp_path, mode="centralized", topology="centralized")
    rc = main(["run-sim", scn, "--topology", "distributed", "--mode", "distributed"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=distributed" in out
    assert "notifications=20" in out


def test_run_sim_topology_preset_with_its_suffix(tmp_path, capsys):
    """--topology distributed.topo exited 3: "topology not found"."""
    scn = scenario_file(tmp_path, mode="centralized", topology="centralized")
    assert main(["run-sim", scn, "--topology", "distributed.topo", "--mode", "distributed"]) == 0
    assert "notifications=20" in capsys.readouterr().out


def test_run_sim_twice_gives_the_same_simulated_outcome(tmp_path, capsys):
    # replayed CSVs are deterministic; only real parse/plan timings jitter
    def sim_fields(out):
        head, tail = out.splitlines()
        return (
            [f for f in head.split() if not f.startswith(("total_ms", "graph_ms", "placement_ms"))],
            tail.split()[0],
        )

    scn = scenario_file(tmp_path)
    main(["run-sim", scn])
    first = sim_fields(capsys.readouterr().out)
    main(["run-sim", scn])
    assert sim_fields(capsys.readouterr().out) == first
    assert first[1].startswith("trace_hash=")


def test_run_sim_reports_reordered_rows_on_stderr(tmp_path, capsys):
    scn = scenario_file(tmp_path, rows=6)
    csv = tmp_path / "feed.csv"
    assert main(["run-sim", scn]) == 0
    in_order = capsys.readouterr()
    assert in_order.err == ""
    header, *rows = csv.read_text().splitlines()
    rows[1:4] = reversed(rows[1:4])  # two rows now arrive below their predecessor
    csv.write_text("\n".join([header] + rows) + "\n")
    assert main(["run-sim", scn]) == 0
    swapped = capsys.readouterr()
    assert swapped.err.splitlines() == ["reordered rows: 2"]
    # the rows are sorted back into place, so the simulated run is unchanged
    assert swapped.out.splitlines()[-1] == in_order.out.splitlines()[-1]


@pytest.mark.parametrize("flag", ["--metrics", "--trace"])
def test_run_sim_output_in_a_missing_directory_exits_3(tmp_path, capsys, flag):
    """It raised FileNotFoundError, after the whole run, and exited 1."""
    target = tmp_path / "no" / "such" / "out.txt"
    assert main(["run-sim", str(data_path("q1.scn")), flag, str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the run
    assert "error: %s %s" % (flag, target) in captured.err
    assert not target.parent.exists()


def test_run_sim_output_path_that_is_a_directory_exits_3(tmp_path, capsys):
    scn = scenario_file(tmp_path)
    assert main(["run-sim", scn, "--trace", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_sim_missing_scenario_exits_3(capsys):
    assert main(["run-sim", "/no/such/file.scn"]) == 3


def test_run_sim_broken_stream_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps missing.csv 1.0\n"
        "query q1 c1 50 5000 centralized WINDOW(GPS_S1, 4s)\n"
    )
    assert main(["run-sim", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


def negative_ts_csv(tmp_path):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=1)
    header, row = csv.read_text().splitlines()
    csv.write_text("%s\n-5,%s\n" % (header, row.split(",", 1)[1]))
    return csv


def test_run_sim_negative_timestamp_row_exits_3(tmp_path, capsys):
    negative_ts_csv(tmp_path)
    scn = tmp_path / "run.scn"
    scn.write_text(
        "topology centralized\n"
        "stream GPS_S1 /node/p1/gps gps feed.csv 1.0\n"
        "query q1 c1 50 5000 centralized WINDOW(GPS_S1, 4s)\n"
    )
    assert main(["run-sim", str(scn)]) == 3
    assert "feed.csv: line 2: negative timestamp" in capsys.readouterr().err


def test_replay_prints_schedule_rows(tmp_path, capsys):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=5)
    assert main(["replay", str(csv), "--schema", "gps", "--limit", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "1000.000 /node/p1/gps ts=1000",
        "2000.000 /node/p1/gps ts=2000",
    ]


def test_replay_rate_compresses_schedule(tmp_path, capsys):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=2)
    assert main(["replay", str(csv), "--schema", "gps", "--rate", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("500.000 ")
    assert lines[1].startswith("1000.000 ")


@pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
def test_replay_rate_that_is_not_a_finite_number_above_zero_exits_3(tmp_path, capsys, rate):
    """--rate 0 raised ZeroDivisionError and --rate nan printed nan times."""
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=2)
    assert main(["replay", str(csv), "--schema", "gps", "--rate", rate]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--rate must be a finite number > 0" in captured.err


def test_replay_negative_timestamp_row_exits_3(tmp_path, capsys):
    csv = negative_ts_csv(tmp_path)
    assert main(["replay", str(csv), "--schema", "gps"]) == 3
    assert "feed.csv: line 2: negative timestamp" in capsys.readouterr().err


def test_replay_negative_limit_exits_3(tmp_path, capsys):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=3)
    assert main(["replay", str(csv), "--schema", "gps", "--limit", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit must not be negative" in captured.err


def test_replay_missing_file_exits_3(capsys):
    assert main(["replay", "/no/such.csv", "--schema", "gps"]) == 3


def test_replay_wrong_schema_exits_3(tmp_path, capsys):
    csv = tmp_path / "feed.csv"
    generate_gps_csv(str(csv), seed=7, rows=3)
    assert main(["replay", str(csv), "--schema", "plug"]) == 3
    assert "error" in capsys.readouterr().err


def test_metrics_summarizes_mean_and_interval(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text(
        "# comment\n"
        "query,total_ms,graph_ms,placement_ms,communication_ms\n"
        "q1,100.0,1.0,9.0,90.0\n"
        "q1,110.0,1.0,9.0,100.0\n"
        "q2,50.0,0.5,4.5,45.0\n"
    )
    assert main(["metrics", str(csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("q1 n=2 total_ms=105.000±")
    assert lines[1] == (
        "q2 n=1 total_ms=50.000±0.000 graph_ms=0.500±0.000"
        " placement_ms=4.500±0.000 communication_ms=45.000±0.000"
    )
    # 1.96 * stdev(100,110)/sqrt(2) = 1.96 * 7.0711 / 1.4142 = 9.800
    assert "total_ms=105.000±9.800" in lines[0]


def test_metrics_missing_file_exits_3(capsys):
    assert main(["metrics", "/no/such.csv"]) == 3


@pytest.mark.parametrize(
    "row", ["q1,abc,2.0", "q1,1.0", "q1,1.0,2.0,3.0"], ids=["not-a-number", "short", "long"]
)
def test_metrics_bad_row_exits_3(tmp_path, capsys, row):
    csv = tmp_path / "m.csv"
    csv.write_text("query,total_ms,graph_ms\n%s\n" % row)
    assert main(["metrics", str(csv)]) == 3
    assert "bad row %r" % row in capsys.readouterr().err


def test_readme_cli_block_names_exactly_the_registered_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("icncep ")}
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)
