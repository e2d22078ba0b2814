"""The helpers in `digests.py` on hand-made traces and link sends."""

import json
import math

import pytest

from digests import first_divergence, wire_digest
from icncep.packet import Data, DataStream, Name, StateDelta, Tuple
from icncep.sim import Simulator

BASE = [
    "0.000 c1 recv uid=0 AddQueryInterest nonce=q1:1 q=WINDOW(GPS_S1, 4s) <- app",
    "0.000 c1 send uid=1 AddQueryInterest nonce=q1:1 q=WINDOW(GPS_S1, 4s) -> b1",
    "1.000 b1 recv uid=1 AddQueryInterest nonce=q1:1 q=WINDOW(GPS_S1, 4s) <- c1",
    "1.000 b1 event query_accepted {}",
    "1.000 b1 send uid=3 Interest /node/b2/delay -> b2",
    "2.000 b2 recv uid=3 Interest /node/b2/delay <- b1",
]


def test_equal_traces_have_no_divergence():
    assert first_divergence(BASE, list(BASE)) is None
    assert first_divergence([], []) is None


def test_the_first_differing_line_comes_with_its_context_and_the_kind_counts():
    moved = BASE[:4] + ["1.000 b1 event query_deployed {}", "1.000 b1 app Data /ce/x ts=0"]
    got = first_divergence(BASE, moved, context=2)
    assert got["index"] == 4
    assert (got["a"], got["b"]) == (BASE[4], moved[4])
    assert got["before"] == BASE[2:4]
    assert got["after_a"] == BASE[5:] and got["after_b"] == moved[5:]
    assert got["kinds_a"] == {"recv": 3, "send": 2, "event": 1}
    assert got["kinds_b"] == {"recv": 2, "send": 1, "event": 2, "app": 1}


def test_a_trace_that_stops_early_diverges_where_it_ends():
    got = first_divergence(BASE, BASE[:3])
    assert got["index"] == 3
    assert (got["a"], got["b"]) == (BASE[3], None)
    assert got["before"] == BASE[:3] and got["after_b"] == []
    assert first_divergence(BASE[:3], BASE)["a"] is None


class _Link:
    """Stands in for a simulator whose every dispatch puts a packet on a link."""

    _seq = 0

    def dispatch(self, node, face_id, packet, at):
        self._seq += 2  # a uid and a delivery


def _sends(monkeypatch, *packets):
    """Run `packets` through `wire_digest` as link sends of a stand-in simulator."""
    monkeypatch.setattr(Simulator, "_dispatch", _Link.dispatch)
    link = _Link()
    with wire_digest():
        for p in packets:
            Simulator._dispatch(link, "b1", 1, p, 0.0)


def _delta(*values):
    row = Tuple(2000, "gps", (2000, *values))
    return DataStream(Name.from_uri("/state/s/1/out"), StateDelta(2000, "gps", 0, 1, (row,)))


def _result(*values):
    payload = json.dumps({"hash": "ab", "ts": 2000, "schema": "agg", "rows": [[2000, *values]]})
    return Data(Name.from_uri("/ce/ab/2000"), payload.encode(), 2000)


def test_typed_row_values_pass_the_wire_checks(monkeypatch):
    _sends(monkeypatch, _delta(1.5, -3, "s1"), _result(57.25, "x"))


@pytest.mark.parametrize(
    "packet",
    [_delta(True), _delta(2**61), _delta(math.inf), _result(None), _result([1, 2]), _result(math.nan)],
    ids=["delta-bool", "delta-big-int", "delta-inf", "result-null", "result-list", "result-nan"],
)
def test_a_row_value_as_json_text_fails_the_wire_checks(monkeypatch, packet):
    with pytest.raises(AssertionError, match="a row value as JSON text"):
        _sends(monkeypatch, _delta(1.5), packet)
