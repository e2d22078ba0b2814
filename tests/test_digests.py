"""The trace helpers in `digests.py` on hand-made traces."""

from digests import first_divergence

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
