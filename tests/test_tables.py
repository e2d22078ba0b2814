"""Content store freshness, PIT face semantics, FIB longest-prefix match."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icncep.packet import Name, is_prefix_of
from icncep.tables import (
    ContentStore,
    ForwardingInformationBase,
    PendingInterestTable,
)

# ---------------------------------------------------------------------------
# content store


def test_cs_basic_hit():
    cs = ContentStore()
    cs.insert("q", b"x", 5)
    hit = cs.lookup("q", min_ts=0)
    assert hit is not None and hit.logical_ts == 5


def test_cs_freshness_gate_rejects_stale():
    # entry older than what the caller already knows about must not be served
    cs = ContentStore()
    cs.insert("q", b"x", 5)
    assert cs.lookup("q", min_ts=6) is None
    assert cs.lookup("q", min_ts=5) is not None


def test_cs_lookup_on_empty():
    assert ContentStore().lookup("r", 0) is None


def test_cs_monotone_replace():
    cs = ContentStore()
    cs.insert("q", b"old", 5)
    cs.insert("q", b"new", 7)
    assert cs.lookup("q").payload == b"new"
    # inserting something older is a no-op
    cs.insert("q", b"older", 5)
    assert cs.lookup("q").payload == b"new"
    assert cs.lookup("q").logical_ts == 7


def test_cs_two_keys_coexist():
    cs = ContentStore()
    cs.insert("a", b"1", 1)
    cs.insert(Name.from_uri("/node/x"), b"2", 2)
    assert cs.lookup("a").payload == b"1"
    assert cs.lookup(Name.from_uri("/node/x")).payload == b"2"


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30))
def test_cs_stored_ts_is_max_of_inserts(ts_seq):
    cs = ContentStore()
    for ts in ts_seq:
        cs.insert("k", str(ts).encode(), ts)
    assert cs.lookup("k").logical_ts == max(ts_seq)


# ---------------------------------------------------------------------------
# pending interest table


def test_pit_add_face_and_duplicate():
    pit = PendingInterestTable()
    assert pit.add_face("q", 1) is True
    assert pit.lookup("q").faces == {1}
    assert pit.add_face("q", 1) is False
    assert pit.add_face("q", 2) is True
    assert pit.lookup("q").faces == {1, 2}


def test_pit_remove():
    pit = PendingInterestTable()
    pit.add_face("q", 1)
    assert pit.remove("q") is True
    assert pit.lookup("q") is None
    assert pit.remove("q") is False
    # a fresh entry can be recreated afterwards
    assert pit.add_face("q", 3) is True
    assert pit.lookup("q").faces == {3}


def test_pit_remove_face_deletes_entry_when_empty():
    pit = PendingInterestTable()
    pit.add_face("q", 1)
    pit.add_face("q", 2)
    assert pit.remove_face("q", 1) is True
    assert pit.lookup("q").faces == {2}
    assert pit.remove_face("q", 9) is False
    assert pit.remove_face("q", 2) is True
    assert pit.lookup("q") is None


def test_pit_query_entries_filters_names():
    pit = PendingInterestTable()
    pit.add_face("WINDOW(GPS_S1,4s)", 1)
    pit.add_face(Name.from_uri("/node/a"), 2)
    keys = [e.key for e in pit.query_entries()]
    assert keys == ["WINDOW(GPS_S1,4s)"]


def test_pit_dump_lists_faces():
    pit = PendingInterestTable()
    pit.add_face("q", 4)
    pit.add_face("q", 2)
    dump = pit.dump()
    assert "2;4" in dump


# ---------------------------------------------------------------------------
# FIB


def _fib_of(uris_faces):
    fib = ForwardingInformationBase()
    for uri, face in uris_faces:
        fib.add_route(Name.from_uri(uri), face)
    return fib


def test_fib_longer_prefix_wins():
    fib = _fib_of([("/node", 1), ("/node/A", 2)])
    hit = fib.longest_prefix(Name.from_uri("/node/A/temp"))
    assert hit.prefix.to_uri() == "/node/A"
    assert hit.faces == {2}


def test_fib_no_match():
    fib = _fib_of([("/node", 1)])
    assert fib.longest_prefix(Name.from_uri("/other/x")) is None


def test_fib_sibling_prefixes():
    fib = _fib_of([("/a/b", 1), ("/a/c", 2)])
    assert fib.longest_prefix(Name.from_uri("/a/b/d")).prefix.to_uri() == "/a/b"


def test_fib_multiple_faces_per_prefix():
    fib = _fib_of([("/a", 1), ("/a", 2)])
    assert fib.longest_prefix(Name.from_uri("/a/z")).faces == {1, 2}
    assert len(fib) == 1


def test_fib_remove_route_drops_one_face_then_the_route():
    fib = _fib_of([("/state/q/1", 1), ("/state/q/1", 2), ("/state/r/1", 3)])
    assert fib.remove_route(Name.from_uri("/state/q/1"), 1)
    assert fib.longest_prefix(Name.from_uri("/state/q/1/out")).faces == {2}
    assert not fib.remove_route(Name.from_uri("/state/q/1"), 1)  # face already gone
    assert not fib.remove_route(Name.from_uri("/state/q"), 2)  # no route for exactly /state/q
    assert fib.remove_route(Name.from_uri("/state/q/1"), 2)
    assert fib.longest_prefix(Name.from_uri("/state/q/1/out")) is None
    assert len(fib) == 1
    assert [e.prefix.to_uri() for e in fib.entries()] == ["/state/r/1"]
    assert list(fib._routes) == [("state", "r", "1")]  # nothing left behind


def test_fib_remove_route_keeps_routes_above_and_below():
    fib = _fib_of([("/a", 1), ("/a/b", 2), ("/a/b/c", 3)])
    assert fib.remove_route(Name.from_uri("/a/b"), 2)
    assert fib.longest_prefix(Name.from_uri("/a/b/x")).prefix.to_uri() == "/a"
    assert fib.longest_prefix(Name.from_uri("/a/b/c/x")).prefix.to_uri() == "/a/b/c"
    assert len(fib) == 2


def _brute_force_longest(entries, name):
    """Independent oracle: scan all prefixes, keep the longest match."""
    best = None
    for prefix, faces in entries:
        if is_prefix_of(prefix, name) and (
            best is None or len(prefix.components) > len(best[0].components)
        ):
            best = (prefix, faces)
    return best


def test_fib_agrees_with_brute_force_oracle():
    rng = random.Random(1234)
    comps = ["a", "b", "c", "d"]

    def draw(lo, hi):
        return Name(tuple(rng.choice(comps) for _ in range(rng.randint(lo, hi))))

    for _ in range(50):
        table = {}
        fib = ForwardingInformationBase()
        for _ in range(rng.randint(1, 100)):
            if table and rng.random() < 0.3:
                # drop a face the route has, or miss with face 0, never added
                prefix = rng.choice(list(table))
                face = rng.choice(sorted(table[prefix]) + [0])
                assert fib.remove_route(prefix, face) == (face != 0)
                table[prefix].discard(face)
                if not table[prefix]:
                    del table[prefix]
            else:
                prefix, face = draw(1, 4), rng.randint(1, 9)
                fib.add_route(prefix, face)
                table.setdefault(prefix, set()).add(face)
        assert len(fib) == len(table)
        assert [e.prefix for e in fib.entries()] == sorted(table, key=lambda n: n.components)
        for _ in range(20):
            name = draw(1, 6)
            expected = _brute_force_longest(list(table.items()), name)
            got = fib.longest_prefix(name)
            if expected is None:
                assert got is None
            else:
                assert got.prefix == expected[0]
                assert got.faces == expected[1]


def test_dumps_have_headers():
    assert ContentStore().dump() == "key,logical_ts,payload_bytes\n"
    assert PendingInterestTable().dump().startswith("key,faces,")
    assert ForwardingInformationBase().dump().startswith("prefix,faces")
