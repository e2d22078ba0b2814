"""Wire-format round trips, prefix relation, and decoder robustness."""

import hashlib
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    Interest,
    MalformedPacket,
    Name,
    RemoveQueryInterest,
    Schema,
    StateDelta,
    Tuple,
    decode_packet,
    encode_packet,
    is_prefix_of,
)

# ---------------------------------------------------------------------------
# construction invariants


def test_name_rejects_empty_and_slash_components():
    with pytest.raises(ValueError):
        Name(())
    with pytest.raises(ValueError):
        Name(("a", ""))
    with pytest.raises(ValueError):
        Name(("a/b",))


def test_name_uri_round_trip():
    n = Name.from_uri("/node/nodeA/temperature")
    assert n.components == ("node", "nodeA", "temperature")
    assert n.to_uri() == "/node/nodeA/temperature"
    assert Name.from_uri(n.to_uri()) == n


def test_schema_requires_ts_first_and_unique_attrs():
    Schema("gps", ("ts", "lat"))
    with pytest.raises(ValueError):
        Schema("x", ("lat", "ts"))
    with pytest.raises(ValueError):
        Schema("x", ("ts", "a", "a"))


def test_tuple_first_value_mirrors_ts():
    t = Tuple.from_values("gps", [100, "s1", 49.5])
    assert t.ts == 100
    with pytest.raises(ValueError):
        Tuple(ts=5, schema_id="gps", values=(7, "x"))
    with pytest.raises(ValueError):
        Tuple(ts=5, schema_id="gps", values=())
    with pytest.raises(ValueError):
        Tuple(ts=-1, schema_id="gps", values=(-1,))


# ---------------------------------------------------------------------------
# prefix relation


def test_prefix_basic_cases():
    assert is_prefix_of(Name.from_uri("/node"), Name.from_uri("/node/nodeA"))
    assert is_prefix_of(Name.from_uri("/node/nodeA"), Name.from_uri("/node/nodeA"))
    assert not is_prefix_of(
        Name.from_uri("/node/nodeB"), Name.from_uri("/node/nodeA/temp")
    )
    # longer never prefixes shorter
    assert not is_prefix_of(Name.from_uri("/x/y"), Name.from_uri("/x"))


_name_strategy = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=5,
).map(lambda parts: Name(tuple(parts)))


@given(a=_name_strategy, b=_name_strategy, c=_name_strategy)
def test_prefix_reflexive_and_transitive(a, b, c):
    assert is_prefix_of(a, a)
    if is_prefix_of(a, b) and is_prefix_of(b, c):
        assert is_prefix_of(a, c)


@given(a=_name_strategy, extra=_name_strategy)
def test_prefix_strict_extension(a, extra):
    longer = Name(a.components + extra.components)
    assert is_prefix_of(a, longer)
    assert not is_prefix_of(longer, a)


# ---------------------------------------------------------------------------
# wire format round trips

_GPS_TUPLE = Tuple.from_values("gps", [100, "s1", 49.5, 8.6, 0, 0, 0, 0])


def _sample_packets():
    return [
        Interest(Name.from_uri("/node/nodeA/temperature")),
        Data(Name.from_uri("/node/nodeA/temperature"), b"\x00\x01payload", 42),
        DataStream(Name.from_uri("/node/gps1"), _GPS_TUPLE),
        AddQueryInterest("WINDOW(GPS_S1, 4s)", nonce=7),
        RemoveQueryInterest("WINDOW(GPS_S1, 4s)", nonce=7),
    ]


@pytest.mark.parametrize("pkt", _sample_packets(), ids=lambda p: type(p).__name__)
def test_round_trip_each_kind(pkt):
    assert decode_packet(encode_packet(pkt)) == pkt


def test_interest_type_tag_is_first_byte():
    raw = encode_packet(Interest(Name.from_uri("/node/nodeA/temperature")))
    assert raw[0] == 1


def test_data_stream_restores_all_eight_values():
    raw = encode_packet(DataStream(Name.from_uri("/node/gps1"), _GPS_TUPLE))
    back = decode_packet(raw)
    assert len(back.tuple.values) == 8
    assert back.tuple.values[1] == "s1"
    assert back.tuple.values[2] == pytest.approx(49.5)


def test_add_query_carries_literal_query_text():
    raw = encode_packet(AddQueryInterest("WINDOW(GPS_S1, 4s)", nonce=7))
    assert b"WINDOW(GPS_S1, 4s)" in raw
    assert decode_packet(raw).query == "WINDOW(GPS_S1, 4s)"


_value_strategy = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)


@st.composite
def _tuple_strategy(draw):
    ts = draw(st.integers(min_value=0, max_value=2**40))
    rest = draw(st.lists(_value_strategy, max_size=6))
    return Tuple(ts=ts, schema_id=draw(st.text(max_size=10)), values=tuple([float(ts)] + rest))


_packet_strategy = st.one_of(
    _name_strategy.map(Interest),
    st.builds(
        Data,
        name=_name_strategy,
        payload=st.binary(max_size=64),
        ts=st.integers(min_value=0, max_value=2**40),
    ),
    st.builds(
        DataStream,
        # a /state/<q>/<i>/out stream carries a StateDelta, drawn below
        stream_name=_name_strategy.filter(
            lambda n: not (len(n.components) == 4 and n.components[::3] == ("state", "out"))
        ),
        tuple=_tuple_strategy(),
    ),
    st.builds(
        AddQueryInterest,
        query=st.text(max_size=80),
        nonce=st.integers(min_value=0, max_value=2**63),
    ),
    st.builds(
        RemoveQueryInterest,
        query=st.text(max_size=80),
        nonce=st.integers(min_value=0, max_value=2**63),
    ),
)


@settings(max_examples=300)
@given(pkt=_packet_strategy)
def test_round_trip_property(pkt):
    assert decode_packet(encode_packet(pkt)) == pkt


# ---------------------------------------------------------------------------
# /state deltas

_STATE_NAME = Name.from_uri("/state/s/1/out")

# values whose JSON text reads back equal: NaN equals nothing, not even itself
_delta_value = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, width=64),
    st.booleans(),
    st.text(max_size=12),
)


@st.composite
def _delta_strategy(draw):
    schema = draw(st.text(max_size=10))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ts = draw(st.integers(min_value=0, max_value=2**40))
        first = draw(st.sampled_from([ts, float(ts)]))
        rest = draw(st.lists(_delta_value, max_size=4))
        rows.append(Tuple(ts=ts, schema_id=schema, values=(first, *rest)))
    first = draw(st.integers(min_value=0, max_value=10**6))
    end = first + len(rows) + draw(st.integers(min_value=0, max_value=5))
    wm = draw(st.integers(min_value=0, max_value=2**40))
    return StateDelta(ts=wm, schema=schema, first=first, end=end, rows=tuple(rows))


@settings(max_examples=300)
@given(
    name=st.tuples(_name_strategy.map(lambda n: n.components[0]), st.integers(0, 99)).map(
        lambda p: Name(("state", p[0], str(p[1]), "out"))
    ),
    delta=_delta_strategy(),
)
def test_state_delta_round_trip_property(name, delta):
    pkt = DataStream(name, delta)
    assert decode_packet(encode_packet(pkt)) == pkt


def test_state_delta_is_written_as_a_json_snapshot_tuple():
    row = Tuple.from_values("gps", (1000, "é", 2.5))
    delta = StateDelta(ts=3000, schema="gps", first=4, end=6, rows=(row,))
    doc = {"schema": "gps", "wm": 3000, "first": 4, "end": 6, "rows": [[1000, "é", 2.5]]}
    wire = Tuple(ts=3000, schema_id="snapshot", values=(3000, json.dumps(doc)))
    assert encode_packet(DataStream(_STATE_NAME, delta)) == encode_packet(
        DataStream(_STATE_NAME, wire)
    )


def _state_packet(*values):
    """The bytes of a /state packet whose tuple holds `values` after its ts, 2000."""
    wire = Tuple(ts=2000, schema_id="snapshot", values=(2000, *values))
    return encode_packet(DataStream(_STATE_NAME, wire))


_DOC = json.dumps({"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]})


@pytest.mark.parametrize(
    "blob",
    [
        _state_packet(),  # no document
        _state_packet(_DOC, 1.0),  # a value after it
        _state_packet(2000.0),  # a number in its place
        encode_packet(DataStream(_STATE_NAME, Tuple(2000, "gps", (2000, _DOC)))),
    ],
    ids=["no-document", "extra-value", "number-document", "not-a-snapshot"],
)
def test_a_state_packet_must_hold_one_snapshot_document(blob):
    with pytest.raises(MalformedPacket):
        decode_packet(blob)
    assert decode_packet(_state_packet(_DOC)).tuple == StateDelta(
        ts=2000, schema="gps", first=1, end=2, rows=(Tuple(2000, "gps", (2000, 2.0)),)
    )


@settings(max_examples=500)
@given(
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=255)),
        min_size=1,
        max_size=3,
    )
)
def test_decode_of_a_mutated_state_delta_never_panics(edits):
    """Byte edits, most of them inside the JSON document, fail closed."""
    blob = bytearray(_state_packet(_DOC))
    for at, byte in edits:
        blob[at % len(blob)] = byte
    try:
        decode_packet(bytes(blob))
    except MalformedPacket:
        pass


# ---------------------------------------------------------------------------
# decoder robustness


def test_decode_empty_is_malformed():
    with pytest.raises(MalformedPacket):
        decode_packet(b"")


def test_decode_unknown_tag_is_malformed():
    with pytest.raises(MalformedPacket):
        decode_packet(b"\xff\x00\x01")


def test_decode_truncation_is_malformed():
    raw = encode_packet(Interest(Name.from_uri("/node/nodeA")))
    for cut in range(1, len(raw)):
        with pytest.raises(MalformedPacket):
            decode_packet(raw[:cut])


def test_decode_trailing_garbage_is_malformed():
    raw = encode_packet(Interest(Name.from_uri("/node/nodeA")))
    with pytest.raises(MalformedPacket):
        decode_packet(raw + b"\x00")


def test_decode_of_an_infinite_first_value_is_malformed():
    """int(inf) overflows instead of failing Tuple's ts check; that is malformed too."""
    raw = encode_packet(DataStream(Name.from_uri("/node/gps1"), Tuple(5, "gps", (5,))))
    inf = raw.replace(struct.pack(">d", 5.0), struct.pack(">d", math.inf))
    assert inf != raw
    with pytest.raises(MalformedPacket):
        decode_packet(inf)


@settings(max_examples=500)
@given(blob=st.binary(max_size=200))
def test_decode_never_panics(blob):
    try:
        decode_packet(blob)
    except MalformedPacket:
        pass


def _verdict_corpus():
    """Seeded byte edits and truncations of one packet of each kind."""
    rows = (Tuple.from_values("gps", (1000, "s1", 49.5)), Tuple.from_values("gps", (1500, "s", 8)))
    delta = DataStream(_STATE_NAME, StateDelta(ts=2000, schema="gps", first=3, end=6, rows=rows))
    rng = random.Random(2020)
    for base in [encode_packet(p) for p in (*_sample_packets(), delta)]:
        for cut in range(len(base)):
            yield base[:cut]
        for at in range(len(base)):
            for _ in range(8):
                blob = bytearray(base)
                blob[at] = rng.randrange(256)
                yield bytes(blob)


def test_decoder_verdicts_are_pinned():
    """Which edited blobs decode, and to what, stays fixed across codec rewrites."""
    digest = hashlib.sha256()
    blobs = accepted = 0
    for blob in _verdict_corpus():
        try:
            verdict = (True, repr(decode_packet(blob)))
            accepted += 1
        except MalformedPacket:
            verdict = (False, "")
        digest.update(repr(verdict).encode())
        blobs += 1
    assert (blobs, accepted, digest.hexdigest()) == (
        3537,
        1155,
        "9c7e816282fc00ff9c7a8b7366479b8704e607ce224df4ba9b5f8368423fc954",
    )
