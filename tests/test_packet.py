"""Wire-format round trips, prefix relation, and decoder robustness."""

import hashlib
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
_STATE_HEAD = b"\x03\x00\x04\x00\x05state\x00\x01s\x00\x011\x00\x03out"  # its type tag and name

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


_MESH_ROW = Tuple.from_values("gps", (10000, 3.0, 49.873243, 8.644881, 123.63, 1.23, 0.002, 7.11))
# a one-row GPS delta of the mesh workload: 120 bytes
_MESH_DELTA = DataStream(
    Name.from_uri("/state/78d58e0ea08a/2/out"), StateDelta(10000, "gps", 0, 1, (_MESH_ROW,))
)


@pytest.mark.parametrize(
    "pkt, blob",
    [
        (
            DataStream(
                _STATE_NAME,
                StateDelta(3000, "gps", 4, 6, (Tuple.from_values("gps", (1000, "é", 2.5)),)),
            ),
            _STATE_HEAD
            + struct.pack(">QQQ", 3000, 4, 6)
            + b"\x00\x03gps"
            + b'\x00\x00\x00\x15[[1000,"\\u00e9",2.5]]',
        ),
        (
            _MESH_DELTA,
            b"\x03\x00\x04\x00\x05state\x00\x0c78d58e0ea08a\x00\x012\x00\x03out"
            + struct.pack(">QQQ", 10000, 0, 1)
            + b"\x00\x03gps"
            + b"\x00\x00\x00\x37[[10000,3.0,49.873243,8.644881,123.63,1.23,0.002,7.11]]",
        ),
    ],
    ids=["text-value", "mesh-gps-row"],
)
def test_state_delta_wire_layout(pkt, blob):
    """Name, u64 wm, first and end, text16 schema, text32 compact JSON rows."""
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt


_ROW = Tuple(2000, "gps", (2000, 2.0))


@pytest.mark.parametrize(
    "pkt",
    [
        DataStream(Name.from_uri("/node/p1/gps"), StateDelta(2000, "gps", 1, 2, (_ROW,))),
        DataStream(_STATE_NAME, _ROW),
        DataStream(_STATE_NAME, StateDelta(2000, "gps", 1, 2, (_ROW, _ROW))),
        DataStream(_STATE_NAME, StateDelta(2000, "gps", -5, -3, ())),
        Data(Name.from_uri("/node/b1/delay"), b"1.0", ts=-1),
        DataStream(_STATE_NAME, StateDelta(-1, "gps", 1, 2, (_ROW,))),
        AddQueryInterest(query="WINDOW(GPS_S1, 4s)", nonce=-1),
        AddQueryInterest(query="WINDOW(GPS_S1, 4s)", nonce=2**64),
        DataStream(Name.from_uri("/node/p1/gps"), Tuple(2000, "gps", (2000, 10**400))),
    ],
    ids=[
        "delta-off-state",
        "tuple-on-state",
        "more-rows-than-fit",
        "negative-indices",
        "negative-data-ts",
        "negative-watermark",
        "negative-nonce",
        "nonce-beyond-u64",
        "value-beyond-f64",
    ],
)
def test_encoder_refuses_what_the_decoder_would_not_give_back(pkt):
    with pytest.raises(ValueError):
        encode_packet(pkt)


def _state_blob(rows="[[2000,2.0]]", wm=2000, first=1, end=2, schema=b"gps"):
    """The bytes of a /state/s/1/out packet, written field by field."""
    text = rows if isinstance(rows, bytes) else rows.encode("utf-8")
    fields = struct.pack(">QQQH", wm, first, end, len(schema)) + schema
    return _STATE_HEAD + fields + struct.pack(">I", len(text)) + text


def _plain_tuple_on_state(schema, *values):
    """A /state/s/1/out packet written as a stream tuple (2000, *values)."""
    stray = DataStream(Name.from_uri("/stata/s/1/out"), Tuple(2000, schema, (2000, *values)))
    return encode_packet(stray).replace(b"stata", b"state")


_OLD_DOC = '{"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]}'


_MALFORMED_STATE = {
    "no-rows": _state_blob().removesuffix(b"\x00\x00\x00\x0c[[2000,2.0]]"),
    "truncated-header": _STATE_HEAD + struct.pack(">QQ", 2000, 1),
    "trailing-bytes": _state_blob() + b"\x00",
    "first-after-end": _state_blob("[]", first=3, end=2),
    "more-rows-than-fit": _state_blob("[[2000,1.0],[2000,2.0]]"),
    "rows-not-json": _state_blob("not json"),
    "rows-a-number": _state_blob("2000.0"),
    "rows-a-text": _state_blob('"doc"'),
    "rows-null": _state_blob("null"),
    "rows-an-object": _state_blob('{"a":[2000]}'),
    "row-a-number": _state_blob("[5]"),
    "row-empty": _state_blob("[[]]"),
    "rows-nested-deep": _state_blob("[" * 5000),
    "row-ts-a-text": _state_blob('[["x"]]'),
    "row-ts-infinite": _state_blob("[[Infinity]]"),
    "row-value-a-list": _state_blob("[[2000,[1]]]"),
    "rows-not-utf8": _state_blob("[[2000,2.0]]".encode("utf-16")),
    "schema-not-utf8": _state_blob(schema=b"g\xffs"),
    "plain-tuple": _plain_tuple_on_state("gps", 2.0),
    "snapshot-tuple": _plain_tuple_on_state("snapshot", _OLD_DOC),  # the layout before this one
}


@pytest.mark.parametrize("blob", list(_MALFORMED_STATE.values()), ids=list(_MALFORMED_STATE))
def test_a_state_packet_must_hold_one_delta(blob):
    with pytest.raises(MalformedPacket):
        decode_packet(blob)
    assert decode_packet(_state_blob()).tuple == StateDelta(
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
    """Byte edits, most of them inside the fixed fields and the rows text, fail closed."""
    blob = bytearray(_state_blob())
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


_VERDICT_ROWS = (
    Tuple.from_values("gps", (1000, "s1", 49.5)),
    Tuple.from_values("gps", (1500, "s", 8)),
)
_VERDICT_SAMPLES = {type(p).__name__: p for p in _sample_packets()}
_VERDICT_SAMPLES["StateDelta"] = DataStream(
    _STATE_NAME, StateDelta(ts=2000, schema="gps", first=3, end=6, rows=_VERDICT_ROWS)
)


def _verdict_corpus(base: bytes):
    """Every truncation of `base` and seeded byte edits at each of its offsets."""
    rng = random.Random(2020)
    for cut in range(len(base)):
        yield base[:cut]
    for at in range(len(base)):
        for _ in range(8):
            blob = bytearray(base)
            blob[at] = rng.randrange(256)
            yield bytes(blob)


# per sample kind: blobs, blobs accepted, sha256 of the verdicts
_VERDICT_PINS = {
    "Interest": (261, 71, "476cb86b276e8f9122d7b5e591fb86c4761c4866d54eb1216a9393d6c2239a8b"),
    "Data": (450, 207, "b452c1fba81d26e6f91119ad8bef3584f3e2971a540ad5531894ee3069be5a2a"),
    "DataStream": (900, 475, "d77392552b5ed9bdc08624385ea1b9da0e53b86c715907e29903779453f2d81e"),
    "AddQueryInterest": (279, 118, "0a9cd4ab8ff2bbbd080aea8eac4e40d6d9f69f8a2ca61a2a946581411e8a6899"),
    "RemoveQueryInterest": (279, 118, "d39903877fb0ce2c1f3e751aa61dc60e625563048b1717349cb29790ee2fe6de"),
    "StateDelta": (765, 159, "ab3a69b8ab251b4534962f5de3dfd6a1b5101d5cc1e9d0774dd8716b4af2219f"),
}


@pytest.mark.parametrize("kind", list(_VERDICT_PINS))
def test_decoder_verdicts_are_pinned(kind):
    """Which edited blobs decode, and to what, stays fixed across codec rewrites."""
    digest = hashlib.sha256()
    blobs = accepted = 0
    for blob in _verdict_corpus(encode_packet(_VERDICT_SAMPLES[kind])):
        try:
            verdict = (True, repr(decode_packet(blob)))
            accepted += 1
        except MalformedPacket:
            verdict = (False, "")
        digest.update(repr(verdict).encode())
        blobs += 1
    assert (blobs, accepted, digest.hexdigest()) == _VERDICT_PINS[kind]
