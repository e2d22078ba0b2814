"""Wire-format round trips, prefix relation, and decoder robustness."""

import hashlib
import json
import math
import operator
import random
import struct
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    DeltaSender,
    Interest,
    MalformedPacket,
    Mirror,
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
_STATE_HEAD = b"\x07\x02s\x01"  # type tag 7, then <q> "s" as text and <i> 1


def uleb128(n: int) -> bytes:
    """`n` as an unsigned LEB128 varint, written out group by group."""
    groups = [n & 0x7F]
    while n > 0x7F:
        n >>= 7
        groups.append(n & 0x7F)
    return bytes([g | 0x80 for g in groups[:-1]] + groups[-1:])


def hash_field(component: str) -> bytes:
    """The hash field of a name component: its raw bytes behind an odd header
    if it is even-length lowercase hex, else its UTF-8 behind an even one."""
    if component and len(component) % 2 == 0 and set(component) <= set("0123456789abcdef"):
        raw = bytes(int(component[k : k + 2], 16) for k in range(0, len(component), 2))
        return uleb128(2 * len(raw) + 1) + raw
    raw = component.encode("utf-8")
    return uleb128(2 * len(raw)) + raw


def zigzag(v: int) -> int:
    """`v` as an unsigned integer: 2v for v >= 0, else -2v - 1."""
    return 2 * v if v >= 0 else -2 * v - 1


def float_field(m: int, e: int, negative: bool = False) -> bytes:
    """A kind-1 row value of mantissa `m` and exponent `e`, canonical or not."""
    return uleb128(4 * (2 * zigzag(e) + negative) + 1) + uleb128(m)


def json_field(text: bytes) -> bytes:
    """`text` as a kind-3 row value, whatever it holds."""
    return uleb128(4 * len(text) + 3) + text


def value_field(v) -> bytes:
    """The row value `v` as the rows grammar spells it: an int that keeps the
    header below 2**64 as kind 0, a finite float as kind 1 (the shortest
    decimal, read here with Decimal), a str as kind 2, anything else as kind 3."""
    if type(v) is int and -(2**61) <= v < 2**61:
        return uleb128(4 * zigzag(v))
    if type(v) is float and math.isfinite(v):
        sign, digits, e = Decimal(repr(v)).normalize().as_tuple()
        m = int("".join(map(str, digits)))
        return float_field(m, e if m else 0, bool(sign))
    if type(v) is str:
        raw = v.encode("utf-8")
        return uleb128(4 * len(raw) + 2) + raw
    return json_field(json.dumps(v, separators=(",", ":")).encode("utf-8"))


def rows_field(rows) -> bytes:
    """`rows` in the rows layout of tags 6 and 7; a bytes value is written as it is."""
    out = uleb128(len(rows))
    for row in rows:
        fields = [v if isinstance(v, bytes) else value_field(v) for v in row]
        out += uleb128(len(row)) + b"".join(fields)
    return out


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


_SHA1 = "da39a3ee5e6b4b0d3255bfef95601890afd80709"  # a whole sha1, 40 hex digits
_hash_component = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)), min_size=1
)
_hex_text = st.text(alphabet="0123456789abcdef", min_size=1, max_size=44)
# <q> or <hash> of a name: lowercase hex of even length, the 12 digits of a
# query hash and the 40 of a whole sha1 among them, and texts that must keep
# the UTF-8 form: odd-length hex, uppercase hex, non-ASCII text, any text
_name_hash = st.one_of(
    _hex_text.filter(lambda h: len(h) % 2 == 0),
    st.sampled_from(["78d58e0ea08a", _SHA1]),
    _hex_text.filter(lambda h: len(h) % 2 == 1),
    _hex_text.map(str.upper).filter(lambda h: h != h.lower()),
    st.text(
        alphabet=st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ),
    _hash_component,
)
_u64 = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=300)
@given(q=_name_hash, index=_u64, delta=_delta_strategy())
def test_state_delta_round_trip_property(q, index, delta):
    pkt = DataStream(Name(("state", q, str(index), "out")), delta)
    raw = encode_packet(pkt)
    assert raw[0] == 7
    assert raw[1:].startswith(hash_field(q) + uleb128(index))
    assert decode_packet(raw) == pkt


@pytest.mark.parametrize(
    "component, field",
    [
        ("78d58e0ea08a", b"\x0d\x78\xd5\x8e\x0e\xa0\x8a"),
        (_SHA1, b"\x29" + bytes.fromhex(_SHA1)),
        ("00", b"\x03\x00"),
        ("s", b"\x02s"),
        ("abc", b"\x06abc"),
        ("AB", b"\x04AB"),
        ("aB", b"\x04aB"),
        ("é", b"\x04\xc3\xa9"),
        ("x" * 64, b"\x80\x01" + b"x" * 64),
    ],
    ids=[
        "query-hash", "sha1", "zero-byte", "text", "odd-hex", "upper-hex", "mixed-case", "non-ascii",
        "long",
    ],
)
def test_hash_field_layout(component, field):
    """Even-length lowercase hex as raw bytes behind an odd header, any other text as UTF-8."""
    assert hash_field(component) == field
    pkt = DataStream(Name(("state", component, "1", "out")), StateDelta(0, "gps", 0, 0, ()))
    blob = b"\x07" + field + b"\x01" + b"\x00" * 3 + b"\x03gps\x00"
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt


_MESH_ROW = Tuple.from_values("gps", (10000, 3.0, 49.873243, 8.644881, 123.63, 1.23, 0.002, 7.11))
# a one-row GPS delta of the mesh workload: 44 bytes (73 with its rows as compact
# JSON text, 96 with its name as text as well, 120 with fixed-width fields too)
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
            + b"\xb8\x17\x04\x06"
            + b"\x03gps"
            + b"\x01\x03"  # one row of three values
            + b"\xc0\x3e"  # 1000: kind 0, zigzag 2000
            + b"\x0a\xc3\xa9"  # "é": kind 2, two UTF-8 bytes
            + b"\x09\x19",  # 2.5: kind 1, exponent -1 (zigzag 1), mantissa 25
        ),
        (
            _MESH_DELTA,
            b"\x07\x0d\x78\xd5\x8e\x0e\xa0\x8a\x02"
            + b"\x90\x4e\x00\x01"
            + b"\x03gps"
            + b"\x01\x08"
            + b"\x80\xf1\x04"  # 10000
            + b"\x01\x03"  # 3.0: mantissa 3, exponent 0
            + b"\x59\xdb\x82\xe4\x17"  # 49.873243: exponent -6, mantissa 49873243
            + b"\x59\x91\xd2\x8f\x04"  # 8.644881
            + b"\x19\xcb\x60"  # 123.63: exponent -2, mantissa 12363
            + b"\x19\x7b"  # 1.23
            + b"\x29\x02"  # 0.002: exponent -3, mantissa 2
            + b"\x19\xc7\x05",  # 7.11
        ),
    ],
    ids=["text-value", "mesh-gps-row"],
)
def test_state_delta_wire_layout(pkt, blob):
    """Tag 7, hash <q> and varint <i>, varint wm, first and end, the schema
    behind its varint length, then the rows: a row count, and per row a value
    count and its typed values."""
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt
    assert blob.endswith(rows_field([r.values for r in pkt.tuple.rows]))


def test_a_one_row_mesh_delta_takes_44_bytes():
    assert len(encode_packet(_MESH_DELTA)) == 44


@pytest.mark.parametrize(
    "n, varint",
    [(0, b"\x00"), (127, b"\x7f"), (128, b"\x80\x01"), (2**64 - 1, b"\xff" * 9 + b"\x01")],
)
def test_varint_fields_round_trip(n, varint):
    pkt = DataStream(_STATE_NAME, StateDelta(ts=n, schema="gps", first=n, end=n, rows=()))
    blob = _STATE_HEAD + varint * 3 + b"\x03gps\x00"
    assert uleb128(n) == varint
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt
    indexed = DataStream(Name(("state", "s", str(n), "out")), StateDelta(0, "gps", 0, 0, ()))
    blob = b"\x07\x02s" + varint + b"\x00" * 3 + b"\x03gps\x00"
    assert encode_packet(indexed) == blob
    assert decode_packet(blob) == indexed


@pytest.mark.parametrize("n", [-1, 2**64])
@pytest.mark.parametrize("field", ["ts", "first", "end"])
def test_varint_fields_refuse_what_is_not_a_u64(field, n):
    fields = dict(ts=0, schema="gps", first=0, end=0, rows=())
    fields[field] = n
    if field == "first":
        fields["end"] = n  # rows first .. end-1 stay empty
    with pytest.raises(ValueError):
        encode_packet(DataStream(_STATE_NAME, StateDelta(**fields)))


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
        DataStream(Name.from_uri("/state/s/01/out"), StateDelta(2000, "gps", 1, 2, (_ROW,))),
        DataStream(Name.from_uri("/state/s/+1/out"), StateDelta(2000, "gps", 1, 2, (_ROW,))),
        DataStream(Name.from_uri("/state/s/x/out"), StateDelta(2000, "gps", 1, 2, (_ROW,))),
        DataStream(Name(("state", "s", str(2**64), "out")), StateDelta(2000, "gps", 1, 2, (_ROW,))),
        DataStream(Name.from_uri("/state/s/x/out"), _ROW),
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
        "index-not-canonical",
        "index-signed",
        "index-a-text",
        "index-beyond-u64",
        "tuple-on-state-with-a-text-index",
    ],
)
def test_encoder_refuses_what_the_decoder_would_not_give_back(pkt):
    with pytest.raises(ValueError):
        encode_packet(pkt)


def _state_blob(rows=((2000, 2.0),), wm=2000, first=1, end=2, schema=b"gps", head=_STATE_HEAD):
    """The bytes of a /state/s/1/out packet, written field by field; `rows` as
    rows of values or as the bytes of the rows field, `wm` as an int or as the
    bytes of its varint."""
    rows = rows if isinstance(rows, bytes) else rows_field(rows)
    fields = (wm if isinstance(wm, bytes) else uleb128(wm)) + uleb128(first) + uleb128(end)
    return head + fields + uleb128(len(schema)) + schema + rows


def _plain_tuple_on_state(schema, *values):
    """A /state/s/1/out packet written as a stream tuple (2000, *values)."""
    stray = DataStream(Name.from_uri("/stata/s/1/out"), Tuple(2000, schema, (2000, *values)))
    return encode_packet(stray).replace(b"stata", b"state")


_OLD_DOC = '{"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]}'
_GOOD_ROWS = rows_field([[2000, 2.0]])
_NOT_UTF8 = b"\x0a\xff\xfe"  # a kind-2 value of two bytes that are not UTF-8
_NESTED_DEEP = json_field(b"[" * 5000 + b"]" * 5000)


_MALFORMED_STATE = {
    "no-rows": _state_blob().removesuffix(_GOOD_ROWS),
    "truncated-header": _STATE_HEAD + uleb128(2000) + uleb128(1),
    "truncated-varint": _STATE_HEAD + b"\xd0",
    "varint-non-minimal": _state_blob(wm=b"\xd0\x8f\x00"),
    "varint-non-minimal-zero": _state_blob(wm=b"\x80\x00"),
    "varint-of-11-bytes": _state_blob(wm=b"\xff" * 10 + b"\x01"),
    "varint-beyond-u64": _state_blob(wm=b"\x80" * 9 + b"\x02"),
    "rows-past-the-end": _state_blob(b"\x02" + _GOOD_ROWS[1:]),  # two rows counted, one written
    "row-truncated": _state_blob()[:-1],
    "value-count-past-the-end": _state_blob(b"\x01\x03" + _GOOD_ROWS[2:]),
    "trailing-bytes": _state_blob() + b"\x00",
    "first-after-end": _state_blob([], first=3, end=2),
    "more-rows-than-fit": _state_blob([[2000, 1.0], [2000, 2.0]]),
    "json-value-not-json": _state_blob([[2000, json_field(b"not json")]]),
    "row-count-huge": _state_blob(uleb128(2**63)),
    "value-count-huge": _state_blob(b"\x01" + uleb128(2**63)),
    "row-ts-null": _state_blob([[None]]),
    "row-value-an-object": _state_blob([[2000, {"a": 2000}]]),
    "row-ts-negative": _state_blob([[-1]]),
    "row-empty": _state_blob([[]]),
    "json-value-nested-deep": _state_blob([[2000, _NESTED_DEEP]]),
    "row-ts-a-text": _state_blob([["x"]]),
    "row-ts-infinite": _state_blob([[math.inf]]),
    "row-value-a-list": _state_blob([[2000, [1]]]),
    "text-value-not-utf8": _state_blob([[2000, _NOT_UTF8]]),
    "json-value-not-utf8": _state_blob([[2000, json_field(b'"\xff"')]]),
    "schema-not-utf8": _state_blob(schema=b"g\xffs"),
    "plain-tuple": _plain_tuple_on_state("gps", 2.0),
    "snapshot-tuple": _plain_tuple_on_state("snapshot", _OLD_DOC),  # the layout before deltas
    # the delta layout before tag 7: tag 3 and the name as text
    "tag-3-delta": _state_blob(head=b"\x03" + encode_packet(Interest(_STATE_NAME))[1:]),
    # the rows layout before typed values: compact JSON text behind its length
    "rows-as-json-text": _state_blob(uleb128(12) + b"[[2000,2.0]]"),
    "hash-hex-in-text-form": _state_blob(head=b"\x07\x18" + b"78d58e0ea08a" + b"\x01"),
    "hash-empty-text": _state_blob(head=b"\x07\x00\x01"),
    "hash-empty-raw": _state_blob(head=b"\x07\x01\x01"),
    "hash-truncated": b"\x07\x0d\x78\xd5",
    "hash-not-utf8": _state_blob(head=b"\x07\x02\xff\x01"),
    "hash-with-slash": _state_blob(head=b"\x07\x06a/b\x01"),
    "index-non-minimal": _state_blob(head=b"\x07\x02s\x81\x00"),
    "index-beyond-u64": _state_blob(head=b"\x07\x02s" + b"\x80" * 9 + b"\x02"),
    "index-truncated": b"\x07\x02s\x81",
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
# the two ends of a /state feed: DeltaSender and Mirror

# equal values that print differently (1, 1.0, True; 0, 0.0, -0.0, False),
# values that equal nothing or print specially, and text that JSON escapes
SNAP_VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 0.0, -0.0, 2.5, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(['"', "\\", "é", 'a"\\€\n', "", "1"]),
)
SNAP_TS = st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, 2000, 2000.0])
SNAP_ROW = st.tuples(SNAP_TS, st.lists(SNAP_VALUES, max_size=3)).map(lambda p: (p[0], *p[1]))
TWINS = [(0, 0.0, -0.0, False), (1, 1.0, True), (2000, 2000.0)]  # equal, printed apart
# how a row of an arbitrary output relates to the previous output: the same
# row object; a new row equal to one of them but for one value, which may
# be an equal value printed differently; or a new row
SNAP_PICK = st.one_of(
    st.tuples(st.just("keep"), st.integers(0, 5)),
    st.tuples(st.just("vary"), st.integers(0, 5), st.integers(0, 3), SNAP_VALUES),
    st.tuples(st.just("twin"), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("new"), SNAP_ROW),
)
# how an output follows the previous one: a window slide (drop rows from the
# front, append new rows), an arbitrary replacement, empty, or one row
SNAP_STEP = st.one_of(
    st.tuples(st.just("slide"), st.integers(0, 4), st.lists(SNAP_ROW, max_size=3)),
    st.tuples(st.just("replace"), st.lists(SNAP_PICK, max_size=6)),
    st.tuples(st.just("empty")),
    st.tuples(st.just("one"), SNAP_PICK),
)


def typed(rows):
    """What a row shows downstream: ts, schema, value types and JSON text."""
    return [
        (t.ts, t.schema_id, [type(v) for v in t.values], json.dumps(list(t.values)))
        for t in rows
    ]


def row_of(values, schema):
    return Tuple(ts=int(values[0]), schema_id=schema, values=tuple(values))


def picked_rows(picks, last, schema):
    rows = []
    for kind, *how in picks:
        if kind == "new":
            values = how[0]
        elif not last:
            continue
        elif kind == "keep":
            rows.append(last[how[0] % len(last)])
            continue
        else:
            values = list(last[how[0] % len(last)].values)
            if kind == "twin":
                at = how[1] % len(values)
                family = next((f for f in TWINS if values[at] in f), (values[at],))
                values[at] = family[how[2] % len(family)]
            elif len(values) > 1:  # the first value is the timestamp
                values[1 + how[1] % (len(values) - 1)] = how[2]
        rows.append(row_of(values, schema))
    return rows


def next_output(step, last, schema):
    kind, *how = step
    if kind == "slide":
        return last[how[0] :] + [row_of(v, schema) for v in how[1]]
    if kind == "replace":
        return picked_rows(how[0], last, schema)
    if kind == "one":
        return picked_rows([how[0]], last, schema)[:1]
    return []


def delta(**changes):
    """The fields of a delta of row 1 at wm 2000, changed as given.

    `rows` is a list of rows, or bytes that stand for the rows field.
    """
    doc = {"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]}
    doc.update(changes)
    return doc


def state_blob(doc, name="/state/s/1/out"):
    """The bytes of a /state/<q>/<i>/out packet carrying `doc`, written field
    by field: type tag 7, the hash field of <q> and varint <i>, then the
    fields of `_state_blob`."""
    _, q, index, _ = Name.from_uri(name).components
    head = b"\x07" + hash_field(q) + uleb128(int(index))
    fields = [doc[k] for k in ("rows", "wm", "first", "end")]
    return _state_blob(*fields, schema=doc["schema"].encode(), head=head)


def carried(doc):
    """The StateDelta that the codec decodes from a /state packet carrying `doc`."""
    return decode_packet(state_blob(doc)).tuple


@given(
    schema=st.sampled_from(["gps", 'a"\\é']),
    steps=st.lists(
        st.tuples(st.integers(0, 10**6), SNAP_STEP, st.booleans()), min_size=1, max_size=10
    ),
)
@settings(max_examples=300, deadline=None)
def test_snapshot_codec_matches_json_dumps_and_a_fresh_decode(schema, steps):
    """Deltas round-trip; a lost one stops evaluation until its rows slide out.

    One mirror takes each delta as the value it was sent as, another as the
    codec decodes it from its bytes; both must mirror the sender's output.
    """
    name = Name.from_uri("/state/s/7/out")
    sender, receiver, decoder = DeltaSender(name), Mirror(1), Mirror(1)
    last, mirrored = [], []
    lost_end = 0  # rows below this index may have been lost; an empty delta loses none
    gaps = want_gaps = 0
    for wm, step, lost in steps:
        rows = next_output(step, last, schema)
        snap = sender.delta(rows, wm, schema)
        assert (snap.ts, snap.schema, snap.end - snap.first) == (wm, schema, len(rows))
        shipped = rows[len(rows) - len(snap.rows) :]
        assert all(map(operator.is_, snap.rows, shipped))  # the sender's own rows
        doc = {
            "schema": schema,
            "wm": wm,
            "first": snap.first,
            "end": snap.end,
            "rows": [list(r.values) for r in shipped],
        }
        blob = encode_packet(DataStream(name, snap))
        assert blob == state_blob(doc, name.to_uri())
        fresh = decode_packet(blob).tuple
        assert (fresh.ts, fresh.schema, fresh.first, fresh.end) == (wm, schema, snap.first, snap.end)
        assert typed(fresh.rows) == typed(shipped)
        if step[0] == "slide" and len(set(map(id, last))) == len(last):
            assert len(shipped) == len(step[2])  # a slide ships its new rows only
        assert sender.rows is rows
        if lost:
            if snap.rows:
                lost_end = snap.end
        else:
            got = receiver.apply(snap)
            decoded = decoder.apply(fresh)
            assert (got is None) == (decoded is None) == (snap.first < lost_end)
            if got is not None:
                assert snap.ts == fresh.ts == wm  # the watermark the parent evaluates at
                assert typed(got) == typed(decoded) == typed(rows)
                assert got is not receiver.rows
                # the rows the receiver already had keep their identity, and
                # the new ones are the sender's
                kept = len(rows) - len(shipped)
                if kept and mirrored:
                    assert all(map(operator.is_, got[:kept], mirrored[-kept:]))
                assert all(map(operator.is_, got[kept:], snap.rows))
                mirrored = got
            else:
                mirrored = []
            gaps += (got is None) + (decoded is None)
            want_gaps += 2 * (snap.first < lost_end)
        last = rows  # older rows are freed, so their ids can come back
    assert gaps == want_gaps


def test_a_delta_shared_by_two_receivers_is_changed_by_neither():
    """A forwarded packet reaches several receivers: each mirror keeps its own list."""
    sender = DeltaSender(Name.from_uri("/state/s/7/out"))
    rows = [row_of((ts, 1.0), "gps") for ts in (1000, 2000, 3000)]
    sender.delta(rows, 3000, "gps")  # a keyframe both receivers miss
    slid = sender.delta(rows[2:] + [row_of((4000, 1.0), "gps")], 4000, "gps")
    b, c = Mirror(1), Mirror(1)
    assert b.apply(slid) is None and c.apply(slid) is None
    later = sender.rows[1:] + [row_of((5000, 1.0), "gps")]
    got = b.apply(sender.delta(later, 5000, "gps"))
    assert [t.ts for t in got] == [4000, 5000]
    assert [t.ts for t in slid.rows] == [t.ts for t in c.rows] == [4000]


def test_a_delta_row_off_the_delta_schema_is_re_tagged():
    rows = (row_of((1000, 1.0), "gps"), row_of((2000, 2.0), "other"))
    got = Mirror(1).apply(StateDelta(2000, "gps", 0, 2, rows))
    assert got[0] is rows[0]
    assert (got[1].schema_id, got[1].values) == ("gps", (2000, 2.0))


def test_a_restarted_sender_ships_a_keyframe_under_fresh_indices():
    sender = DeltaSender(Name.from_uri("/state/s/7/out"))
    rows = [row_of((ts, 1.0), "gps") for ts in (1000, 2000)]
    assert sender.delta(rows, 2000, "gps") == StateDelta(2000, "gps", 0, 2, tuple(rows))
    assert sender.delta(rows, 2000, "gps") == StateDelta(2000, "gps", 0, 2, ())
    sender.restart()
    assert sender.delta(rows, 2000, "gps") == StateDelta(2000, "gps", 2, 4, tuple(rows))


def test_a_delta_row_narrower_than_the_mirror_raises_and_leaves_it_as_it_was():
    mirror = Mirror(2)
    held = mirror.apply(StateDelta(1000, "gps", 0, 1, (row_of((1000, 1.0), "gps"),)))
    rows = mirror.rows
    with pytest.raises(ValueError, match="narrower"):
        mirror.apply(StateDelta(2000, "gps", 0, 2, (row_of((2000,), "gps"),)))
    assert (mirror.base, mirror.rows) == (0, held) and mirror.rows is rows


@pytest.mark.parametrize(
    "blob",
    [
        state_blob(delta(**changes), "/state/s/7/out")
        for changes in [
            dict(first=3, end=2, rows=[]),  # end before first
            dict(first=1, end=2, rows=[[2000, 1.0], [2000, 2.0]]),  # more rows than fit
            dict(rows=[[2000, [1]]]),  # unhashable values, which Tuple rejects
            dict(rows=[[2000, {"a": 1}]]),
            dict(rows=[[{"a": [2000]}]]),
            dict(rows=[[]]),
            dict(rows=b"\x01\x05" + rows_field([[2000]])[2:]),  # five values counted, one written
            dict(rows=[[math.inf]]),
            dict(rows=[["x"]]),
            dict(rows=[[None]]),
        ]
        + [
            dict(rows=[[2000, json_field(text)]])
            for text in [b"not json", b"[1, 2]", b'"doc"', b"[" * 5000 + b"]" * 5000]
        ]
    ]
    + [
        state_blob(delta(), "/state/s/7/out")[:5],  # cut inside the varint watermark
        state_blob(delta(), "/state/s/7/out").replace(b"gps", b"g\xffs"),  # schema not UTF-8
        state_blob(delta(), "/state/s/7/out") + b"\x00",  # a byte after the rows
    ],
)
def test_malformed_delta_is_rejected_without_touching_the_mirror(blob):
    """The codec rejects it, so no mirror sees it; the delta it stands for applies."""
    mirror = Mirror(1)
    good = mirror.apply(carried(delta(first=0, end=1, rows=[[1000, 1.0]])))
    rows = mirror.rows
    with pytest.raises(MalformedPacket):
        decode_packet(blob)
    assert mirror.rows is rows
    assert (mirror.base, mirror.rows) == (0, good)
    assert mirror.apply(carried(delta())) is not None  # no gap


# ---------------------------------------------------------------------------
# /ce results


def ce_result(qhash, ts, schema, rows):
    """The Data a coordinator sends a consumer, rendered as `Engine._notify` renders it."""
    doc = {"hash": qhash, "ts": ts, "schema": schema, "rows": rows}
    return Data(Name(("ce", qhash, str(ts))), json.dumps(doc).encode("utf-8"), ts)


_CE_HASH = b"\x0d\x78\xd5\x8e\x0e\xa0\x8a"  # 78d58e0ea08a as a hash field
_AVG_RESULT = ce_result("78d58e0ea08a", 10000, "agg", [[10000, 57.25]])


def test_a_result_takes_tag_6_and_only_its_schema_and_rows():
    """An AVG result: 22 bytes, 30 with its rows as compact JSON text, 48 with
    its name as text as well, and 120 with its whole payload behind tag 2."""
    rows = b"\x01\x02" + b"\x80\xf1\x04" + b"\x19\xdd\x2c"  # [[10000, 57.25]]
    blob = b"\x06" + _CE_HASH + b"\x90\x4e" + b"\x03agg" + rows
    assert len(blob) == 22 and rows == rows_field([[10000, 57.25]])
    assert encode_packet(_AVG_RESULT) == blob
    assert decode_packet(blob) == _AVG_RESULT
    name = encode_packet(Interest(_AVG_RESULT.name))[1:]
    tag2 = b"\x02" + name + struct.pack(">QI", 10000, 80) + _AVG_RESULT.payload
    assert decode_packet(tag2) == _AVG_RESULT  # the general layout still reads it


_number = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.floats(width=64))
# HEATMAP ships its grid as JSON text inside a row, so the rows escape quotes and backslashes
_heatmap_text = st.builds(
    lambda grid, skipped: json.dumps({"grid": grid, "skipped": skipped}),
    st.lists(st.lists(st.integers(0, 99), max_size=4), max_size=4),
    st.integers(0, 9),
)
_result_value = st.one_of(_number, st.text(max_size=12), _heatmap_text)


@settings(max_examples=300)
@given(
    qhash=_name_hash,
    ts=_u64,
    schema=st.text(max_size=10),
    rows=st.lists(st.lists(_result_value, max_size=5), max_size=4),
)
def test_result_round_trip_property(qhash, ts, schema, rows):
    pkt = ce_result(qhash, ts, schema, [[ts, *row] for row in rows])
    raw = encode_packet(pkt)
    assert raw[0] == 6
    assert raw[1:].startswith(hash_field(qhash) + uleb128(ts))
    assert decode_packet(raw) == pkt


def _payload(**changes):
    doc = {"hash": "78d58e0ea08a", "ts": 10000, "schema": "agg", "rows": [[10000, 57.25]]}
    doc.update(changes)
    return json.dumps(doc)


_CE_NAME = _AVG_RESULT.name


@pytest.mark.parametrize(
    "pkt",
    [
        Data(_CE_NAME, _payload().replace(", ", ",").replace(": ", ":").encode(), 10000),
        Data(_CE_NAME, _AVG_RESULT.payload + b" ", 10000),
        Data(_CE_NAME, _AVG_RESULT.payload.decode().encode("utf-16"), 10000),
        Data(_CE_NAME, _payload(hash="78d58e0ea08b").encode(), 10000),
        Data(_CE_NAME, _payload(ts=10001).encode(), 10000),
        Data(_CE_NAME, _payload(schema=5).encode(), 10000),
        Data(_CE_NAME, _payload(rows={"a": 1}).encode(), 10000),
        Data(_CE_NAME, _payload(rows=[57.25]).encode(), 10000),
        Data(_CE_NAME, _payload(rows=[{"ts": 10000}]).encode(), 10000),
        Data(_CE_NAME, _payload(extra=1).encode(), 10000),
        Data(_CE_NAME, json.dumps(dict(reversed(json.loads(_payload()).items()))).encode(), 10000),
        Data(_CE_NAME, json.dumps([1, 2]).encode(), 10000),
        Data(_CE_NAME, b"[" * 5000, 10000),
        Data(_CE_NAME, b"", 10000),
        Data(_CE_NAME, _AVG_RESULT.payload, 10001),
        Data(Name(("ce", "78d58e0ea08a", "010000")), _AVG_RESULT.payload, 10000),
        Data(Name(("ce", "78d58e0ea08a", "1" * 5000)), _AVG_RESULT.payload, 10000),
        Data(Name(("ce", "78d58e0ea08a")), _AVG_RESULT.payload, 10000),
        Data(Name(("ce", "78d58e0ea08a", "10000", "x")), _AVG_RESULT.payload, 10000),
        Data(Name(("cf", "78d58e0ea08a", "10000")), _AVG_RESULT.payload, 10000),
    ],
    ids=[
        "compact-json",
        "trailing-space",
        "utf-16",
        "other-hash",
        "other-ts",
        "schema-a-number",
        "rows-an-object",
        "a-row-a-number",
        "a-row-an-object",
        "extra-key",
        "keys-reordered",
        "not-an-object",
        "nested-deep",
        "empty",
        "ts-not-the-name's",
        "name-ts-not-canonical",
        "name-ts-5000-digits",
        "two-components",
        "four-components",
        "not-ce",
    ],
)
def test_any_other_data_keeps_tag_2(pkt):
    raw = encode_packet(pkt)
    assert raw[0] == 2
    assert decode_packet(raw) == pkt


@settings(max_examples=200)
@given(qhash=_hash_component, ts=st.integers(min_value=0, max_value=2**40), payload=st.binary())
def test_a_result_name_with_any_other_payload_round_trips(qhash, ts, payload):
    pkt = Data(Name(("ce", qhash, str(ts))), payload, ts)
    assert decode_packet(encode_packet(pkt)) == pkt


_AVG_ROWS = rows_field([[10000, 57.25]])


def _result_blob(qhash=_CE_HASH, ts=b"\x90\x4e", schema=b"agg", rows=_AVG_ROWS):
    """A tag-6 packet written field by field: hash field `qhash`, then the
    varint `ts`, then `schema` behind its varint length, then the rows field."""
    return b"\x06" + qhash + ts + uleb128(len(schema)) + schema + rows


def _result_row(*values):
    """A tag-6 packet whose one row is 10000 and `values`, each a value or its bytes."""
    return _result_blob(rows=rows_field([[10000, *values]]))


_MALFORMED_RESULT = {
    "hash-hex-in-text-form": _result_blob(qhash=b"\x18" + b"78d58e0ea08a"),
    "hash-empty-text": _result_blob(qhash=b"\x00"),
    "hash-empty-raw": _result_blob(qhash=b"\x01"),
    "hash-truncated": b"\x06\x0d\x78\xd5",
    "hash-not-utf8": _result_blob(qhash=b"\x02\xff"),
    "hash-with-slash": _result_blob(qhash=b"\x06a/b"),
    "ts-non-minimal": _result_blob(ts=b"\x90\xce\x00"),
    "ts-beyond-u64": _result_blob(ts=b"\x80" * 9 + b"\x02"),
    "ts-of-11-bytes": _result_blob(ts=b"\xff" * 10 + b"\x01"),
    "ts-truncated": b"\x06" + _CE_HASH + b"\x90",
    # the layout before the hash field: the name's u16 component count and text16s
    "name-as-text": b"\x06" + encode_packet(Interest(_AVG_RESULT.name))[1:] + b"\x03agg\x01x",
    # the rows layout before typed values: compact JSON text behind its length
    "rows-as-json-text": _result_blob(rows=uleb128(15) + b"[[10000,57.25]]"),
    "json-value-not-compact": _result_row(json_field(b'{"a": 1}')),
    "json-list-not-compact": _result_row(json_field(b"[1, 2]")),
    "row-count-huge": _result_blob(rows=uleb128(2**63)),
    "value-count-huge": _result_blob(rows=b"\x01" + uleb128(2**63)),
    "json-value-not-json": _result_row(json_field(b"not json")),
    "json-value-nested-deep": _result_row(_NESTED_DEEP),
    "text-value-not-utf8": _result_row(_NOT_UTF8),
    "json-value-not-utf8": _result_row(json_field(b'"\xff"')),
    "schema-not-utf8": _result_blob(schema=b"g\xffs"),
    "no-rows": _result_blob(rows=b""),
    "rows-past-the-end": _result_blob(rows=b"\x02" + _AVG_ROWS[1:]),
    "row-truncated": _result_blob()[:-1],
    "value-count-past-the-end": _result_blob(rows=b"\x01\x03" + _AVG_ROWS[2:]),
    "trailing-bytes": _result_blob() + b"\x00",
}


@pytest.mark.parametrize("blob", list(_MALFORMED_RESULT.values()), ids=list(_MALFORMED_RESULT))
def test_a_tag_6_packet_must_hold_one_result(blob):
    with pytest.raises(MalformedPacket):
        decode_packet(blob)
    assert decode_packet(_result_blob()) == _AVG_RESULT


# ---------------------------------------------------------------------------
# row values of /state deltas and /ce results


@pytest.mark.parametrize(
    "v, field",
    [
        (0, b"\x00"),
        (-1, b"\x04"),
        (2**61 - 1, b"\xf8" + b"\xff" * 8 + b"\x01"),
        (-(2**61), b"\xfc" + b"\xff" * 8 + b"\x01"),
        (2**61, b"\x4f" + b"2305843009213693952"),  # its kind-0 header would reach 2**64
        (True, b"\x13true"),
        (3.0, b"\x01\x03"),
        (-0.0, b"\x05\x00"),
        (5e-324, b"\xb9\x28\x05"),
        (1e16, b"\x81\x02\x01"),
        (0.1 + 0.2, b"\x89\x02" + uleb128(30000000000000004)),
        (math.nan, b"\x0fNaN"),
        (math.inf, b"\x23Infinity"),
        (-math.inf, b"\x27-Infinity"),
        ("é", b"\x0a\xc3\xa9"),
    ],
    ids=[
        "zero", "minus-one", "int-max", "int-min", "int-beyond", "bool", "float-integral",
        "negative-zero", "subnormal", "1e16", "0.1+0.2", "nan", "inf", "-inf", "text",
    ],
)
def test_each_row_value_kind_has_exact_bytes(v, field):
    """A delta row and a result row write `v` as `field`, and read it back."""
    assert value_field(v) == field
    delta = StateDelta(2000, "gps", 1, 2, (Tuple(2000, "gps", (2000, v)),))
    blob = _state_blob([[2000, field]])
    assert encode_packet(DataStream(_STATE_NAME, delta)) == blob
    assert encode_packet(decode_packet(blob)) == blob  # nan is not equal even to itself
    back = decode_packet(blob).tuple.rows[0].values[1]
    assert type(back) is type(v) and repr(back) == repr(v)
    result = ce_result("78d58e0ea08a", 10000, "agg", [[10000, v]])
    blob = _result_row(field)
    assert encode_packet(result) == blob
    assert decode_packet(blob).payload == result.payload


_NOT_CANONICAL = {
    "mantissa-trailing-zero": float_field(20, -1),  # 2.0
    "zero-with-exponent": float_field(0, 1),
    "negative-zero-with-exponent": float_field(0, -1, negative=True),
    "another-float": float_field(100000000000000001, -17),  # reads as 1.0
    "underflow-to-zero": float_field(1, -400),
    "overflow-to-inf": float_field(1, 400),
    "json-for-an-int": json_field(b"5"),
    "json-for-a-float": json_field(b"2.5"),
    "json-for-negative-zero": json_field(b"-0.0"),
    "json-for-a-text": json_field(b'"x"'),
    "json-not-compact": json_field(b" true"),
    "json-inf-by-overflow": json_field(b"1e400"),  # reads as inf, which JSON spells Infinity
}


@pytest.mark.parametrize("field", list(_NOT_CANONICAL.values()), ids=list(_NOT_CANONICAL))
def test_a_row_value_has_one_encoding(field):
    """The decoder re-encodes each float and JSON value and rejects other bytes."""
    with pytest.raises(MalformedPacket, match="one encoding"):
        decode_packet(_state_blob([[2000, field]]))
    with pytest.raises(MalformedPacket, match="one encoding"):
        decode_packet(_result_row(field))


_row_value = st.one_of(
    _delta_value,
    st.floats(width=64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.none(),
    st.lists(st.integers(0, 99), max_size=3),
)


@settings(max_examples=300)
@given(rows=st.lists(st.lists(_row_value, max_size=5), max_size=4))
def test_result_rows_follow_the_grammar(rows):
    """A result's rows field is what the grammar spells, value by value."""
    pkt = ce_result("78d58e0ea08a", 10000, "agg", rows)
    assert encode_packet(pkt) == _result_blob(rows=rows_field(rows))


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
_VERDICT_SAMPLES["CeResult"] = ce_result(
    "78d58e0ea08a", 2000, "gps", [r.values for r in _VERDICT_ROWS]
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
    "StateDelta": (252, 50, "79a736072ac807f50730781d89acbac052e410a1cc667aeb032c9e0c9e4f0515"),
    "CeResult": (270, 95, "d750de33503d6d9d78c162e4f8b5d7fc5104493c34daba3250027788da2a414a"),
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


@pytest.mark.parametrize("kind", ["StateDelta", "CeResult"])
def test_an_accepted_row_blob_is_the_one_encoding_of_its_packet(kind):
    """Each edited tag-6 or tag-7 blob that decodes is what its packet encodes to."""
    for blob in _verdict_corpus(encode_packet(_VERDICT_SAMPLES[kind])):
        try:
            pkt = decode_packet(blob)
        except MalformedPacket:
            continue
        assert encode_packet(pkt) == blob
