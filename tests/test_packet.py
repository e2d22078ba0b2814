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
_STATE_HEAD = b"\x03\x00\x04\x00\x05state\x00\x01s\x00\x011\x00\x03out"  # its type tag and name


def uleb128(n: int) -> bytes:
    """`n` as an unsigned LEB128 varint, written out group by group."""
    groups = [n & 0x7F]
    while n > 0x7F:
        n >>= 7
        groups.append(n & 0x7F)
    return bytes([g | 0x80 for g in groups[:-1]] + groups[-1:])

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
# a one-row GPS delta of the mesh workload: 96 bytes (120 with fixed-width fields)
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
            _STATE_HEAD + b"\xb8\x17\x04\x06" + b"\x03gps" + b'\x15[[1000,"\\u00e9",2.5]]',
        ),
        (
            _MESH_DELTA,
            b"\x03\x00\x04\x00\x05state\x00\x0c78d58e0ea08a\x00\x012\x00\x03out"
            + b"\x90\x4e\x00\x01"
            + b"\x03gps"
            + b"\x37[[10000,3.0,49.873243,8.644881,123.63,1.23,0.002,7.11]]",
        ),
    ],
    ids=["text-value", "mesh-gps-row"],
)
def test_state_delta_wire_layout(pkt, blob):
    """Name, varint wm, first and end, then schema and compact JSON rows behind varint lengths."""
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt


def test_a_one_row_mesh_delta_takes_96_bytes():
    assert len(encode_packet(_MESH_DELTA)) == 96


@pytest.mark.parametrize(
    "n, varint",
    [(0, b"\x00"), (127, b"\x7f"), (128, b"\x80\x01"), (2**64 - 1, b"\xff" * 9 + b"\x01")],
)
def test_varint_fields_round_trip(n, varint):
    pkt = DataStream(_STATE_NAME, StateDelta(ts=n, schema="gps", first=n, end=n, rows=()))
    blob = _STATE_HEAD + varint * 3 + b"\x03gps\x02[]"
    assert uleb128(n) == varint
    assert encode_packet(pkt) == blob
    assert decode_packet(blob) == pkt


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
    """The bytes of a /state/s/1/out packet, written field by field; `wm` as an
    int or as the bytes of its varint."""
    text = rows if isinstance(rows, bytes) else rows.encode("utf-8")
    fields = (wm if isinstance(wm, bytes) else uleb128(wm)) + uleb128(first) + uleb128(end)
    return _STATE_HEAD + fields + uleb128(len(schema)) + schema + uleb128(len(text)) + text


def _plain_tuple_on_state(schema, *values):
    """A /state/s/1/out packet written as a stream tuple (2000, *values)."""
    stray = DataStream(Name.from_uri("/stata/s/1/out"), Tuple(2000, schema, (2000, *values)))
    return encode_packet(stray).replace(b"stata", b"state")


_OLD_DOC = '{"schema": "gps", "wm": 2000, "first": 1, "end": 2, "rows": [[2000, 2.0]]}'


_MALFORMED_STATE = {
    "no-rows": _state_blob().removesuffix(b"\x0c[[2000,2.0]]"),
    "truncated-header": _STATE_HEAD + uleb128(2000) + uleb128(1),
    "truncated-varint": _STATE_HEAD + b"\xd0",
    "varint-non-minimal": _state_blob(wm=b"\xd0\x8f\x00"),
    "varint-non-minimal-zero": _state_blob(wm=b"\x80\x00"),
    "varint-of-11-bytes": _state_blob(wm=b"\xff" * 10 + b"\x01"),
    "varint-beyond-u64": _state_blob(wm=b"\x80" * 9 + b"\x02"),
    "rows-past-the-end": _state_blob().removesuffix(b"]"),
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
# /ce results


def ce_result(qhash, ts, schema, rows):
    """The Data a coordinator sends a consumer, rendered as `Engine._notify` renders it."""
    doc = {"hash": qhash, "ts": ts, "schema": schema, "rows": rows}
    return Data(Name(("ce", qhash, str(ts))), json.dumps(doc).encode("utf-8"), ts)


_CE_HEAD = b"\x00\x03\x00\x02ce\x00\x0c78d58e0ea08a\x00\x0510000"  # /ce/78d58e0ea08a/10000
_AVG_RESULT = ce_result("78d58e0ea08a", 10000, "agg", [[10000, 57.25]])


def test_a_result_takes_tag_6_and_only_its_schema_and_rows():
    """An AVG result: 48 bytes, against 120 with its whole payload behind tag 2."""
    blob = b"\x06" + _CE_HEAD + b"\x03agg" + b"\x0f[[10000,57.25]]"
    assert encode_packet(_AVG_RESULT) == blob
    assert decode_packet(blob) == _AVG_RESULT
    tag2 = b"\x02" + _CE_HEAD + struct.pack(">QI", 10000, 80) + _AVG_RESULT.payload
    assert decode_packet(tag2) == _AVG_RESULT  # the general layout still reads it


_hash_component = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)), min_size=1
)
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
    qhash=_hash_component,
    ts=st.integers(min_value=0, max_value=2**64 - 1),
    schema=st.text(max_size=10),
    rows=st.lists(st.lists(_result_value, max_size=5), max_size=4),
)
def test_result_round_trip_property(qhash, ts, schema, rows):
    pkt = ce_result(qhash, ts, schema, [[ts, *row] for row in rows])
    raw = encode_packet(pkt)
    assert raw[0] == 6
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


def _result_blob(components, schema=b"agg", rows=b"[[10000,57.25]]"):
    """A tag-6 packet written field by field."""
    head = encode_packet(Interest(Name(components)))[1:]
    return b"\x06" + head + uleb128(len(schema)) + schema + uleb128(len(rows)) + rows


_MALFORMED_RESULT = {
    "two-components": _result_blob(("ce", "78d58e0ea08a")),
    "four-components": _result_blob(("ce", "78d58e0ea08a", "10000", "x")),
    "ts-007": _result_blob(("ce", "78d58e0ea08a", "007")),
    "ts-signed": _result_blob(("ce", "78d58e0ea08a", "+7")),
    "ts-negative": _result_blob(("ce", "78d58e0ea08a", "-7")),
    "ts-beyond-u64": _result_blob(("ce", "78d58e0ea08a", str(2**64))),
    "ts-a-text": _result_blob(("ce", "78d58e0ea08a", "x")),
    "ts-not-ascii-digits": _result_blob(("ce", "78d58e0ea08a", "\u0667")),
    "ts-5000-digits": _result_blob(("ce", "78d58e0ea08a", "1" * 5000)),
    "not-ce": _result_blob(("cf", "78d58e0ea08a", "10000")),
    "rows-an-object": _result_blob(("ce", "h", "1"), rows=b'{"a":1}'),
    "rows-a-number": _result_blob(("ce", "h", "1"), rows=b"5"),
    "rows-not-json": _result_blob(("ce", "h", "1"), rows=b"not json"),
    "rows-nested-deep": _result_blob(("ce", "h", "1"), rows=b"[" * 5000 + b"]" * 5000),
    "rows-not-utf8": _result_blob(("ce", "h", "1"), rows="[[1]]".encode("utf-16")),
    "schema-not-utf8": _result_blob(("ce", "h", "1"), schema=b"g\xffs"),
    "no-rows": _result_blob(("ce", "h", "1")).removesuffix(b"\x0f[[10000,57.25]]"),
    "rows-past-the-end": _result_blob(("ce", "h", "1")).removesuffix(b"]"),
    "trailing-bytes": _result_blob(("ce", "h", "1")) + b"\x00",
}


@pytest.mark.parametrize("blob", list(_MALFORMED_RESULT.values()), ids=list(_MALFORMED_RESULT))
def test_a_tag_6_packet_must_hold_one_result(blob):
    with pytest.raises(MalformedPacket):
        decode_packet(blob)
    assert decode_packet(_result_blob(("ce", "78d58e0ea08a", "10000"))) == _AVG_RESULT


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
    "StateDelta": (549, 44, "2a00d9442e93a5ee5b8d12679c4a4e5a341a0096fd3989aa163d91c2da91a7ab"),
    "CeResult": (567, 63, "a0fbb02c50b2e206751e91b9633da482afa388dad9a9a46d9ae1c38e2b977d97"),
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
