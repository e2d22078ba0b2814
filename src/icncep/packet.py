"""Names, tuples, and the five packet kinds with their wire encoding.

Everything here is an immutable value; packets can be shared freely between
nodes without copying. An encoded packet is one type-tag byte, then its
fields in order and nothing after them; fixed-width integers are unsigned
big-endian:

  1 Interest: name
  2 Data: name, u64 ts, u32 payload length, payload
  3 DataStream: name, tuple
  4 AddQueryInterest, 5 RemoveQueryInterest: u64 nonce, text32 query
  6 Data named /ce/<hash>/<ts> that carries a rendered result: name, result
  name: u16 component count (at least 1), one text16 per component
  tuple: u64 ts, text16 schema id, u16 value count, then per value
         b"F" and an IEEE-754 f64, or b"T" and a text32
  text16, text32, textvar: u16, u32 or varint byte length, then the UTF-8 bytes
  varint: an unsigned LEB128 integer below 2**64, low 7-bit group first, the
          high bit of each byte set on all but the last; at most 10 bytes, and
          the last byte is not zero unless it is the only one

A DataStream named /state/<q>/<i>/out carries a StateDelta, which the
engines hand on as a value, and has a layout of its own after its name:
  delta: varint wm, varint first, varint end, textvar schema id, textvar rows
where rows is the compact JSON text (separators "," and ":") of
[[value, ...], ...], the values of each shipped row. decode_packet accepts
it only if the rows text is UTF-8 JSON of a list of non-empty lists, there
are at most end - first rows, and each passes Tuple validation; each row
decodes to a Tuple of the delta's schema. encode_packet refuses a StateDelta under any
other name, and anything but a StateDelta under such a name.

A result is what Engine._notify sends: a Data named exactly /ce/<hash>/<ts>,
with <ts> its ts in canonical decimal, whose payload is result_payload's
default-format JSON of {"hash": <hash>, "ts": <ts>, "schema": ..., "rows":
[...]}. Its payload is kept whole in memory, but the wire carries only
  result: textvar schema, textvar rows
with rows the compact JSON text of the list, and decode_packet renders the
payload again, byte for byte. A result's rows must be UTF-8 JSON of a list.
encode_packet writes tag 6 only where that rendering gives the payload back,
and tag 2 for every other Data.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

__all__ = [
    "Name",
    "Tuple",
    "Schema",
    "Interest",
    "Data",
    "DataStream",
    "StateDelta",
    "AddQueryInterest",
    "RemoveQueryInterest",
    "Packet",
    "MalformedPacket",
    "encode_packet",
    "decode_packet",
    "result_payload",
    "is_prefix_of",
]


class MalformedPacket(ValueError):
    """Raised when a byte string cannot be decoded into a packet."""


@dataclass(frozen=True, slots=True)
class Name:
    """Hierarchical content name, e.g. /node/nodeA/temperature."""

    components: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a name needs at least one component")
        for comp in self.components:
            if not comp:
                raise ValueError("empty name component")
            if "/" in comp:
                raise ValueError("name component contains '/': %r" % comp)

    @classmethod
    def from_uri(cls, uri: str) -> "Name":
        parts = [p for p in uri.split("/") if p != ""]
        if not parts:
            raise ValueError("empty name: %r" % uri)
        return cls(tuple(parts))

    def to_uri(self) -> str:
        return "/" + "/".join(self.components)

    def __str__(self) -> str:
        return self.to_uri()


def is_prefix_of(prefix: Name, name: Name) -> bool:
    """True iff prefix.components is a leading sub-list of name.components."""
    if len(prefix.components) > len(name.components):
        return False
    return name.components[: len(prefix.components)] == prefix.components


@dataclass(frozen=True, slots=True)
class Schema:
    """Named attribute layout for stream tuples; first attribute is ts."""

    schema_id: str
    attribute_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attribute_names or self.attribute_names[0] != "ts":
            raise ValueError("schema must start with a ts attribute")
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise ValueError("duplicate attribute name in schema %s" % self.schema_id)

    def index_of(self, attr: str) -> int:
        try:
            return self.attribute_names.index(attr)
        except ValueError:
            raise KeyError(attr) from None


@dataclass(frozen=True, slots=True)
class Tuple:
    """Timestamped attribute record <ts, a1, .., am>.

    ts is a logical millisecond timestamp supplied by the dataset or the
    simulator clock, never wall clock. The timestamp doubles as the first
    value, mirroring the stream layout.
    """

    ts: int
    schema_id: str
    values: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError("negative timestamp")
        if not self.values:
            raise ValueError("tuple carries no values")
        first = self.values[0]
        if not isinstance(first, (int, float)) or int(first) != self.ts:
            raise ValueError("first value must equal ts (%r vs %r)" % (first, self.ts))
        for v in self.values:
            if not isinstance(v, (int, float, str)):
                raise ValueError("attribute values are text or numbers, got %r" % (v,))

    @classmethod
    def from_values(cls, schema_id: str, values) -> "Tuple":
        vals = tuple(values)
        if not vals:
            raise ValueError("tuple carries no values")
        return cls(ts=int(vals[0]), schema_id=schema_id, values=vals)


@dataclass(frozen=True, slots=True)
class Interest:
    name: Name


@dataclass(frozen=True, slots=True)
class Data:
    name: Name
    payload: bytes
    ts: int


@dataclass(frozen=True, slots=True)
class StateDelta:
    """Rows first .. end-1 of an operator's output, shipped to its parent.

    `rows` holds the last len(rows) of them, the ones the receiver has not
    had yet; `ts` is the output's watermark.
    """

    ts: int
    schema: str
    first: int
    end: int
    rows: tuple[Tuple, ...]


@dataclass(frozen=True, slots=True)
class DataStream:
    stream_name: Name
    tuple: Tuple | StateDelta


@dataclass(frozen=True, slots=True)
class AddQueryInterest:
    query: str
    nonce: int


@dataclass(frozen=True, slots=True)
class RemoveQueryInterest:
    query: str
    nonce: int


Packet = Interest | Data | DataStream | AddQueryInterest | RemoveQueryInterest

_TAG_INTEREST = 1
_TAG_DATA = 2
_TAG_DATA_STREAM = 3
_TAG_ADD_QUERY = 4
_TAG_REMOVE_QUERY = 5
_TAG_RESULT = 6

_VALUE_FLOAT = ord("F")
_VALUE_TEXT = ord("T")

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FLOAT = struct.Struct(">Bd")  # a value kind byte and an f64

# json.dumps(..., separators=(",", ":")), without its per-call set-up
_encode_rows = json.JSONEncoder(separators=(",", ":")).encode
# json.dumps(...), without its per-call set-up
_encode_result = json.JSONEncoder().encode


def _text(s: str, prefix: struct.Struct) -> bytes:
    """`s` as UTF-8 behind its byte length, written with `prefix`."""
    raw = s.encode("utf-8")
    if len(raw) >> (8 * prefix.size):
        raise ValueError("text too long for %d-bit length prefix" % (8 * prefix.size))
    return prefix.pack(len(raw)) + raw


def _varint(n: int) -> bytes:
    """`n` as an unsigned LEB128 varint; ValueError outside 0 .. 2**64-1."""
    if not (isinstance(n, int) and 0 <= n < 1 << 64):
        raise ValueError("%r is not a u64" % (n,))
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _textvar(s: str) -> bytes:
    """`s` as UTF-8 behind its varint byte length."""
    raw = s.encode("utf-8")
    return _varint(len(raw)) + raw


def _is_state_out(components: tuple[str, ...]) -> bool:
    """True iff the name is /state/<q>/<i>/out, which carries StateDeltas."""
    return len(components) == 4 and components[0] == "state" and components[3] == "out"


def result_payload(qhash: str, ts: int, schema: str, rows: list) -> bytes:
    """The payload of the result /ce/<qhash>/<ts>, as the consumer application reads it."""
    return _encode_result({"hash": qhash, "ts": ts, "schema": schema, "rows": rows}).encode("utf-8")


def _render_result(components: tuple[str, ...], ts: int, schema: str, rows_text: str) -> bytes:
    """The payload of the result /ce/<hash>/<ts> whose rows are `rows_text`."""
    try:
        rows = json.loads(rows_text)
        if type(rows) is not list:
            raise MalformedPacket("result rows are not a list")
        return result_payload(components[1], ts, schema, rows)
    except RecursionError:
        raise MalformedPacket("result rows nest too deep") from None


def _result_ts(components: tuple[str, ...]) -> int | None:
    """<ts> of the name /ce/<hash>/<ts> if it is a u64 in canonical decimal, else None."""
    if len(components) != 3 or components[0] != "ce":
        return None
    text = components[2]
    if text.isascii() and text.isdigit() and len(text) <= 20:
        ts = int(text)
        if str(ts) == text and ts < 1 << 64:
            return ts
    return None


def _result_fields(p: Data) -> bytes | None:
    """The tag-6 fields of `p` if its payload renders back from them, else None."""
    ts = _result_ts(p.name.components)
    if ts is None or ts != p.ts:
        return None
    try:
        doc = json.loads(p.payload)
        schema, rows = doc["schema"], _encode_rows(doc["rows"])
        if type(schema) is str and _render_result(p.name.components, ts, schema, rows) == p.payload:
            return _textvar(schema) + _textvar(rows)
    except (ValueError, TypeError, KeyError, RecursionError):
        pass  # not JSON of an object with a text schema and a list of rows
    return None


def encode_packet(p: Packet) -> bytes:
    """Deterministic, self-delimiting encoding of a packet.

    Total on valid packets; decode_packet(encode_packet(p)) == p. A packet
    the decoder would not give back raises ValueError.
    """
    try:
        if isinstance(p, (AddQueryInterest, RemoveQueryInterest)):
            tag = _TAG_ADD_QUERY if isinstance(p, AddQueryInterest) else _TAG_REMOVE_QUERY
            return _U8.pack(tag) + _U64.pack(p.nonce) + _text(p.query, _U32)
        result = None
        if isinstance(p, Interest):
            tag, name = _TAG_INTEREST, p.name
        elif isinstance(p, Data):
            result = _result_fields(p)
            tag, name = (_TAG_DATA if result is None else _TAG_RESULT), p.name
        elif isinstance(p, DataStream):
            tag, name = _TAG_DATA_STREAM, p.stream_name
        else:
            raise TypeError("not a packet: %r" % (p,))
        out = [_U8.pack(tag), _U16.pack(len(name.components))]
        out += [_text(comp, _U16) for comp in name.components]
        if result is not None:
            out.append(result)
        elif isinstance(p, Data):
            out += [_U64.pack(p.ts), _U32.pack(len(p.payload)), p.payload]
        elif isinstance(p, DataStream):
            t = p.tuple
            if _is_state_out(name.components) != isinstance(t, StateDelta):
                raise ValueError("a StateDelta is sent on /state/<q>/<i>/out, and only there")
            if isinstance(t, StateDelta):
                if not 0 <= t.first <= t.end - len(t.rows):
                    raise ValueError("rows first .. end-1 cannot hold %d rows" % len(t.rows))
                rows = _encode_rows([r.values for r in t.rows])
                out += [_varint(t.ts), _varint(t.first), _varint(t.end)]
                out += [_textvar(t.schema), _textvar(rows)]
            else:
                out += [_U64.pack(t.ts), _text(t.schema_id, _U16), _U16.pack(len(t.values))]
                for v in t.values:
                    if isinstance(v, str):
                        out.append(_U8.pack(_VALUE_TEXT) + _text(v, _U32))
                    else:
                        out.append(_FLOAT.pack(_VALUE_FLOAT, float(v)))
        return b"".join(out)
    except (struct.error, OverflowError) as err:  # an integer beyond its field
        raise ValueError("cannot encode %s: %s" % (type(p).__name__, err)) from None


def _read(buf: bytes, at: int, prefix: struct.Struct) -> tuple[bytes, int]:
    """The bytes behind the length `prefix` at `at`, and the offset after them."""
    start = at + prefix.size
    end = start + prefix.unpack_from(buf, at)[0]
    if end > len(buf):
        raise MalformedPacket("truncated packet")
    return buf[start:end], end


def _read_varint(buf: bytes, at: int) -> tuple[int, int]:
    """The varint at `at`, and the offset after it."""
    n = shift = 0
    for i in range(at, min(at + 10, len(buf))):
        byte = buf[i]
        n |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and i > at:
                raise MalformedPacket("varint ends in a zero group")
            if n >> 64:
                raise MalformedPacket("varint beyond u64")
            return n, i + 1
        shift += 7
    if at + 10 <= len(buf):
        raise MalformedPacket("varint longer than 10 bytes")
    raise MalformedPacket("truncated packet")


def _read_textvar(buf: bytes, at: int) -> tuple[str, int]:
    """The text behind the varint length at `at`, and the offset after it."""
    size, at = _read_varint(buf, at)
    if at + size > len(buf):
        raise MalformedPacket("truncated packet")
    return buf[at : at + size].decode("utf-8"), at + size


def _dec_state_delta(buf: bytes, at: int) -> tuple[StateDelta, int]:
    """The StateDelta written at `at`, and the offset after it."""
    wm, at = _read_varint(buf, at)
    first, at = _read_varint(buf, at)
    end, at = _read_varint(buf, at)
    schema, at = _read_textvar(buf, at)
    text, at = _read_textvar(buf, at)
    try:
        raw = json.loads(text)
    except RecursionError:
        raise MalformedPacket("/state delta rows nest too deep") from None
    if not (
        type(raw) is list
        and len(raw) <= end - first
        and all(type(r) is list and r for r in raw)
    ):
        raise MalformedPacket("/state delta rows do not fit")
    try:
        rows = tuple(Tuple(ts=int(r[0]), schema_id=schema, values=tuple(r)) for r in raw)
    except TypeError as err:
        raise MalformedPacket("malformed /state delta row: %s" % (err,)) from None
    return StateDelta(ts=wm, schema=schema, first=first, end=end, rows=rows), at


def decode_packet(b: bytes) -> Packet:
    """Inverse of encode_packet; raises MalformedPacket on anything else."""
    buf = bytes(b)
    if not buf:
        raise MalformedPacket("empty buffer")
    tag = buf[0]
    try:
        if tag == _TAG_ADD_QUERY or tag == _TAG_REMOVE_QUERY:
            (nonce,) = _U64.unpack_from(buf, 1)
            query, at = _read(buf, 9, _U32)
            cls = AddQueryInterest if tag == _TAG_ADD_QUERY else RemoveQueryInterest
            p: Packet = cls(query=query.decode("utf-8"), nonce=nonce)
        elif _TAG_INTEREST <= tag <= _TAG_DATA_STREAM or tag == _TAG_RESULT:
            comps, at = [], 3
            for _ in range(_U16.unpack_from(buf, 1)[0]):
                comp, at = _read(buf, at, _U16)
                comps.append(comp.decode("utf-8"))
            name = Name(tuple(comps))
            if tag == _TAG_INTEREST:
                p = Interest(name)
            elif tag == _TAG_DATA:
                (ts,) = _U64.unpack_from(buf, at)
                payload, at = _read(buf, at + 8, _U32)
                p = Data(name=name, payload=payload, ts=ts)
            elif tag == _TAG_RESULT:
                ts = _result_ts(name.components)
                if ts is None:
                    raise MalformedPacket("a result is named /ce/<hash>/<ts>, <ts> a u64")
                schema, at = _read_textvar(buf, at)
                rows, at = _read_textvar(buf, at)
                payload = _render_result(name.components, ts, schema, rows)
                p = Data(name=name, payload=payload, ts=ts)
            elif _is_state_out(name.components):
                delta, at = _dec_state_delta(buf, at)
                p = DataStream(stream_name=name, tuple=delta)
            else:
                (ts,) = _U64.unpack_from(buf, at)
                schema_id, at = _read(buf, at + 8, _U16)
                (count,) = _U16.unpack_from(buf, at)
                at += 2
                values = []
                for _ in range(count):
                    (kind,) = _U8.unpack_from(buf, at)
                    if kind == _VALUE_FLOAT:
                        values.append(_FLOAT.unpack_from(buf, at)[1])
                        at += _FLOAT.size
                    elif kind == _VALUE_TEXT:
                        text, at = _read(buf, at + 1, _U32)
                        values.append(text.decode("utf-8"))
                    else:
                        raise MalformedPacket("unknown value kind 0x%02x" % kind)
                t = Tuple(ts=ts, schema_id=schema_id.decode("utf-8"), values=tuple(values))
                p = DataStream(stream_name=name, tuple=t)
        else:
            raise MalformedPacket("unknown type tag 0x%02x" % tag)
    except struct.error:
        raise MalformedPacket("truncated packet") from None
    except (ValueError, OverflowError) as exc:
        # bad UTF-8, or field content that Name or Tuple rejects
        raise MalformedPacket(str(exc)) from None
    if at != len(buf):
        raise MalformedPacket("%d trailing bytes" % (len(buf) - at))
    return p
