"""Names, tuples, and the five packet kinds with their wire encoding.

Everything here is an immutable value; packets can be shared freely between
nodes without copying. An encoded packet is one type-tag byte, then its
fields in order and nothing after them; integers are unsigned big-endian:

  1 Interest: name
  2 Data: name, u64 ts, u32 payload length, payload
  3 DataStream: name, tuple
  4 AddQueryInterest, 5 RemoveQueryInterest: u64 nonce, text32 query
  name: u16 component count (at least 1), one text16 per component
  tuple: u64 ts, text16 schema id, u16 value count, then per value
         b"F" and an IEEE-754 f64, or b"T" and a text32
  text16, text32: u16 or u32 byte length, then the UTF-8 bytes

A DataStream named /state/<q>/<i>/out carries a StateDelta, which the
engines hand on as a value. On the wire it is the tuple (wm, "snapshot",
(wm, doc)), where doc is the JSON text (json.dumps with default settings, in
this key order) of
  {"schema": <schema id>, "wm": <wm>, "first": <index>, "end": <index>,
   "rows": [[value, ...], ...]}
and decode_packet accepts such a DataStream only with a doc whose rows fit
[first, end) and pass Tuple validation.
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

_VALUE_FLOAT = ord("F")
_VALUE_TEXT = ord("T")


def _enc_u16(n: int) -> bytes:
    return struct.pack(">H", n)


def _enc_u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _enc_u64(n: int) -> bytes:
    return struct.pack(">Q", n)


def _enc_text16(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("text too long for 16-bit length prefix")
    return _enc_u16(len(raw)) + raw


def _enc_text32(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _enc_u32(len(raw)) + raw


def _enc_name(name: Name) -> bytes:
    out = [_enc_u16(len(name.components))]
    for comp in name.components:
        out.append(_enc_text16(comp))
    return b"".join(out)


# json.dumps with its default settings, without its per-call set-up
_encode_json = json.JSONEncoder().encode


def _enc_tuple(t: Tuple | StateDelta) -> bytes:
    if isinstance(t, StateDelta):
        doc = _encode_json(
            {
                "schema": t.schema,
                "wm": t.ts,
                "first": t.first,
                "end": t.end,
                "rows": [r.values for r in t.rows],
            }
        )
        t = Tuple(ts=t.ts, schema_id="snapshot", values=(t.ts, doc))
    out = [_enc_u64(t.ts), _enc_text16(t.schema_id), _enc_u16(len(t.values))]
    for v in t.values:
        if isinstance(v, str):
            out.append(bytes([_VALUE_TEXT]) + _enc_text32(v))
        else:
            out.append(bytes([_VALUE_FLOAT]) + struct.pack(">d", float(v)))
    return b"".join(out)


def encode_packet(p: Packet) -> bytes:
    """Deterministic, self-delimiting encoding of a packet.

    Total on valid packets; decode_packet(encode_packet(p)) == p.
    """
    if isinstance(p, Interest):
        return bytes([_TAG_INTEREST]) + _enc_name(p.name)
    if isinstance(p, Data):
        return (
            bytes([_TAG_DATA])
            + _enc_name(p.name)
            + _enc_u64(p.ts)
            + _enc_u32(len(p.payload))
            + p.payload
        )
    if isinstance(p, DataStream):
        return bytes([_TAG_DATA_STREAM]) + _enc_name(p.stream_name) + _enc_tuple(p.tuple)
    if isinstance(p, AddQueryInterest):
        return bytes([_TAG_ADD_QUERY]) + _enc_u64(p.nonce) + _enc_text32(p.query)
    if isinstance(p, RemoveQueryInterest):
        return bytes([_TAG_REMOVE_QUERY]) + _enc_u64(p.nonce) + _enc_text32(p.query)
    raise TypeError("not a packet: %r" % (p,))


class _Reader:
    """Bounds-checked cursor over a byte string."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise MalformedPacket("truncated packet")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def text16(self) -> str:
        return self._text(self.u16())

    def text32(self) -> str:
        return self._text(self.u32())

    def _text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPacket("bad utf-8: %s" % exc) from None

    def done(self) -> bool:
        return self.pos == len(self.buf)


def _dec_name(r: _Reader) -> Name:
    count = r.u16()
    if count == 0:
        raise MalformedPacket("name with zero components")
    comps = []
    for _ in range(count):
        comp = r.text16()
        if not comp or "/" in comp:
            raise MalformedPacket("bad name component %r" % comp)
        comps.append(comp)
    return Name(tuple(comps))


def _dec_tuple(r: _Reader) -> Tuple:
    ts = r.u64()
    schema_id = r.text16()
    count = r.u16()
    values = []
    for _ in range(count):
        kind = r.u8()
        if kind == _VALUE_FLOAT:
            values.append(r.f64())
        elif kind == _VALUE_TEXT:
            values.append(r.text32())
        else:
            raise MalformedPacket("unknown value kind 0x%02x" % kind)
    try:
        return Tuple(ts=ts, schema_id=schema_id, values=tuple(values))
    except ValueError as exc:
        raise MalformedPacket(str(exc)) from None


def _dec_state_delta(t: Tuple) -> StateDelta:
    """The StateDelta that a /state/<q>/<i>/out tuple carries."""
    if t.schema_id != "snapshot" or len(t.values) != 2 or not isinstance(t.values[1], str):
        raise MalformedPacket("a /state delta is a (wm, text) snapshot tuple")
    try:
        doc = json.loads(t.values[1])
        schema, wm, first, end, raw = (doc[k] for k in ("schema", "wm", "first", "end", "rows"))
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        raise MalformedPacket("malformed /state delta: %r" % (err,)) from None
    if not (
        type(schema) is str
        and type(wm) is int
        and wm == t.ts
        and type(first) is int
        and type(end) is int
        and type(raw) is list
        and len(raw) <= end - first
        and all(type(r) is list and r for r in raw)
    ):
        raise MalformedPacket("/state delta fields do not fit")
    try:
        rows = tuple(Tuple(ts=int(r[0]), schema_id=schema, values=tuple(r)) for r in raw)
    except (TypeError, ValueError, OverflowError) as err:
        raise MalformedPacket("malformed /state delta row: %s" % (err,)) from None
    return StateDelta(ts=wm, schema=schema, first=first, end=end, rows=rows)


def decode_packet(b: bytes) -> Packet:
    """Inverse of encode_packet; raises MalformedPacket on anything else."""
    r = _Reader(bytes(b))
    if len(r.buf) == 0:
        raise MalformedPacket("empty buffer")
    tag = r.u8()
    try:
        if tag == _TAG_INTEREST:
            p: Packet = Interest(_dec_name(r))
        elif tag == _TAG_DATA:
            name = _dec_name(r)
            ts = r.u64()
            payload = r.take(r.u32())
            p = Data(name=name, payload=payload, ts=ts)
        elif tag == _TAG_DATA_STREAM:
            name = _dec_name(r)
            t = _dec_tuple(r)
            comps = name.components
            if len(comps) == 4 and comps[0] == "state" and comps[3] == "out":
                t = _dec_state_delta(t)
            p = DataStream(stream_name=name, tuple=t)
        elif tag == _TAG_ADD_QUERY:
            nonce = r.u64()
            p = AddQueryInterest(query=r.text32(), nonce=nonce)
        elif tag == _TAG_REMOVE_QUERY:
            nonce = r.u64()
            p = RemoveQueryInterest(query=r.text32(), nonce=nonce)
        else:
            raise MalformedPacket("unknown type tag 0x%02x" % tag)
    except ValueError as exc:
        # Name/Tuple constructors reject bad field content.
        raise MalformedPacket(str(exc)) from None
    if not r.done():
        raise MalformedPacket("%d trailing bytes" % (len(r.buf) - r.pos))
    return p
