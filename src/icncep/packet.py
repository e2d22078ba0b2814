"""Names, tuples, and the five packet kinds with their wire encoding.

Names, tuples, deltas and packets are immutable values; packets can be
shared freely between nodes without copying. Three classes are not values
but the ends an operator instance keeps of what it sends or receives:
`DeltaSender` and `Mirror`, the two ends of a /state feed, and
`ResultRenderer`, a root's renderer of /ce payloads. An encoded packet is
one type-tag byte, then its fields in order and nothing after them;
fixed-width integers are unsigned big-endian:

  1 Interest: name
  2 Data: name, u64 ts, u32 payload length, payload
  3 DataStream of a producer Tuple: name, tuple
  4 AddQueryInterest, 5 RemoveQueryInterest: u64 nonce, text32 query
  6 Data /ce/<hash>/<ts> that carries a rendered result: hash <hash>, varint
    <ts>, result
  7 DataStream /state/<q>/<i>/out that carries a StateDelta: hash <q>,
    varint <i>, delta
  name: u16 component count (at least 1), one text16 per component
  tuple: u64 ts, text16 schema id, u16 value count, then per value
         b"F" and an IEEE-754 f64, or b"T" and a text32
  text16, text32, textvar: u16, u32 or varint byte length, then the UTF-8 bytes
  varint: an unsigned LEB128 integer below 2**64, low 7-bit group first, the
          high bit of each byte set on all but the last; at most 10 bytes, and
          the last byte is not zero unless it is the only one
  hash: a name component, as a varint header h and h >> 1 bytes after it: for
        odd h the raw bytes of a lowercase hex text, for even h the UTF-8
        bytes of the text. A non-empty, even-length text of only [0-9a-f]
        (a query hash such as 78d58e0ea08a) takes the raw form and any other
        text the UTF-8 one; decode_packet rejects an empty body and the UTF-8
        form of a text that takes the raw one.

Tags 6 and 7 imply the rest of their names. <ts> and <i> are u64 values in
canonical decimal, which is how the name spells them.

A DataStream named /state/<q>/<i>/out carries a StateDelta, which the
engines hand on as a value; after its name fields comes
  delta: varint wm, varint first, varint end, textvar schema id, rows
with rows the values of each shipped row. decode_packet accepts it only if
every row is non-empty, there are at most end - first rows, and each passes
Tuple validation; each row decodes to a Tuple of the delta's schema. It
rejects a tag-3 packet under a /state/<q>/<i>/out name. encode_packet
refuses a StateDelta under any other name or with an <i> that is not a u64
in canonical decimal, and anything but a StateDelta under such a name.

A result is what Engine._notify sends: a Data named exactly /ce/<hash>/<ts>,
with <ts> its ts in canonical decimal, whose payload is result_payload's
default-format JSON of {"hash": <hash>, "ts": <ts>, "schema": ..., "rows":
[[value, ...], ...]}. Its payload is kept whole in memory, but after its
name fields the wire carries only
  result: textvar schema, rows
and decode_packet renders the payload again, byte for byte. encode_packet
writes tag 6 only where the payload's rows are a list of lists and that
rendering gives the payload back, and tag 2 for every other Data.

Tags 6 and 7 write their rows with typed values:
  rows: varint row count, then per row a varint value count and its values
  value: varint header h; kind = h & 3, n = h >> 2
    0 an int (not a bool), n = zigzag(v); only where h < 2**64, which is
      -2**61 <= v < 2**61
    1 a finite float, n = zigzag(e) << 1 | sign, then varint m: m * 10**e is
      the shortest decimal that repr(v) spells, m has no trailing 0 digit,
      and m = 0 takes e = 0 (-0.0 keeps its sign; 3.0 is m=3, e=0 and reads
      back as a float)
    2 a str, n = its UTF-8 byte length, then those bytes
    3 any other value (a bool, an int beyond kind 0, nan and +-inf; in a
      result also null, a list or an object; a str with a lone surrogate),
      n = the byte length of its compact JSON text (separators "," and
      ":"), then that text
  zigzag(v): 2v for v >= 0, else -2v - 1
Each value has one encoding: decode_packet re-encodes every float and JSON
value it reads and rejects bytes that differ, such as a mantissa with a
trailing 0 digit, a zero with an exponent, a kind-1 value that reads as
another float or as inf, kind 3 for a value that kinds 0-2 write, or JSON
that is not compact. An int and a str read back in their one encoding by
construction.
"""
from __future__ import annotations

import json
import math
import struct
from collections import deque
from collections.abc import Callable, Sequence
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
    "ResultRenderer",
    "Slide",
    "DeltaSender",
    "Mirror",
    "is_prefix_of",
    "encode_sorted",
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

    Every row of a feed has a running index, and both ends know each row by
    it alone. `rows` holds the last len(rows) of them, the ones the receiver
    has not had yet (the ISTREAM/DSTREAM split of CQL); `ts` is the output's
    watermark. `DeltaSender` makes them and `Mirror` applies them.
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
_TAG_STATE = 7

_VALUE_FLOAT = ord("F")
_VALUE_TEXT = ord("T")

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FLOAT = struct.Struct(">Bd")  # a value kind byte and an f64

_HEX_DIGITS = "0123456789abcdef"

# row value kinds, the low two bits of a value's header
_KIND_INT = 0
_KIND_FLOAT = 1
_KIND_TEXT = 2
_KIND_JSON = 3
_INT_BOUND = 1 << 61  # kind 0 holds -2**61 .. 2**61-1, whose headers stay below 2**64

# json.dumps(..., separators=(",", ":")), without its per-call set-up
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _prebuilt(sort_keys: bool) -> Callable[[object], str]:
    """`json.JSONEncoder(sort_keys=sort_keys).encode` of a value that holds no
    cycle, with its C encoder built once: `encode` builds one per call."""
    # markers, default, str encoder, indent, separators, sort_keys, skipkeys, allow_nan
    head = (None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None)
    c = json.encoder.c_make_encoder(*head, ": ", ", ", sort_keys, False, True)
    return lambda o: "".join(c(o, 0))


# json.dumps(...) and json.dumps(..., sort_keys=True) of a value with no cycle
_encode_result = _prebuilt(False)
encode_sorted = _prebuilt(True)


def _text(s: str, prefix: struct.Struct) -> bytes:
    """`s` as UTF-8 behind its byte length, written with `prefix`."""
    raw = s.encode("utf-8")
    if len(raw) >> (8 * prefix.size):
        raise ValueError("text too long for %d-bit length prefix" % (8 * prefix.size))
    return prefix.pack(len(raw)) + raw


def _name(name: Name) -> bytes:
    """`name` as its u16 component count and one text16 per component."""
    return _U16.pack(len(name.components)) + b"".join(_text(c, _U16) for c in name.components)


_ONE_BYTE = [bytes((n,)) for n in range(0x80)]  # the varints of one byte


def _varint(n: int) -> bytes:
    """`n` as an unsigned LEB128 varint; ValueError outside 0 .. 2**64-1."""
    if type(n) is int and 0 <= n < 0x80:
        return _ONE_BYTE[n]
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


def _is_hex(s: str) -> bool:
    """True iff `s` is a non-empty, even-length text of lowercase hex digits."""
    return bool(s) and len(s) % 2 == 0 and not s.strip(_HEX_DIGITS)


def _hash(s: str) -> bytes:
    """The hash field of the name component `s`: raw bytes if `s` is hex, else UTF-8."""
    raw, odd = (bytes.fromhex(s), 1) if _is_hex(s) else (s.encode("utf-8"), 0)
    return _varint(len(raw) << 1 | odd) + raw


def _u64_text(text: str) -> int | None:
    """`text` as an integer if it is a u64 in canonical decimal, else None."""
    if text.isascii() and text.isdigit() and len(text) <= 20:
        n = int(text)
        if str(n) == text and n < 1 << 64:
            return n
    return None


def _zigzag(v: int) -> int:
    """`v` as an unsigned integer: 2v for v >= 0, else -2v - 1."""
    return v << 1 if v >= 0 else ~v << 1 | 1


def _unzigzag(n: int) -> int:
    """The integer whose zigzag form is `n`."""
    return ~(n >> 1) if n & 1 else n >> 1


def _value(v) -> bytes:
    """The row value `v`: its varint header, then its body."""
    cls = type(v)
    if cls is int and -_INT_BOUND <= v < _INT_BOUND:
        return _varint(_zigzag(v) << 2 | _KIND_INT)
    if cls is float and math.isfinite(v):
        # repr spells [-]whole[.frac][e<exp>]; m is its digits without trailing zeros
        text = repr(v)
        sign = text[0] == "-"
        mantissa, _, exp = text[sign:].partition("e")
        whole, _, frac = mantissa.partition(".")
        digits = (whole + frac).rstrip("0")
        m = int(digits or "0")
        e = int(exp or "0") + len(whole) - len(digits) if m else 0
        return _varint((_zigzag(e) << 1 | sign) << 2 | _KIND_FLOAT) + _varint(m)
    if cls is str:
        try:
            raw = v.encode("utf-8")
            return _varint(len(raw) << 2 | _KIND_TEXT) + raw
        except UnicodeEncodeError:
            pass  # a lone surrogate, which JSON text escapes
    raw = _compact(v).encode("utf-8")
    return _varint(len(raw) << 2 | _KIND_JSON) + raw


def _rows(rows) -> bytes:
    """`rows`, each a sequence of values, in the rows layout of tags 6 and 7."""
    out = [_varint(len(rows))]
    for row in rows:
        out.append(_varint(len(row)))
        out += map(_value, row)
    return b"".join(out)


def _is_state_out(components: tuple[str, ...]) -> bool:
    """True iff the name is /state/<q>/<i>/out, which carries StateDeltas."""
    return len(components) == 4 and components[0] == "state" and components[3] == "out"


def result_payload(qhash: str, ts: int, schema: str, rows: list) -> bytes:
    """The payload of the result /ce/<qhash>/<ts>, as the consumer application reads it."""
    return _encode_result({"hash": qhash, "ts": ts, "schema": schema, "rows": rows}).encode("utf-8")


# An output as it changed, (rows, gone, new): `rows` is the output now, and
# rows == before[gone:] + new for the output `before` reported ahead of it.
Slide = tuple[Sequence[Tuple], int, Sequence[Tuple]]


class ResultRenderer:
    """`result_payload` of one query's successive results, rendering each row once.

    It takes every slide of the root's output (`take`), rendered or not, and
    keeps a JSON text per row of the output now: `_texts` for its first rows,
    and none yet for the last `_pending`, which the next payload renders.
    """

    __slots__ = ("_texts", "_pending", "_frame")

    def __init__(self) -> None:
        self._texts: deque[str] = deque()
        self._pending = 0
        # (qhash, schema, the JSON before ts, the JSON between ts and the rows)
        self._frame: tuple[str, str, str, str] | None = None

    def take(self, slide: Slide) -> None:
        """Note that the root's output slid by `slide`."""
        texts, gone = self._texts, slide[1]
        held = min(gone, len(texts))  # the rows that left had texts first
        for _ in range(held):
            texts.popleft()
        self._pending += len(slide[2]) - (gone - held)

    def payload(self, qhash: str, ts: int, rows: Sequence[Tuple]) -> bytes:
        """The bytes of `result_payload(qhash, ts, rows[0].schema_id, [r.values for r in rows])`,
        where `rows` is the root's output now."""
        texts, pending = self._texts, self._pending
        if pending:
            texts.extend(_encode_result(rows[i].values) for i in range(-pending, 0))
            self._pending = 0
        schema, frame = rows[0].schema_id, self._frame
        if frame is None or frame[0] != qhash or frame[1] != schema:
            before = '{"hash": %s, "ts": ' % _encode_result(qhash)
            between = ', "schema": %s, "rows": [' % _encode_result(schema)
            frame = self._frame = (qhash, schema, before, between)
        # JSON writes an int as its repr
        stamp = repr(ts) if type(ts) is int else _encode_result(ts)
        return ("%s%s%s%s]}" % (frame[2], stamp, frame[3], ", ".join(texts))).encode("utf-8")


class DeltaSender:
    """The sending end of the /state feed `name`: `end` is one past the running
    index of the last row it shipped.

    `delta` takes the output's slide since the last delta and ships its new
    rows under the next indices, so the receiver drops the rows before the
    output's first index and keeps the rest. After `restart`, the next delta
    is a keyframe: every row of the output, under fresh indices.
    """

    __slots__ = ("name", "end", "_restarted")

    def __init__(self, name: Name) -> None:
        self.name, self.end, self._restarted = name, 0, False

    def delta(self, slide: Slide, wm: int, schema: str) -> StateDelta:
        """The StateDelta that turns the output last shipped, slid by `slide`,
        into the output now."""
        rows, _, new = slide
        if self._restarted:
            new, self._restarted = rows, False
        end = self.end = self.end + len(new)
        return StateDelta(wm, schema, end - len(rows), end, tuple(new))

    def restart(self) -> None:
        """Make the next delta a keyframe, for a receiver that may have no mirror yet."""
        self._restarted = True


class Mirror:
    """The receiving end of a /state feed: rows[i] is the child's row of index base + i.

    `rows` is the mirror's own deque, updated in place, as a delta's rows are
    shared by every receiver of its packet. The rows `apply` last returned
    had the running indices first .. end-1.
    """

    __slots__ = ("width", "base", "rows", "first", "end")

    def __init__(self, width: int) -> None:
        self.width = width  # the child's output width
        self.rows: deque[Tuple] = deque()
        self.base = self.first = self.end = 0

    def apply(self, delta: StateDelta) -> Slide | None:
        """The slide of the child's rows first .. end-1 once `delta` applies, or None.

        It drops the rows before `first`, then appends the delta's, re-tagged
        to its schema id, and returns (rows, gone, new) measured by index from
        the rows it last returned: the rows of theirs it holds stay, and a
        keyframe, which comes under fresh indices, slides them all out. None
        means a lost packet left the mirror short, until `first` passes the
        missing rows or a keyframe comes. A row narrower than `width` raises
        ValueError and leaves the mirror as it was.
        """
        new, rows, schema = delta.rows, self.rows, delta.schema
        retag = False
        for r in new:
            if len(r.values) < self.width:
                raise ValueError("delta rows are narrower than %d values" % self.width)
            retag = retag or r.schema_id != schema
        if retag:
            new = [r if r.schema_id == schema else Tuple(r.ts, schema, r.values) for r in new]
        start = delta.end - len(new)
        if self.base + len(rows) != start:  # rows went missing: keep only this packet's
            rows.clear()
            # every row last returned is gone, under any sender's indices
            self.first, self.end = start - (self.end - self.first), start
            self.base = start
        rows.extend(new)
        if delta.first > self.base:
            for _ in range(min(delta.first - self.base, len(rows))):
                rows.popleft()
            self.base = delta.first
        if self.base != delta.first:
            return None
        base, n, end = self.base, len(rows), self.end
        gone, fresh = min(base, end) - self.first, min(n, base + n - end)
        self.first, self.end = base, base + n
        if fresh != len(new):  # the rows of deltas that returned None are new too
            new = list(map(rows.__getitem__, range(-fresh, 0)))
        return rows, gone, new


def _result_fields(p: Data) -> bytes | None:
    """The tag-6 fields of `p` if its payload renders back from them, else None."""
    comps = p.name.components
    if len(comps) != 3 or comps[0] != "ce" or _u64_text(comps[2]) != p.ts:
        return None
    try:
        doc = json.loads(p.payload)
        schema, rows = doc["schema"], doc["rows"]
        if (
            type(schema) is str
            and type(rows) is list
            and all(type(r) is list for r in rows)
            and result_payload(comps[1], p.ts, schema, rows) == p.payload
        ):
            return _hash(comps[1]) + _varint(p.ts) + _textvar(schema) + _rows(rows)
    except (ValueError, TypeError, KeyError, RecursionError):
        pass  # not JSON of an object with a text schema and a list of rows
    return None


def _state_fields(comps: tuple[str, ...], t: StateDelta) -> bytes:
    """The tag-7 fields of the StateDelta `t` sent on /state/<q>/<i>/out."""
    index = _u64_text(comps[2])
    if index is None:
        raise ValueError("<i> of /state/<q>/<i>/out is not a u64 in canonical decimal")
    if not 0 <= t.first <= t.end - len(t.rows):
        raise ValueError("rows first .. end-1 cannot hold %d rows" % len(t.rows))
    out = [_hash(comps[1]), _varint(index), _varint(t.ts), _varint(t.first), _varint(t.end)]
    return b"".join(out) + _textvar(t.schema) + _rows([r.values for r in t.rows])


def encode_packet(p: Packet) -> bytes:
    """Deterministic, self-delimiting encoding of a packet.

    Total on valid packets; decode_packet(encode_packet(p)) == p. A packet
    the decoder would not give back raises ValueError.
    """
    try:
        if isinstance(p, (AddQueryInterest, RemoveQueryInterest)):
            tag = _TAG_ADD_QUERY if isinstance(p, AddQueryInterest) else _TAG_REMOVE_QUERY
            return _U8.pack(tag) + _U64.pack(p.nonce) + _text(p.query, _U32)
        if isinstance(p, Interest):
            return _U8.pack(_TAG_INTEREST) + _name(p.name)
        if isinstance(p, Data):
            result = _result_fields(p)
            if result is not None:
                return _U8.pack(_TAG_RESULT) + result
            head = _U8.pack(_TAG_DATA) + _name(p.name) + _U64.pack(p.ts)
            return head + _U32.pack(len(p.payload)) + p.payload
        if isinstance(p, DataStream):
            comps, t = p.stream_name.components, p.tuple
            if _is_state_out(comps) != isinstance(t, StateDelta):
                raise ValueError("a StateDelta is sent on /state/<q>/<i>/out, and only there")
            if isinstance(t, StateDelta):
                return _U8.pack(_TAG_STATE) + _state_fields(comps, t)
            out = [_U8.pack(_TAG_DATA_STREAM), _name(p.stream_name), _U64.pack(t.ts)]
            out += [_text(t.schema_id, _U16), _U16.pack(len(t.values))]
            for v in t.values:
                if isinstance(v, str):
                    out.append(_U8.pack(_VALUE_TEXT) + _text(v, _U32))
                else:
                    out.append(_FLOAT.pack(_VALUE_FLOAT, float(v)))
            return b"".join(out)
        raise TypeError("not a packet: %r" % (p,))
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
    if at < len(buf) and buf[at] < 0x80:
        return buf[at], at + 1
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


def _read_bytes(buf: bytes, at: int, size: int) -> tuple[bytes, int]:
    """The `size` bytes at `at`, and the offset after them."""
    if at + size > len(buf):
        raise MalformedPacket("truncated packet")
    return buf[at : at + size], at + size


def _read_textvar(buf: bytes, at: int) -> tuple[str, int]:
    """The text behind the varint length at `at`, and the offset after it."""
    size, at = _read_varint(buf, at)
    raw, at = _read_bytes(buf, at, size)
    return raw.decode("utf-8"), at


def _read_hash(buf: bytes, at: int) -> tuple[str, int]:
    """The name component in the hash field at `at`, and the offset after it."""
    header, at = _read_varint(buf, at)
    if header >> 1 == 0:
        raise MalformedPacket("empty hash field")
    raw, at = _read_bytes(buf, at, header >> 1)
    if header & 1:
        return raw.hex(), at
    text = raw.decode("utf-8")
    if _is_hex(text):
        raise MalformedPacket("hex hash %r in text form" % text)
    return text, at


def _read_value(buf: bytes, at: int) -> tuple[object, int]:
    """The row value at `at`, and the offset after it."""
    start = at
    header, at = _read_varint(buf, at)
    kind, n = header & 3, header >> 2
    # an int or a text reads back in its one encoding: _read_varint refuses a
    # varint that is not minimal, and UTF-8 spells each text one way
    if kind == _KIND_INT:
        return _unzigzag(n), at
    if kind == _KIND_FLOAT:
        m, at = _read_varint(buf, at)
        v = float("%s%de%d" % ("-" if n & 1 else "", m, _unzigzag(n >> 1)))
    else:
        raw, at = _read_bytes(buf, at, n)
        if kind == _KIND_TEXT:
            return raw.decode("utf-8"), at
        v = json.loads(raw.decode("utf-8"))
    if _value(v) != buf[start:at]:
        raise MalformedPacket("row value not in its one encoding")
    return v, at


def _read_rows(buf: bytes, at: int) -> tuple[list[list], int]:
    """The rows at `at`, each a list of values, and the offset after them."""
    count, at = _read_varint(buf, at)
    rows = []
    for _ in range(count):  # each row takes at least a byte: a short buffer ends the loop
        size, at = _read_varint(buf, at)
        row = []
        for _ in range(size):
            v, at = _read_value(buf, at)
            row.append(v)
        rows.append(row)
    return rows, at


def _dec_state_delta(buf: bytes, at: int) -> tuple[StateDelta, int]:
    """The StateDelta written at `at`, and the offset after it."""
    wm, at = _read_varint(buf, at)
    first, at = _read_varint(buf, at)
    end, at = _read_varint(buf, at)
    schema, at = _read_textvar(buf, at)
    raw, at = _read_rows(buf, at)
    if not (len(raw) <= end - first and all(raw)):
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
        elif tag == _TAG_RESULT:
            qhash, at = _read_hash(buf, 1)
            ts, at = _read_varint(buf, at)
            schema, at = _read_textvar(buf, at)
            rows, at = _read_rows(buf, at)
            payload = result_payload(qhash, ts, schema, rows)
            p = Data(name=Name(("ce", qhash, str(ts))), payload=payload, ts=ts)
        elif tag == _TAG_STATE:
            q, at = _read_hash(buf, 1)
            index, at = _read_varint(buf, at)
            delta, at = _dec_state_delta(buf, at)
            p = DataStream(stream_name=Name(("state", q, str(index), "out")), tuple=delta)
        elif _TAG_INTEREST <= tag <= _TAG_DATA_STREAM:
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
            elif _is_state_out(name.components):
                raise MalformedPacket("a /state/<q>/<i>/out packet takes type tag 7")
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
    except (ValueError, OverflowError, RecursionError) as exc:
        # bad UTF-8 or JSON, JSON nested too deep, or field content that Name or Tuple rejects
        raise MalformedPacket(str(exc)) from None
    if at != len(buf):
        raise MalformedPacket("%d trailing bytes" % (len(buf) - at))
    return p
