"""Query language front end.

Tokenizer, recursive-descent parser, semantic validation against stream
schemas, canonical rendering (whose hash keys standing queries),
and translation to named-function call expressions.

The language is fixed: `OPERATORS` maps each keyword to its argument
slots, its semantic validator and its simulated compute cost per
evaluation, and the parser, validator, renderers and operators all work
from that one table.

Concrete syntax notes, where the abstract grammar leaves room:
- operator keywords are case-insensitive; stream and attribute names are not
- the leading format argument (DataStream or Data) is optional everywhere it
  is allowed and defaults to DataStream
- identifiers may contain underscores (stream aliases like GPS_S1 need them)
- numbers may be decimal (heat-map cell sizes) and may carry a leading minus
- identifiers, numbers and durations are ASCII; a whole number or duration
  that runs into a letter, digit or underscore is an identifier (4sx, 1_000),
  while a decimal or negative number ends at its last digit (1.5s, -5s)
- the two children of SEQUENCE are separated by "->" (the unicode arrow is
  accepted as an alias)
- "&" and "|" in boolean expressions share one precedence level and associate
  to the left
- time literals (nn:nn:nn.nnn) are comparison operands; operators compare
  them with a tuple's timestamp as milliseconds since midnight
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .packet import Name, Schema

__all__ = [
    "QueryError",
    "LexError",
    "ParseError",
    "SemanticError",
    "Token",
    "tokenize",
    "Duration",
    "AttrRef",
    "NumberLit",
    "TimeLit",
    "Comparison",
    "BoolOp",
    "BoolExpr",
    "OperatorNode",
    "OperatorDef",
    "OPERATORS",
    "StreamBinding",
    "StreamRegistry",
    "default_streams",
    "SchemaCtx",
    "parse_query",
    "create_operator_graph",
    "to_nfn_expression",
    "canonical_text",
    "query_hash",
    "GPS_SCHEMA",
    "PLUG_SCHEMA",
    "PREDICTION_SCHEMA",
    "STREAM_SCHEMAS",
]


class QueryError(ValueError):
    """Base for all query front-end failures."""


class LexError(QueryError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


class ParseError(QueryError):
    """Syntax-level rejection: unbalanced parentheses, missing tokens."""


class SemanticError(QueryError):
    """Unknown operator, bad parameter count or kind, unresolvable attribute."""


# ---------------------------------------------------------------------------
# schemas


GPS_SCHEMA = Schema(
    "gps",
    ("ts", "s_id", "latitude", "longitude", "altitude", "accuracy", "distance", "speed"),
)
PLUG_SCHEMA = Schema(
    "plug",
    ("ts", "id", "value", "property", "plug_id", "household_id", "house_id"),
)
PREDICTION_SCHEMA = Schema(
    "prediction",
    ("ts", "plug_id", "household_id", "house_id", "predicted_load"),
)
AGG_SCHEMA = Schema("agg", ("ts", "value"))
BOOL_SCHEMA = Schema("bool", ("ts", "matched"))
GRID_SCHEMA = Schema("grid", ("ts", "grid"))

# the producer stream schemas a scenario or dataset may name
STREAM_SCHEMAS = {s.schema_id: s for s in (GPS_SCHEMA, PLUG_SCHEMA)}


@dataclass(frozen=True)
class StreamBinding:
    """Maps a query-level alias to a producer stream name and its schema."""

    alias: str
    name: Name
    schema: Schema


StreamRegistry = dict[str, StreamBinding]


def default_streams() -> StreamRegistry:
    """Built-in alias table used when no scenario supplies one."""
    table = [
        StreamBinding("GPS_S1", Name.from_uri("/node/p1/gps"), GPS_SCHEMA),
        StreamBinding("GPS_S2", Name.from_uri("/node/p2/gps"), GPS_SCHEMA),
        StreamBinding("PLUG_S1", Name.from_uri("/node/p1/plug"), PLUG_SCHEMA),
        StreamBinding("PLUG_S2", Name.from_uri("/node/p2/plug"), PLUG_SCHEMA),
    ]
    return {b.alias: b for b in table}


# ---------------------------------------------------------------------------
# tokens


class Token(NamedTuple):
    kind: str  # IDENT NUMBER DURATION ATTR TIME LPAREN RPAREN COMMA DOT CMP AMP PIPE ARROW
    text: str
    pos: int
    value: object = None


# One alternative per token kind, tried in order, each after optional white
# space. A whole number or duration running into a letter, digit or underscore
# is left to WORD, a digit-led identifier; BAD takes any other character.
# tokenize() stops the scan before trailing white space: there every
# alternative fails and `\s*` would backtrack through the run, once per start.
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<DOT>\.) | (?P<AMP>&) | (?P<PIPE>\|)
    | (?P<ATTR>'[^']*')
    | (?P<TIME>[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3})
    | (?P<NUMBER>-?[0-9]+\.[0-9]+|-[0-9]+|[0-9]+(?![A-Za-z0-9_]))
    | (?P<DURATION>[0-9]+[sm](?![A-Za-z0-9_]))
    | (?P<WORD>[0-9][A-Za-z0-9_]*)
    | (?P<CMP>[<>]=?|=)
    | (?P<ARROW>->|→)
    | (?P<BAD>\S)
    )""",
    re.VERBOSE,
)
_PLAIN = frozenset(("LPAREN", "RPAREN", "COMMA", "DOT", "AMP", "PIPE", "CMP"))
_BAD = {"'": "unterminated quote", "-": "stray '-'"}


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; offsets are kept for diagnostics."""
    toks: list[Token] = []
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        s = m[kind]
        pos = m.start(kind)
        if kind == "IDENT" or kind == "WORD":
            toks.append(Token("IDENT", s, pos, s))
        elif kind in _PLAIN:
            toks.append(Token(kind, s, pos))
        elif kind == "NUMBER":
            toks.append(Token(kind, s, pos, float(s)))
        elif kind == "DURATION":
            if int(s[:-1]) < 1:
                raise LexError("duration must be at least 1 unit", pos)
            toks.append(Token(kind, s, pos, Duration(int(s[:-1]), s[-1])))
        elif kind == "ATTR":
            toks.append(Token(kind, s[1:-1], pos, s[1:-1]))
        elif kind == "TIME":
            toks.append(Token(kind, s, pos, s))
        elif kind == "ARROW":
            toks.append(Token(kind, "->", pos))
        else:
            raise LexError(_BAD.get(s, "illegal character %r" % s), pos)
    return toks


# ---------------------------------------------------------------------------
# expression values


@dataclass(frozen=True)
class Duration:
    magnitude: int
    unit: str  # "s" or "m"

    def __post_init__(self) -> None:
        if self.magnitude < 1:
            raise ValueError("duration magnitude must be >= 1")
        if self.unit not in ("s", "m"):
            raise ValueError("duration unit must be s or m")

    @property
    def ms(self) -> int:
        return self.magnitude * (1000 if self.unit == "s" else 60_000)

    def __str__(self) -> str:
        return "%d%s" % (self.magnitude, self.unit)


@dataclass(frozen=True)
class AttrRef:
    name: str
    alias: Optional[str] = None

    def __str__(self) -> str:
        if self.alias:
            return "%s.'%s'" % (self.alias, self.name)
        return "'%s'" % self.name


@dataclass(frozen=True)
class NumberLit:
    value: float

    def __str__(self) -> str:
        return _fmt_number(self.value)


@dataclass(frozen=True)
class TimeLit:
    text: str

    def __str__(self) -> str:
        return self.text


Operand = Union[AttrRef, NumberLit, TimeLit]


@dataclass(frozen=True)
class Comparison:
    left: Operand
    op: str  # < > = <= >=
    right: Operand

    def __str__(self) -> str:
        return "%s%s%s" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class BoolOp:
    op: str  # & or |
    left: "BoolExpr"
    right: "BoolExpr"

    def __str__(self) -> str:
        return "%s%s%s" % (self.left, self.op, self.right)


BoolExpr = Union[Comparison, BoolOp]


def _fmt_number(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# schema context: how attribute references resolve across join segments


@dataclass(frozen=True)
class SchemaCtx:
    """Positional attribute layout of an operator's output tuples.

    A join concatenates its inputs, so one output carries several aliased
    segments; qualified references pick the segment, unqualified ones take
    the first segment that knows the attribute.
    """

    schema_id: str
    segments: tuple[tuple[Optional[str], Schema, int], ...]  # (alias, schema, offset)

    @classmethod
    def single(cls, alias: Optional[str], schema: Schema) -> "SchemaCtx":
        return cls(schema_id=schema.schema_id, segments=((alias, schema, 0),))

    @property
    def width(self) -> int:
        alias, schema, off = self.segments[-1]
        return off + len(schema.attribute_names)

    def join(self, other: "SchemaCtx") -> "SchemaCtx":
        shifted = tuple(
            (alias, schema, off + self.width) for alias, schema, off in other.segments
        )
        return SchemaCtx(
            schema_id="join(%s,%s)" % (self.schema_id, other.schema_id),
            segments=self.segments + shifted,
        )

    def resolve(self, ref: AttrRef) -> int:
        """Index of the referenced attribute in the output values."""
        for alias, schema, off in self.segments:
            if ref.alias is not None and alias != ref.alias:
                continue
            try:
                return off + schema.index_of(ref.name)
            except KeyError:
                if ref.alias is not None:
                    break
        raise SemanticError("attribute %s not in schema %s" % (ref, self.schema_id))

    def aliases(self) -> set[str]:
        return {a for a, _, _ in self.segments if a is not None}


# ---------------------------------------------------------------------------
# operator tree


@dataclass
class OperatorNode:
    """Vertex of the binary operator tree."""

    kind: str
    params: list
    left: Optional["OperatorNode"] = None
    right: Optional["OperatorNode"] = None
    fmt: str = "DataStream"
    index: int = field(default=-1, compare=False)
    parent: Optional[int] = field(default=None, compare=False)  # its parent's index
    depth: int = field(default=0, compare=False)  # the root's is 0
    ctx: Optional[SchemaCtx] = field(default=None, compare=False)

    @property
    def children(self) -> list["OperatorNode"]:
        return [c for c in (self.left, self.right) if c is not None]

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def stream_alias(self) -> Optional[str]:
        if self.kind == "WINDOW":
            return self.params[0]
        return None

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def stream_aliases(self) -> set[str]:
        out = set()
        for node in self.walk():
            alias = node.stream_alias
            if alias:
                out.add(alias)
        return out


# ---------------------------------------------------------------------------
# operator table


@dataclass(frozen=True)
class OperatorDef:
    slots: tuple[str, ...]  # each: expr boolexp attr stream extent number duration
    # returns the output SchemaCtx; raises SemanticError on bad params
    semantics: Callable[["OperatorNode", list[SchemaCtx], StreamRegistry], SchemaCtx]
    cost_ms: float  # simulated compute charge of one evaluation
    accepts_format: bool = True
    arrow: bool = False  # children separated by -> instead of commas
    child_kind: Optional[str] = None  # required kind of every child, if any


def _sem_window(node: OperatorNode, child_ctxs, streams: StreamRegistry) -> SchemaCtx:
    alias = node.params[0]
    if alias not in streams:
        raise SemanticError("unknown stream alias %r" % alias)
    return SchemaCtx.single(alias, streams[alias].schema)


def _check_boolexpr(expr: BoolExpr, ctx: SchemaCtx) -> None:
    if isinstance(expr, BoolOp):
        _check_boolexpr(expr.left, ctx)
        _check_boolexpr(expr.right, ctx)
        return
    for side in (expr.left, expr.right):
        if isinstance(side, AttrRef):
            ctx.resolve(side)


def _sem_filter(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    ctx = child_ctxs[0]
    _check_boolexpr(node.params[0], ctx)
    return ctx


def _sem_join(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    ctx = child_ctxs[0].join(child_ctxs[1])
    _check_boolexpr(node.params[0], ctx)
    return ctx


def _sem_sequence(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    return SchemaCtx.single(None, BOOL_SCHEMA)


def _sem_agg(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    child_ctxs[0].resolve(node.params[0])
    return SchemaCtx.single(None, AGG_SCHEMA)


def _sem_heatmap(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    cell, lat_min, lat_max, long_min, long_max = node.params[:5]
    if cell <= 0:
        raise SemanticError("cell size must be positive")
    if lat_max <= lat_min or long_max <= long_min:
        raise SemanticError("degenerate heat-map bounds")
    ctx = child_ctxs[0]
    ctx.resolve(AttrRef("latitude"))
    ctx.resolve(AttrRef("longitude"))
    return SchemaCtx.single(None, GRID_SCHEMA)


def _sem_predict(node: OperatorNode, child_ctxs, streams) -> SchemaCtx:
    ctx = child_ctxs[0]
    for attr in ("value", "plug_id", "household_id", "house_id"):
        ctx.resolve(AttrRef(attr))
    # predictions stay joinable on the source alias
    alias = next(iter(ctx.aliases()), None)
    return SchemaCtx.single(alias, PREDICTION_SCHEMA)


# keyword -> definition; the NFN service of a kind is `nfn_service_<Kind>`
OPERATORS: dict[str, OperatorDef] = {
    "WINDOW": OperatorDef(("stream", "extent"), _sem_window, cost_ms=0.05, accepts_format=False),
    "FILTER": OperatorDef(("expr", "boolexp"), _sem_filter, cost_ms=0.05),
    "JOIN": OperatorDef(("expr", "expr", "boolexp"), _sem_join, cost_ms=0.2),
    "SEQUENCE": OperatorDef(("expr", "expr"), _sem_sequence, cost_ms=0.1, arrow=True),
    **{
        agg: OperatorDef(("attr", "expr"), _sem_agg, cost_ms=0.1, child_kind="WINDOW")
        for agg in ("SUM", "MIN", "MAX", "AVG", "COUNT")
    },
    "HEATMAP": OperatorDef(
        ("number", "number", "number", "number", "number", "expr"), _sem_heatmap, cost_ms=40.0
    ),
    "PREDICT": OperatorDef(("duration", "expr"), _sem_predict, cost_ms=30.0, child_kind="WINDOW"),
}


# ---------------------------------------------------------------------------
# parser

# Operators a query may nest, root included. The shipped and benchmark
# queries nest at most four; the parser and every walk of the tree recurse
# once per level, so a deeper text is a ParseError, not a RecursionError.
MAX_NESTING = 64


class _Parser:
    def __init__(self, toks: list[Token], streams: StreamRegistry) -> None:
        self.toks = toks
        self.pos = 0
        self.streams = streams

    def peek(self) -> Optional[Token]:
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of query")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of query, expected %s" % kind)
        if tok.kind != kind:
            raise ParseError(
                "expected %s but found %r at offset %d" % (kind, tok.text, tok.pos)
            )
        self.pos += 1
        return tok

    # -- expressions --------------------------------------------------------

    def parse_expr(self, depth: int = 1) -> OperatorNode:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of query")
        if tok.kind != "IDENT":
            raise ParseError("expected operator at offset %d, found %r" % (tok.pos, tok.text))
        if depth > MAX_NESTING:
            raise ParseError(
                "operators nest deeper than %d at offset %d" % (MAX_NESTING, tok.pos)
            )
        keyword = tok.text.upper()
        op = OPERATORS.get(keyword)
        if op is None:
            raise SemanticError("unknown operator %r" % tok.text)
        self.next()
        self.expect("LPAREN")
        fmt = "DataStream"
        if op.accepts_format:
            t = self.peek()
            if (
                t is not None
                and t.kind == "IDENT"
                and t.text.upper() in ("DATASTREAM", "DATA")
                and self._followed_by_comma()
            ):
                fmt = "Data" if t.text.upper() == "DATA" else "DataStream"
                self.next()
                self.expect("COMMA")
        params: list = []
        children: list[OperatorNode] = []
        for slot_no, slot in enumerate(op.slots):
            if slot_no > 0:
                if op.arrow and slot == "expr" and children:
                    self.expect("ARROW")
                else:
                    tok = self.peek()
                    if tok is None or tok.kind == "RPAREN":
                        raise SemanticError(
                            "%s takes %d arguments" % (keyword, len(op.slots))
                        )
                    self.expect("COMMA")
            if slot == "expr":
                children.append(self.parse_expr(depth + 1))
            elif slot == "boolexp":
                params.append(self.parse_boolexpr())
            elif slot == "attr":
                params.append(self._parse_attr_param())
            elif slot == "stream":
                params.append(self.expect("IDENT").text)
            elif slot == "extent":
                params.append(self._parse_extent())
            elif slot == "number":
                tok = self.expect("NUMBER")
                params.append(tok.value)
            else:  # duration
                tok = self.expect("DURATION")
                params.append(tok.value)
        tok = self.peek()
        if tok is not None and tok.kind == "COMMA":
            raise SemanticError("%s takes %d arguments" % (keyword, len(op.slots)))
        self.expect("RPAREN")
        node = OperatorNode(kind=keyword, params=params, fmt=fmt)
        if children:
            node.left = children[0]
        if len(children) > 1:
            node.right = children[1]
        if op.child_kind is not None:
            for child in node.children:
                if child.kind != op.child_kind:
                    raise SemanticError(
                        "%s requires %s children, found %s"
                        % (keyword, op.child_kind, child.kind)
                    )
        return node

    def _followed_by_comma(self) -> bool:
        nxt = self.pos + 1
        return nxt < len(self.toks) and self.toks[nxt].kind == "COMMA"

    def _parse_attr_param(self) -> AttrRef:
        tok = self.peek()
        if tok is not None and tok.kind == "ATTR":
            self.next()
            return AttrRef(tok.value)
        if tok is not None and tok.kind == "IDENT":
            self.next()
            return AttrRef(tok.text)
        raise SemanticError("expected an attribute name")

    def _parse_extent(self):
        tok = self.peek()
        if tok is not None and tok.kind == "DURATION":
            self.next()
            return tok.value
        if tok is not None and tok.kind == "NUMBER":
            self.next()
            if tok.value != int(tok.value) or tok.value < 1:
                raise SemanticError("window size must be a positive whole number")
            return int(tok.value)
        raise SemanticError("window size must be numeric")

    # -- boolean expressions -------------------------------------------------

    def parse_boolexpr(self) -> BoolExpr:
        expr: BoolExpr = self._parse_comparison()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("AMP", "PIPE"):
                return expr
            self.next()
            rhs = self._parse_comparison()
            expr = BoolOp(op="&" if tok.kind == "AMP" else "|", left=expr, right=rhs)

    def _parse_comparison(self) -> Comparison:
        left = self._parse_operand()
        tok = self.expect("CMP")
        right = self._parse_operand()
        return Comparison(left=left, op=tok.text, right=right)

    def _parse_operand(self) -> Operand:
        tok = self.next()
        if tok.kind == "NUMBER":
            return NumberLit(tok.value)
        if tok.kind == "TIME":
            return TimeLit(tok.text)
        if tok.kind == "ATTR":
            return AttrRef(tok.value)
        if tok.kind == "IDENT":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "DOT":
                self.next()
                attr = self.expect("ATTR")
                return AttrRef(attr.value, alias=tok.text)
            return AttrRef(tok.text)
        raise ParseError("bad operand %r at offset %d" % (tok.text, tok.pos))


def _validate(node: OperatorNode, streams: StreamRegistry) -> SchemaCtx:
    child_ctxs = [_validate(c, streams) for c in node.children]
    op = OPERATORS[node.kind]
    ctx = op.semantics(node, child_ctxs, streams)
    node.ctx = ctx
    return ctx


def parse_query(query: str, streams: Optional[StreamRegistry] = None) -> OperatorNode:
    """Parse and validate a query, returning the operator tree."""
    if streams is None:
        streams = default_streams()
    toks = tokenize(query)
    if not toks:
        raise ParseError("empty query")
    parser = _Parser(toks, streams)
    tree = parser.parse_expr()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError("trailing input %r at offset %d" % (tok.text, tok.pos))
    _validate(tree, streams)
    return tree


# ---------------------------------------------------------------------------
# rendering: canonical text, lambda expressions


def _render_param(p) -> str:
    if isinstance(p, float):
        return _fmt_number(p)
    return str(p)


def canonical_text(node: OperatorNode) -> str:
    """Whitespace-free rendering; re-parsing it yields an equal tree.

    Standing queries are keyed by this form's hash, so formatting differences
    in consumer-supplied text cannot create duplicate table entries.
    """
    op = OPERATORS[node.kind]
    parts: list[str] = []
    if node.fmt == "Data":
        parts.append("Data")
    children = list(node.children)
    params = list(node.params)
    ci = pi = 0
    rendered: list[str] = []
    for slot in op.slots:
        if slot == "expr":
            rendered.append(canonical_text(children[ci]))
            ci += 1
        else:
            rendered.append(_render_param(params[pi]))
            pi += 1
    if op.arrow:
        body = "->".join(rendered)
    else:
        body = ",".join(rendered)
    if parts:
        body = parts[0] + "," + body
    return "%s(%s)" % (node.kind, body)


def query_hash(canonical: str, salt: str = "") -> str:
    digest = hashlib.sha1((canonical + "|" + salt).encode("utf-8")).hexdigest()
    return digest[:12]


def to_nfn_expression(node: OperatorNode, hosts: Optional[dict[int, str]] = None) -> str:
    """Nested (call ...) text for the subtree rooted at node.

    The call arity is one for the service name plus one per child plus one
    per literal parameter. `hosts` maps operator index to the id of the
    node that runs it, as in `PlacementPlan.assignments`; an operator
    without an entry carries the nodeQuery placeholder.
    """
    host = (hosts or {}).get(node.index, "nodeQuery")
    args = [to_nfn_expression(c, hosts) for c in node.children]
    args += [_render_param(p) for p in node.params]
    n = 1 + len(node.params) + len(node.children)
    service = node.kind.capitalize()
    return "(call %d /node/%s/nfn_service_%s %s)" % (n, host, service, " ".join(args))


def create_operator_graph(
    query: str, streams: Optional[StreamRegistry] = None
) -> OperatorNode:
    """Parse plus plan-node bookkeeping: pre-order indices, each node's parent and depth."""
    tree = parse_query(query, streams)
    for i, node in enumerate(tree.walk()):
        node.index = i
        for child in node.children:
            child.parent, child.depth = i, node.depth + 1
    return tree
