"""Runtime semantics of the event-processing operators.

The kernels are pure: each takes explicit state plus input and returns new
state plus output, which is what makes node-local evaluation replayable.
`Operator` owns the state: one per installed operator, it holds its kind's
state between evaluations and feeds each new input through its kind's
kernel, so the engine that hosts it names no operator kind.

The operators see only trees the parser validated. An `Operator` compiles
its FILTER or JOIN condition once, when it is built, and `filter_eval` and
`join_eval` take only that compiled `Condition`; a reference that does not
resolve is an UnknownAttribute at compile time. Rows from another broker's
/state delta may still carry text where an operator reads a number: the
aggregates, HEATMAP and PREDICT then raise UnknownAttribute, and the engine
skips that evaluation.
"""

from __future__ import annotations

import json
import math
import operator
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .packet import Tuple
from .query import (
    AttrRef,
    BoolExpr,
    BoolOp,
    Comparison,
    Duration,
    NumberLit,
    OPERATORS,
    OperatorNode,
    SchemaCtx,
    SemanticError,
    TimeLit,
)

__all__ = [
    "OperatorError",
    "OutOfOrderTuple",
    "UnknownAttribute",
    "EmptyWindow",
    "WindowState",
    "PredictState",
    "Condition",
    "JoinMemo",
    "compile_condition",
    "compile_join",
    "window_insert",
    "filter_eval",
    "join_eval",
    "aggregate_eval",
    "sequence_eval",
    "heatmap_eval",
    "predict_eval",
    "Operator",
]


class OperatorError(Exception):
    """Base class for runtime evaluation failures."""


class OutOfOrderTuple(OperatorError):
    pass


class UnknownAttribute(OperatorError):
    pass


class EmptyWindow(OperatorError):
    pass


# ---------------------------------------------------------------------------
# conditions, compiled once against a schema context


def _time_ms(text: str) -> int:
    hh, mm, rest = text.split(":")
    ss, mmm = rest.split(".")
    return ((int(hh) * 60 + int(mm)) * 60 + int(ss)) * 1000 + int(mmm)


_COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt, "<=": operator.le}

RowTest = Callable[[tuple], bool]


def _operand(ref, ctx: SchemaCtx) -> tuple[Optional[int], object]:
    """(column index, None) for an attribute, (None, value) for a literal."""
    if isinstance(ref, AttrRef):
        try:
            return ctx.resolve(ref), None
        except SemanticError as err:
            raise UnknownAttribute(str(err)) from err
    if isinstance(ref, NumberLit):
        return None, ref.value
    if isinstance(ref, TimeLit):
        return None, _time_ms(ref.text)
    raise UnknownAttribute("unsupported operand %r" % (ref,))


def _compile(expr: BoolExpr, ctx: SchemaCtx) -> RowTest:
    if isinstance(expr, Comparison):
        (i, a), (j, b) = _operand(expr.left, ctx), _operand(expr.right, ctx)
        cmp = _COMPARE.get(expr.op, operator.ge)
        # text never orders against numbers; keep the evaluator total
        if i is not None and j is not None:
            return lambda v: isinstance(v[i], str) == isinstance(v[j], str) and cmp(v[i], v[j])
        if i is not None:
            b_text = isinstance(b, str)
            return lambda v: isinstance(v[i], str) == b_text and cmp(v[i], b)
        if j is not None:
            a_text = isinstance(a, str)
            return lambda v: a_text == isinstance(v[j], str) and cmp(a, v[j])
        const = isinstance(a, str) == isinstance(b, str) and cmp(a, b)
        return lambda v: const
    if isinstance(expr, BoolOp):
        left, right = _compile(expr.left, ctx), _compile(expr.right, ctx)
        # no short-circuit: a malformed row raises whichever side it trips
        if expr.op == "&":
            return lambda v: left(v) & right(v)
        return lambda v: left(v) | right(v)
    raise UnknownAttribute("unsupported expression %r" % (expr,))


def _conjuncts(expr: BoolExpr):
    """The terms of a top-level `&` chain, left to right."""
    if isinstance(expr, BoolOp) and expr.op == "&":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


@dataclass(frozen=True)
class Condition:
    """A FILTER or JOIN condition compiled once against its schema context.

    `test` takes one positional value row.

    For a join, `ctx` is the concatenated context and `split` the width of
    the left input. `key` is (left column, right column) of the first `=`
    conjunct whose attributes fall on opposite inputs, or None; `residual`
    is the test still due on rows whose keys match (None when the condition
    is that comparison alone).
    """

    ctx: SchemaCtx
    test: RowTest
    split: int = 0
    key: Optional[tuple[int, int]] = None
    residual: Optional[RowTest] = None


def compile_condition(expr: BoolExpr, ctx: SchemaCtx) -> Condition:
    """Resolve every column of `expr` against `ctx` once, for row tests.

    Raises UnknownAttribute for a reference that does not resolve.
    """
    return Condition(ctx, _compile(expr, ctx))


def compile_join(cond: BoolExpr, left_ctx: SchemaCtx, right_ctx: SchemaCtx) -> Condition:
    """Compile a join condition and pick its hash-join key, if it has one.

    Raises UnknownAttribute for a reference that does not resolve.
    """
    ctx, split = left_ctx.join(right_ctx), left_ctx.width
    test = _compile(cond, ctx)
    for term in _conjuncts(cond):
        if not (
            isinstance(term, Comparison)
            and term.op == "="
            and isinstance(term.left, AttrRef)
            and isinstance(term.right, AttrRef)
        ):
            continue
        lcol, rcol = sorted((ctx.resolve(term.left), ctx.resolve(term.right)))
        if lcol < split <= rcol:
            residual = None if term is cond else test
            return Condition(ctx, test, split, (lcol, rcol - split), residual)
    return Condition(ctx, test)


# ---------------------------------------------------------------------------
# window


@dataclass(frozen=True)
class WindowState:
    buffer: tuple[Tuple, ...]
    extent: Union[Duration, int]


def window_insert(state: WindowState, t: Tuple) -> tuple[WindowState, list[Tuple]]:
    """Append an in-order tuple and drop everything that left the window."""
    if state.buffer and t.ts < state.buffer[-1].ts:
        raise OutOfOrderTuple(
            "tuple ts %d precedes buffered ts %d" % (t.ts, state.buffer[-1].ts)
        )
    buffered = state.buffer + (t,)
    # timestamps never decrease along the buffer, so the rows that left are a prefix
    if isinstance(state.extent, Duration):
        horizon = state.extent.ms
        cut = next(
            (i for i, x in enumerate(buffered) if t.ts - x.ts < horizon), len(buffered)
        )
    else:
        cut = max(len(buffered) - max(state.extent, 0), 0)
    return WindowState(buffered[cut:], state.extent), list(buffered[:cut])


# ---------------------------------------------------------------------------
# filter / join


def filter_eval(tuples, cond: Condition) -> list[Tuple]:
    """Rows that satisfy the compiled `cond`, in input order."""
    test = cond.test
    return [t for t in tuples if test(t.values)]


def _widths_are(rows, width: int) -> bool:
    return all(len(t.values) == width for t in rows)


class JoinMemo:
    """What the last hash-join evaluation made of each (left row, right row) pair.

    `pairs` maps the ids of the two rows to the joined row, or to None when
    the rest of the condition rejected the pair; `rows` holds both inputs of
    that evaluation, so their ids stay valid. The next evaluation reuses the
    entry of every pair it sees again and then replaces both, so the memo
    never holds more than one evaluation. A memo belongs to one compiled
    condition.
    """

    __slots__ = ("rows", "pairs")

    def __init__(self) -> None:
        self.rows: tuple = ((), ())
        self.pairs: dict[tuple[int, int], Optional[Tuple]] = {}


_UNSEEN = object()


def join_eval(left, right, cond: Condition, memo: Optional[JoinMemo] = None) -> list[Tuple]:
    """Concatenating join; output rows ordered by (left index, right index).

    `cond` is a `compile_join` condition. With a hash-join key (an `=`
    between an attribute of each input, alone or as a conjunct of an `&`
    chain), the right rows are bucketed by their key column in order, and
    each left row in order probes its bucket; only the matches are tested
    against the rest of the condition. NaN keys never match, and text keys
    never equal numbers. Every other condition, and inputs whose rows do not
    have their schema's width, run the nested loop over all pairs.

    On the hash-join path, `memo` carries the pairs of the previous
    evaluation by row identity (see JoinMemo): a pair of the same two row
    objects reuses its joined row and its verdict, and the memo is replaced
    by this evaluation's pairs. The output is the same with or without it.

    The joined tuple keeps the left timestamp, which equals the matched
    timestamp under the usual timestamp-equality conditions.
    """
    schema_id = cond.ctx.schema_id
    out = []
    if (
        cond.key is None
        or not _widths_are(left, cond.split)
        or not _widths_are(right, cond.ctx.width - cond.split)
    ):
        test = cond.test
        for l in left:
            for r in right:
                row = l.values + r.values
                if test(row):
                    out.append(Tuple(ts=l.ts, schema_id=schema_id, values=row))
        return out
    lcol, rcol = cond.key
    buckets: dict[object, list[Tuple]] = {}
    for r in right:
        key = r.values[rcol]
        if key == key:  # NaN equals nothing, not even itself
            buckets.setdefault(key, []).append(r)
    residual = cond.residual
    seen = memo.pairs if memo is not None else {}
    pairs: dict[tuple[int, int], Optional[Tuple]] = {}
    for l in left:
        lid = id(l)
        for r in buckets.get(l.values[lcol], ()):
            pair = (lid, id(r))
            t = seen.get(pair, _UNSEEN)
            if t is _UNSEEN:
                row = l.values + r.values
                passed = residual is None or residual(row)
                t = Tuple(ts=l.ts, schema_id=schema_id, values=row) if passed else None
            pairs[pair] = t
            if t is not None:
                out.append(t)
    if memo is not None:
        memo.rows, memo.pairs = (left, right), pairs
    return out


# ---------------------------------------------------------------------------
# aggregation


_AGG_FUNS = {
    "SUM": sum,
    "MIN": min,
    "MAX": max,
    "AVG": lambda vs: sum(vs) / len(vs),
    "COUNT": len,
}


def aggregate_eval(kind: str, attr: AttrRef, tuples, ctx: SchemaCtx) -> Tuple:
    try:
        idx = ctx.resolve(attr)
    except SemanticError as err:
        raise UnknownAttribute(str(err)) from err
    rows = list(tuples)
    if not rows and kind in ("MIN", "MAX", "AVG"):
        raise EmptyWindow("%s over an empty window" % kind)
    values = []
    for t in rows:
        v = t.values[idx]
        if isinstance(v, str):
            raise UnknownAttribute("attribute %s is not numeric" % attr)
        values.append(v)
    newest = max((t.ts for t in rows), default=0)
    return Tuple.from_values("agg", (newest, float(_AGG_FUNS[kind](values))))


# ---------------------------------------------------------------------------
# sequence


def sequence_eval(a, b) -> Tuple:
    """True iff some tuple of `a` happened strictly before some tuple of `b`."""
    matched = a and b and min(x.ts for x in a) < max(y.ts for y in b)
    newest = max((t.ts for t in list(a) + list(b)), default=0)
    return Tuple.from_values("bool", (newest, 1.0 if matched else 0.0))


# ---------------------------------------------------------------------------
# heat map


def heatmap_eval(
    tuples, cell_size: float, bounds, ctx: SchemaCtx
) -> tuple[list[list[int]], int]:
    """Bin coordinates into a grid of counts; rows index latitude.

    Returns the grid and the number of rows outside it. The parser has
    checked that `ctx` has both coordinates, and that the cell size and both
    spans of `bounds` are positive. A coordinate that is not a finite number
    raises UnknownAttribute.
    """
    lat_min, lat_max, long_min, long_max = bounds
    lat_idx = ctx.resolve(AttrRef("latitude"))
    long_idx = ctx.resolve(AttrRef("longitude"))
    hc = math.floor((long_max - long_min) / cell_size)
    vc = math.floor((lat_max - lat_min) / cell_size)
    grid = [[0] * hc for _ in range(vc)]
    skipped = 0
    try:
        for t in tuples:
            abs_lat = t.values[lat_idx] - lat_min
            abs_long = t.values[long_idx] - long_min
            if abs_lat < 0 or abs_long < 0:
                skipped += 1
                continue
            row = math.floor(abs_lat / cell_size)
            col = math.floor(abs_long / cell_size)
            if row >= vc or col >= hc:
                skipped += 1
                continue
            grid[row][col] += 1
    except (TypeError, ValueError, OverflowError) as err:
        raise UnknownAttribute("latitude and longitude must be finite numbers") from err
    return grid, skipped


# ---------------------------------------------------------------------------
# load prediction


@dataclass
class PredictState:
    # slot-of-day index -> past average loads seen in that slot
    history: dict[int, list[float]] = field(default_factory=dict)
    last_ts: int = -1


def predict_eval(
    window,
    horizon: Duration,
    state: PredictState,
    slot_extent: Union[Duration, int],
) -> tuple[PredictState, Optional[Tuple]]:
    """Emit a `prediction` tuple when the newest tuple crosses a horizon boundary.

    The forecast is the current slot's average load plus the median of past
    same-slot-of-day averages; with no history it is the current average
    alone. A load that is not a number raises UnknownAttribute.
    """
    rows = list(window)
    if not rows:
        return state, None
    newest = max(t.ts for t in rows)
    horizon_ms = horizon.ms
    slot_ms = slot_extent.ms if isinstance(slot_extent, Duration) else 60000
    new_state = PredictState(
        history={k: list(v) for k, v in state.history.items()}, last_ts=newest
    )
    if newest // horizon_ms <= state.last_ts // horizon_ms:
        return new_state, None

    epoch_ts = (newest // horizon_ms) * horizon_ms
    slot = (epoch_ts // slot_ms) % max(86400000 // slot_ms, 1)
    values = [t.values[2] for t in rows]  # plug layout: value at index 2
    if any(isinstance(v, str) for v in values):
        raise UnknownAttribute("the plug value is not numeric")
    current = sum(values) / len(values)
    past = state.history.get(slot, [])
    if past:
        predicted = current + statistics.median(past)
    else:
        predicted = current  # fallback when the slot has no history yet
    new_state.history.setdefault(slot, []).append(current)

    latest = max(rows, key=lambda t: t.ts)
    ids = latest.values[4:7]  # plug_id, household_id, house_id
    return new_state, Tuple.from_values("prediction", (epoch_ts, *ids, predicted))


# ---------------------------------------------------------------------------
# installed operators


class Operator:
    """One installed operator: its kind's state between evaluations, and its evaluation.

    `state` is a WINDOW's `WindowState` or PREDICT's `PredictState`, `cond` a
    FILTER's or JOIN's compiled condition, `memo` a JOIN's `JoinMemo`, and
    `inputs` a JOIN's or SEQUENCE's latest (rows, watermark) by child index.
    """

    __slots__ = ("node", "cost_ms", "state", "cond", "memo", "inputs", "last_emit")

    def __init__(self, node: OperatorNode) -> None:
        kind, self.node = node.kind, node
        self.cost_ms: float = OPERATORS[kind].cost_ms
        self.state = self.cond = self.memo = None
        self.inputs: dict[int, tuple[list, int]] = {}
        self.last_emit = -1  # the watermark of the last output `feed` returned
        if kind == "WINDOW":
            self.state = WindowState((), node.params[1])
        elif kind == "FILTER":
            self.cond = compile_condition(node.params[0], node.left.ctx)
        elif kind == "JOIN":
            self.cond = compile_join(node.params[0], node.left.ctx, node.right.ctx)
            self.memo = JoinMemo()
        elif kind == "PREDICT":
            self.state = PredictState()

    def feed(self, child: Optional[int], rows, wm: int) -> Optional[tuple[list[Tuple], int]]:
        """Take `rows`, child `child`'s new output at watermark `wm`; return what to emit.

        A WINDOW takes one stream tuple at a time, as `rows`, with `child` None
        and `wm` its timestamp. Returns (output, watermark), or None for an
        empty output or one at or below `last_emit`, an empty MIN, MAX or AVG,
        or a PREDICT that crossed no horizon. A JOIN or SEQUENCE calls no
        kernel while a child has no output or their least watermark is at or
        below `last_emit`. OutOfOrderTuple and UnknownAttribute (text read for
        a number) leave the state as it was.
        """
        node, kind = self.node, self.node.kind
        if kind == "WINDOW":
            self.state = window_insert(self.state, rows[0])[0]
            out = list(self.state.buffer)
        elif kind == "FILTER":
            out = filter_eval(rows, self.cond)
        elif kind == "JOIN" or kind == "SEQUENCE":
            inputs = self.inputs
            inputs[child] = (rows, wm)
            wm = min(w for _, w in inputs.values())
            if len(inputs) < 2 or wm <= self.last_emit:
                return None
            left, right = (inputs[c.index][0] for c in node.children)
            if kind == "JOIN":
                out = join_eval(left, right, self.cond, self.memo)
            else:
                out = [sequence_eval(left, right)]
        elif kind == "HEATMAP":  # params: cell size, then the four bounds
            grid, skipped = heatmap_eval(rows, node.params[0], node.params[1:5], node.left.ctx)
            payload = json.dumps({"grid": grid, "skipped": skipped})
            out = [Tuple(ts=wm, schema_id="grid", values=(wm, payload))]
        elif kind == "PREDICT":
            self.state, pred = predict_eval(rows, node.params[0], self.state, node.left.params[1])
            if pred is None:
                return None
            out, wm = [pred], pred.ts
        else:  # an aggregate
            try:
                out = [aggregate_eval(kind, node.params[0], rows, node.left.ctx)]
            except EmptyWindow:
                return None
        if not out or wm <= self.last_emit:
            return None
        self.last_emit = wm
        return out, wm
