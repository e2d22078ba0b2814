"""Runtime semantics of the event-processing operators.

The kernels are pure functions of an operator's whole input, but for
`window_insert`, which updates the window it is given in place; they are
the oracles the incremental operators are tested against. `Operator` owns
one installed operator's state between evaluations, so the engine that
hosts it names no operator kind.

Rows travel as slides. A slide is (rows, gone, new): `rows` is an output
now, `gone` the number of rows that left the front of the output reported
before, and `new` the rows appended since, so rows == before[gone:] + new.
A WINDOW updates its buffer in place and reports that slide, FILTER tests
only the appended rows, JOIN is a symmetric hash join and HEATMAP keeps its
cell counts. The aggregates, SEQUENCE and PREDICT recompute over their
whole input: a running float sum rounds differently from their left fold.

The operators see only trees the parser validated. An `Operator` compiles
its FILTER or JOIN condition once, when it is built, and `filter_eval` and
`join_eval` take only that compiled `Condition`; a reference that does not
resolve is an UnknownAttribute at compile time. Rows from another broker's
/state delta may still carry text where an operator reads a number: the
aggregates, HEATMAP and PREDICT then raise UnknownAttribute, and the engine
skips that evaluation.
"""

from __future__ import annotations

import math
import operator
import statistics
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from typing import Callable, Optional, Union

from .packet import Slide, Tuple
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


@dataclass
class WindowState:
    buffer: deque  # of Tuple, oldest first
    extent: Union[Duration, int]

    def __post_init__(self) -> None:
        self.buffer = deque(self.buffer)


def window_insert(state: WindowState, t: Tuple) -> tuple[WindowState, list[Tuple]]:
    """Append an in-order tuple to `state`'s buffer, in place, and drop what left the window.

    Returns `state` and the rows dropped. An out-of-order tuple raises
    OutOfOrderTuple and leaves the buffer as it was.
    """
    buffer = state.buffer
    if buffer and t.ts < buffer[-1].ts:
        raise OutOfOrderTuple("tuple ts %d precedes buffered ts %d" % (t.ts, buffer[-1].ts))
    buffer.append(t)
    evicted = []
    # timestamps never decrease along the buffer, so the rows that left are a prefix
    if isinstance(state.extent, Duration):
        horizon = state.extent.ms
        while buffer and t.ts - buffer[0].ts >= horizon:
            evicted.append(buffer.popleft())
    else:
        while len(buffer) > max(state.extent, 0):
            evicted.append(buffer.popleft())
    return state, evicted


# ---------------------------------------------------------------------------
# filter / join


def filter_eval(tuples, cond: Condition) -> list[Tuple]:
    """Rows that satisfy the compiled `cond`, in input order."""
    test = cond.test
    return [t for t in tuples if test(t.values)]


def join_eval(left, right, cond: Condition) -> list[Tuple]:
    """Concatenating join; output rows ordered by (left index, right index).

    `cond` is a `compile_join` condition. With a hash-join key (an `=`
    between an attribute of each input, alone or as a conjunct of an `&`
    chain), the right rows are bucketed by their key column in order, and
    each left row in order probes its bucket; only the matches are tested
    against the rest of the condition. NaN keys never match, and text keys
    never equal numbers. Every other condition, and inputs whose rows do not
    have their schema's width, run the nested loop over all pairs.

    The joined tuple keeps the left timestamp, which equals the matched
    timestamp under the usual timestamp-equality conditions.
    """
    schema_id, split = cond.ctx.schema_id, cond.split
    out = []
    if (
        cond.key is None
        or any(len(t.values) != split for t in left)
        or any(len(t.values) != cond.ctx.width - split for t in right)
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
    for l in left:
        for r in buckets.get(l.values[lcol], ()):
            row = l.values + r.values
            if residual is None or residual(row):
                out.append(Tuple(ts=l.ts, schema_id=schema_id, values=row))
    return out


class _Rec:
    """One JOIN input row: its key (None when it joins no row by key), its
    left-row number, and its pairs. A left row's pairs are its joined rows in
    right-arrival order (None once it has left); a right row's are the left
    rows it joined."""

    __slots__ = ("row", "key", "seq", "pairs")

    def __init__(self, row: Tuple, key, seq: int, pairs) -> None:
        self.row, self.key, self.seq, self.pairs = row, key, seq, pairs


class _Side:
    """One JOIN input: its rows at the last evaluation, as `_Rec`s in arrival
    order with an index from each key to its recs, and the slides since:
    `gone` of those recs have left and the `fresh` rows came."""

    __slots__ = ("recs", "index", "col", "width", "odd", "gone", "fresh")

    def __init__(self, col: Optional[int], width: int) -> None:
        self.recs: deque[_Rec] = deque()
        self.index: dict[object, list[_Rec]] = {}
        self.col, self.width = col, width  # the key column, None without a key
        self.odd = 0  # recs off the schema width
        self.gone, self.fresh = 0, []

    def take(self, gone: int, new) -> None:
        """Note the input's slide; the recs change at the next evaluation."""
        held = min(gone, len(self.recs) - self.gone)
        self.gone += held
        if gone > held:
            del self.fresh[: gone - held]
        self.fresh += new

    def push(self, row: Tuple, seq: int, pairs) -> _Rec:
        values, key = row.values, None
        if len(values) != self.width:
            self.odd += 1
        elif self.col is not None:
            key = values[self.col]
            if key != key:  # NaN equals nothing, not even itself
                key = None
        rec = _Rec(row, key, seq, pairs)
        self.recs.append(rec)
        if key is not None:
            self.index.setdefault(key, []).append(rec)
        return rec

    def pop(self) -> _Rec:
        rec = self.recs.popleft()
        if rec.key is not None:
            bucket = self.index[rec.key]
            del bucket[0]  # the oldest rec of its key
            if not bucket:
                del self.index[rec.key]
        elif len(rec.row.values) != self.width:
            self.odd -= 1
        return rec


class _Join:
    """A JOIN's inputs and joined rows between evaluations: a symmetric hash join.

    Each evaluation settles both sides' slides: the pairs of the left rows
    that left lead the output, and each right row that left is the oldest
    of every left row it joined. New right rows join the left rows kept,
    after each one's pairs, and new left rows join every right row, at the
    end. The output, the left rows' pairs in order, so stays in join_eval's
    (left index, right index) order and is changed only at its two ends,
    unless a right row's pairs fall elsewhere; then it is rebuilt from the
    pairs. Without a key, or while a row off its schema width is in either
    input, the output is join_eval's nested loop instead.
    """

    __slots__ = ("cond", "residual", "schema_id", "left", "right", "seq", "tail", "nested")

    def __init__(self, cond: Condition) -> None:
        lcol, rcol = cond.key or (None, None)
        self.cond, self.residual, self.schema_id = cond, cond.residual, cond.ctx.schema_id
        self.left = _Side(lcol, cond.split)
        self.right = _Side(rcol, cond.ctx.width - cond.split)
        self.seq = 0  # the number of the next left row
        self.tail = -1  # the number of the left row of the output's last row
        self.nested = False  # whether the output is the nested loop's

    def _pair(self, l: _Rec, r: _Rec) -> Optional[Tuple]:
        values = l.row.values + r.row.values
        if self.residual is not None and not self.residual(values):
            return None
        t = Tuple(ts=l.row.ts, schema_id=self.schema_id, values=values)
        l.pairs.append(t)
        r.pairs.append(l)
        return t

    def evaluate(self, out: "_Output") -> None:
        """Settle both sides' slides and make `out` join_eval's output over them."""
        left, right = self.left, self.right
        keep = not self.nested  # `out` is the left rows' pairs, changed only at its ends
        n = 0
        for _ in range(left.gone):
            rec = left.pop()
            n += len(rec.pairs)
            rec.pairs = None
        removed = []
        for _ in range(right.gone):
            for l in right.pop().pairs:
                if l.pairs is not None:
                    removed.append(l.pairs.pop(0))
        left.gone = right.gone = 0
        if keep:
            if n:
                out.drop(n)
            if removed:  # they must lead the output too
                ids = set(map(id, removed))
                keep = ids.issuperset(map(id, islice(out.rows, len(removed))))
                if keep:
                    out.drop(len(removed))
        added = []  # (left-row number, joined row) in right-arrival order
        for row in right.fresh:
            r = right.push(row, 0, [])
            for l in left.index.get(r.key, ()):  # None is no key
                t = self._pair(l, r)
                if t is not None:
                    added.append((l.seq, t))
        right.fresh = []
        if keep and added:
            keep = not out.rows or min(seq for seq, _ in added) >= self.tail
            if keep:
                added.sort(key=operator.itemgetter(0))
                out.rows.extend([t for _, t in added])
                self.tail = added[-1][0]
        for row in left.fresh:
            l = left.push(row, self.seq, [])
            self.seq += 1
            for r in right.index.get(l.key, ()):
                self._pair(l, r)
            if keep and l.pairs:
                out.rows.extend(l.pairs)
                self.tail = l.seq
        left.fresh = []
        if self.cond.key is None or left.odd or right.odd:
            rows = [r.row for r in left.recs], [r.row for r in right.recs]
            out.replace(join_eval(*rows, self.cond))
            self.nested = True
        elif not keep:
            out.replace(list(chain.from_iterable(l.pairs for l in left.recs)))
            self.tail = next((l.seq for l in reversed(left.recs) if l.pairs), -1)
            self.nested = False


# ---------------------------------------------------------------------------
# aggregation


def _fold(values):
    """The sum of `values` added left to right, as `sum()` adds floats up to
    CPython 3.11 (3.12 compensates); a sum of ints stays an int."""
    return reduce(operator.add, values, 0)


_AGG_FUNS = {
    "SUM": _fold,
    "MIN": min,
    "MAX": max,
    "AVG": lambda vs: _fold(vs) / len(vs),
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


class _Heat:
    """HEATMAP's grid over the rows it holds: a count per cell, rows index latitude.

    `cells` has each row's row-major cell, -1 for a row outside the grid and
    None for one whose coordinates are not finite numbers; `skipped` and
    `bad` count those two kinds.
    """

    __slots__ = ("cell_size", "origin", "at", "hc", "vc", "cells", "counts", "skipped", "bad")

    def __init__(self, cell_size: float, bounds, ctx: SchemaCtx) -> None:
        lat_min, lat_max, long_min, long_max = bounds
        self.cell_size, self.origin = cell_size, (lat_min, long_min)
        self.at = (ctx.resolve(AttrRef("latitude")), ctx.resolve(AttrRef("longitude")))
        self.hc = math.floor((long_max - long_min) / cell_size)
        self.vc = math.floor((lat_max - lat_min) / cell_size)
        self.cells: deque[Optional[int]] = deque()
        self.counts = [0] * (self.hc * self.vc)
        self.skipped = self.bad = 0

    def _cell(self, values) -> Optional[int]:
        try:
            abs_lat = values[self.at[0]] - self.origin[0]
            abs_long = values[self.at[1]] - self.origin[1]
            if abs_lat < 0 or abs_long < 0:
                return -1
            row = math.floor(abs_lat / self.cell_size)
            col = math.floor(abs_long / self.cell_size)
        except (TypeError, ValueError, OverflowError):
            return None
        return row * self.hc + col if row < self.vc and col < self.hc else -1

    def _count(self, cell: Optional[int], by: int) -> None:
        if cell is None:
            self.bad += by
        elif cell < 0:
            self.skipped += by
        else:
            self.counts[cell] += by

    def take(self, gone: int, new) -> None:
        """Drop the first `gone` rows and bin the `new` ones.

        Raises UnknownAttribute while a row it cannot bin is held.
        """
        for _ in range(gone):
            self._count(self.cells.popleft(), -1)
        for t in new:
            cell = self._cell(t.values)
            self.cells.append(cell)
            self._count(cell, 1)
        if self.bad:
            raise UnknownAttribute("latitude and longitude must be finite numbers")

    def grid(self) -> list[list[int]]:
        hc = self.hc
        return [self.counts[i * hc : (i + 1) * hc] for i in range(self.vc)]


def heatmap_eval(
    tuples, cell_size: float, bounds, ctx: SchemaCtx
) -> tuple[list[list[int]], int]:
    """Bin coordinates into a grid of counts; rows index latitude.

    Returns the grid and the number of rows outside it. The parser has
    checked that `ctx` has both coordinates, and that the cell size and both
    spans of `bounds` are positive. A coordinate that is not a finite number
    raises UnknownAttribute.
    """
    heat = _Heat(cell_size, bounds, ctx)
    heat.take(0, tuples)
    return heat.grid(), heat.skipped


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
    alone. `state` is updated in place and returned. A load that is not a
    number raises UnknownAttribute and leaves `state` as it was.
    """
    rows = list(window)
    if not rows:
        return state, None
    newest = max(t.ts for t in rows)
    horizon_ms = horizon.ms
    slot_ms = slot_extent.ms if isinstance(slot_extent, Duration) else 60000
    if newest // horizon_ms <= state.last_ts // horizon_ms:
        state.last_ts = newest
        return state, None

    epoch_ts = (newest // horizon_ms) * horizon_ms
    slot = (epoch_ts // slot_ms) % max(86400000 // slot_ms, 1)
    values = [t.values[2] for t in rows]  # plug layout: value at index 2
    if any(isinstance(v, str) for v in values):
        raise UnknownAttribute("the plug value is not numeric")
    current = _fold(values) / len(values)
    past = state.history.setdefault(slot, [])
    if past:
        predicted = current + statistics.median(past)
    else:
        predicted = current  # fallback when the slot has no history yet
    past.append(current)
    state.last_ts = newest

    latest = max(rows, key=lambda t: t.ts)
    ids = latest.values[4:7]  # plug_id, household_id, house_id
    return state, Tuple.from_values("prediction", (epoch_ts, *ids, predicted))


# ---------------------------------------------------------------------------
# installed operators


class _Output:
    """A WINDOW's, FILTER's or JOIN's output kept in place: rows[i] is its row of
    running index base + i, and the output last emitted held the rows of
    running index first .. end-1."""

    __slots__ = ("rows", "base", "first", "end")

    def __init__(self, rows: Optional[deque] = None) -> None:
        self.rows: deque[Tuple] = deque() if rows is None else rows
        self.base = self.first = self.end = 0

    def drop(self, k: int) -> None:
        popleft = self.rows.popleft
        for _ in range(k):
            popleft()
        self.base += k

    def replace(self, new: list[Tuple]) -> None:
        self.base += len(self.rows)
        self.rows.clear()
        self.rows.extend(new)

    def slide(self) -> Slide:
        """The slide since the output last emitted, which it now counts as emitted."""
        rows, base, end = self.rows, self.base, self.end
        gone, n = min(base, end) - self.first, len(rows)
        fresh = min(n, base + n - end)  # the rows of index end or more
        self.first, self.end = base, base + n
        new = [rows[-1]] if fresh == 1 else list(map(rows.__getitem__, range(-fresh, 0)))
        return rows, gone, new


class Operator:
    """One installed operator: its kind's state between evaluations, and its evaluation.

    `state` is a WINDOW's `WindowState`, FILTER's pass flag per input row, JOIN's
    `_Join`, SEQUENCE's latest rows by child index, HEATMAP's `_Heat` or
    PREDICT's `PredictState`; `cond` is a FILTER's or JOIN's compiled
    condition, `marks` a JOIN's or SEQUENCE's latest watermark by child
    index, and `out` a WINDOW's, FILTER's or JOIN's `_Output`. The other
    kinds emit one row at a time, which replaces the row emitted before.
    """

    __slots__ = ("node", "cost_ms", "state", "cond", "marks", "out", "last_emit")

    def __init__(self, node: OperatorNode) -> None:
        kind, self.node = node.kind, node
        self.cost_ms: float = OPERATORS[kind].cost_ms
        self.state = self.cond = self.out = None
        self.marks: dict[int, int] = {}
        self.last_emit = -1  # the watermark of the last output `feed` returned
        if kind == "WINDOW":
            self.state = WindowState((), node.params[1])
            self.out = _Output(self.state.buffer)
        elif kind == "FILTER":
            self.cond = compile_condition(node.params[0], node.left.ctx)
            self.state, self.out = deque(), _Output()
        elif kind == "JOIN":
            self.cond = compile_join(node.params[0], node.left.ctx, node.right.ctx)
            self.state, self.out = _Join(self.cond), _Output()
        elif kind == "SEQUENCE":
            self.state = {}
        elif kind == "HEATMAP":  # params: cell size, then the four bounds
            self.state = _Heat(node.params[0], node.params[1:5], node.left.ctx)
        elif kind == "PREDICT":
            self.state = PredictState()

    def feed(self, child: Optional[int], slide: Slide, wm: int) -> Optional[tuple[Slide, int]]:
        """Take child `child`'s output as it slid, at watermark `wm`; return what to emit.

        A WINDOW takes one stream tuple at a time, as a slide that appends it,
        with `child` None and `wm` its timestamp. Returns (slide, watermark),
        the slide measured from the output last returned, or None for an
        empty output or one at or below `last_emit`, an empty MIN, MAX or AVG,
        or a PREDICT that crossed no horizon. A JOIN or SEQUENCE evaluates
        nothing while a child has no output or their least watermark is at or
        below `last_emit`. OutOfOrderTuple leaves the window as it was.
        UnknownAttribute (text read for a number) leaves the output and the
        state as they were, but for the input a HEATMAP holds: it takes every
        slide, and raises while a row it cannot bin is in it.
        """
        node, kind, out = self.node, self.node.kind, self.out
        rows, gone, new = slide
        if kind == "WINDOW":
            out.base += len(window_insert(self.state, new[0])[1])
        elif kind == "FILTER":
            passed, front, n = self.state, out.rows, 0
            for _ in range(gone):  # a row that left is the output's next iff it passed
                n += passed.popleft()
            if n:
                out.drop(n)
            for t in new:
                kept = filter_eval((t,), self.cond)
                passed.append(bool(kept))
                front.extend(kept)
        elif kind == "JOIN" or kind == "SEQUENCE":
            marks = self.marks
            marks[child] = wm
            if kind == "JOIN":
                join = self.state
                (join.left if child == node.left.index else join.right).take(gone, new)
            else:
                self.state[child] = list(rows)
            wm = min(marks.values())
            if len(marks) < 2 or wm <= self.last_emit:
                return None
            if kind == "SEQUENCE":
                return self._one(sequence_eval(*(self.state[c.index] for c in node.children)), wm)
            self.state.evaluate(out)
        elif kind == "HEATMAP":
            heat = self.state
            heat.take(gone, new)
            # the JSON of {"grid": ..., "skipped": ...}: a list of ints prints as its JSON
            payload = '{"grid": %s, "skipped": %d}' % (heat.grid(), heat.skipped)
            return self._one(Tuple(ts=wm, schema_id="grid", values=(wm, payload)), wm)
        elif kind == "PREDICT":
            pred = predict_eval(rows, node.params[0], self.state, node.left.params[1])[1]
            return None if pred is None else self._one(pred, pred.ts)
        else:  # an aggregate
            try:
                return self._one(aggregate_eval(kind, node.params[0], rows, node.left.ctx), wm)
            except EmptyWindow:
                return None
        if not out.rows or wm <= self.last_emit:
            return None
        self.last_emit = wm
        return out.slide(), wm

    def _one(self, row: Tuple, wm: int) -> Optional[tuple[Slide, int]]:
        """Emit `row` at `wm` as the whole output, unless `wm` is at or below `last_emit`."""
        if wm <= self.last_emit:
            return None
        gone, self.last_emit, out = int(self.last_emit >= 0), wm, [row]
        return (out, gone, out), wm
