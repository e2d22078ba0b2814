"""Digests that pin a run's results and wire bytes apart from its trace.

The trace hash pins timing, uids and nonces as well as results, so a change
that moves it says nothing about whether consumers still get the same
answers. `results_digest` covers only what the applications received;
`wire_digest` covers the bytes the codec writes for every link send, and
checks that each decodes back to the packet sent.
`first_divergence` says where two traces part, so a change that moves a
trace hash can name the first event it moved. `unbalanced_nodes` names the
nodes whose packets' dispositions do not add up to what they received.
"""

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from icncep.packet import (
    AddQueryInterest,
    Data,
    DataStream,
    RemoveQueryInterest,
    _value,
    decode_packet,
    encode_packet,
)
from icncep.sim import Simulator


def results_digest(metrics) -> str:
    """sha256 over what each consumer received.

    Per consumer and per /ce/<hash>, the payloads in arrival order; per
    consumer, every nack's reason in arrival order. No times, uids or nonces.
    """
    received: dict = {}
    for node, deliveries in metrics.app_deliveries.items():
        for _, p in deliveries:
            comps = p.name.components
            key = "/ce/" + comps[1] if comps[0] == "ce" else "/" + comps[0]
            received.setdefault(node, {}).setdefault(key, []).append(p.payload.decode("utf-8"))
    return hashlib.sha256(json.dumps(received, sort_keys=True).encode("utf-8")).hexdigest()


def unbalanced_nodes(metrics) -> dict:
    """Per node whose `received` is not `consumed + forwarded + dropped + malformed`, its counters."""
    dispositions = ("consumed", "forwarded", "dropped", "malformed")
    return {
        node: counters
        for node, counters in metrics.nodes.items()
        if counters.get("received", 0) != sum(counters.get(k, 0) for k in dispositions)
    }


@contextmanager
def wire_digest():
    """Yield a sha256 fed the `encode_packet` bytes of every link send, in order.

    Query-control packets carry text nonces such as "q1:1", which the codec's
    64-bit nonce field cannot hold; they are encoded with a zero nonce, which
    has the same width. On leaving the block it raises AssertionError if a
    send did not decode back equal to itself, a /ce Data was not written
    with the result layout (type tag 6), a /state DataStream was not
    written with the delta layout (type tag 7), or a row value of either took
    value kind 3, the JSON text that only values outside the typed kinds need.
    """
    digest = hashlib.sha256()
    original = Simulator._dispatch
    faults = []

    def dispatch(self, node, face_id, packet, at):
        before = self._seq
        original(self, node, face_id, packet, at)
        # a packet put on a link takes one sequence number as its uid and
        # one for its delivery; application deliveries and dropped stream
        # packets take fewer
        if self._seq == before + 2:
            if isinstance(packet, (AddQueryInterest, RemoveQueryInterest)):
                packet = replace(packet, nonce=0)
            raw = encode_packet(packet)
            digest.update(raw)
            if decode_packet(raw) != packet:
                faults.append(("round trip", packet))
            tag = raw[0]
            if type(packet) is Data and packet.name.components[0] == "ce":
                tag = 6
            elif type(packet) is DataStream and packet.stream_name.components[0] == "state":
                tag = 7
            if raw[0] != tag:
                faults.append(("type tag %d" % raw[0], packet))
            elif tag in (6, 7) and any(_value(v)[0] & 3 == 3 for v in _row_values(packet)):
                # a value's kind is the low two bits of its header's first byte
                faults.append(("a row value as JSON text", packet))

    Simulator._dispatch = dispatch
    try:
        yield digest
    finally:
        Simulator._dispatch = original
    assert not faults, "%d sends failed the codec checks, first %r" % (len(faults), faults[0])


def _row_values(packet):
    """Every row value of a /ce result or a /state delta."""
    if type(packet) is Data:
        return [v for row in json.loads(packet.payload)["rows"] for v in row]
    return [v for row in packet.tuple.rows for v in row.values]


def _kind(line: str) -> str:
    """A trace line's kind: its third field, such as send, recv, event, app or drop."""
    fields = line.split(" ", 3)
    return fields[2] if len(fields) > 2 else ""


def first_divergence(a, b, context: int = 3):
    """Where traces `a` and `b` (iterables of lines) first differ; None if they are equal.

    Returns a dict: `index`, the number of the first line that differs or
    that one trace lacks; `a` and `b`, that line on each side (None past a
    trace's end); `before`, up to `context` lines both share before it;
    `after_a` and `after_b`, up to `context` lines after it on each side; and
    `kinds_a` and `kinds_b`, the count of each line kind over each whole trace.
    """
    a, b = list(a), list(b)
    index = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    if index == len(a) == len(b):
        return None
    return {
        "index": index,
        "a": a[index] if index < len(a) else None,
        "b": b[index] if index < len(b) else None,
        "before": a[max(0, index - context) : index],
        "after_a": a[index + 1 : index + 1 + context],
        "after_b": b[index + 1 : index + 1 + context],
        "kinds_a": dict(Counter(map(_kind, a))),
        "kinds_b": dict(Counter(map(_kind, b))),
    }
