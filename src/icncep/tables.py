"""Per-node forwarding state: content store, pending-interest table, FIB.

The content store gates lookups by logical timestamp so a cached result can
never be served once the caller knows of newer input (the stale-cache
problem of plain pull caching). Pending query interests live in the PIT
until explicitly removed; Data arrival never consumes them. The FIB is a
component trie supporting longest-prefix match. It holds installed routes
only (deployments add them, and a prune removes them face by face), and so do
its dumps: an engine routes /node/<id> Interests that no route matches from
the topology's next hop, and those implicit routes are not listed.

All three tables are owned by a single node engine and are only mutated
from that engine's event loop; they expose no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .packet import Name

__all__ = [
    "CsEntry",
    "PitEntry",
    "FibEntry",
    "ContentStore",
    "PendingInterestTable",
    "ForwardingInformationBase",
]

TableKey = Union[Name, str]


def _key_str(key: TableKey) -> str:
    return key.to_uri() if isinstance(key, Name) else key


@dataclass
class CsEntry:
    key: TableKey
    payload: bytes
    logical_ts: int


class ContentStore:
    """Cache keyed by name or query hash, newest logical timestamp wins."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self._entries: dict[TableKey, CsEntry] = {}
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, key: TableKey, payload: bytes, logical_ts: int) -> None:
        """Keep the max-ts entry per key; an older insert is a no-op."""
        existing = self._entries.get(key)
        if existing is not None and existing.logical_ts >= logical_ts:
            return
        self._entries[key] = CsEntry(key=key, payload=payload, logical_ts=logical_ts)
        if self.capacity is not None and len(self._entries) > self.capacity:
            oldest = min(
                self._entries.values(), key=lambda e: (e.logical_ts, _key_str(e.key))
            )
            del self._entries[oldest.key]

    def lookup(self, key: TableKey, min_ts: int = 0) -> Optional[CsEntry]:
        """Return the entry iff present and at least as new as min_ts."""
        entry = self._entries.get(key)
        if entry is None or entry.logical_ts < min_ts:
            return None
        return entry

    def dump(self) -> str:
        """CSV rendering for the inspect command."""
        lines = ["key,logical_ts,payload_bytes"]
        for key in sorted(self._entries, key=_key_str):
            e = self._entries[key]
            lines.append("%s,%d,%d" % (_key_str(key), e.logical_ts, len(e.payload)))
        return "\n".join(lines) + "\n"


@dataclass
class PitEntry:
    key: TableKey
    faces: set[int] = field(default_factory=set)
    created_ts: int = 0
    # newest tuple timestamp already folded into this query's result
    last_result_ts: int = -1


class PendingInterestTable:
    """Pending classic interests plus standing query interests.

    Query entries are keyed by the unsalted query hash, the 48-bit prefix
    that /ce/<hash>/<ts> result names carry; two texts whose hashes collide
    are taken for the same query. Entries survive Data arrival; only
    remove()/remove_face() can delete them.
    """

    def __init__(self) -> None:
        self._entries: dict[TableKey, PitEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: TableKey) -> Optional[PitEntry]:
        return self._entries.get(key)

    def add_face(self, key: TableKey, face_id: int, now: int = 0) -> bool:
        """Record face_id under key; False if the face was already there."""
        entry = self._entries.get(key)
        if entry is None:
            entry = PitEntry(key=key, created_ts=now)
            self._entries[key] = entry
        if face_id in entry.faces:
            return False
        entry.faces.add(face_id)
        return True

    def remove(self, key: TableKey) -> bool:
        return self._entries.pop(key, None) is not None

    def remove_face(self, key: TableKey, face_id: int) -> bool:
        """Drop one face; the entry disappears when no faces remain."""
        entry = self._entries.get(key)
        if entry is None or face_id not in entry.faces:
            return False
        entry.faces.discard(face_id)
        if not entry.faces:
            del self._entries[key]
        return True

    def query_entries(self) -> Iterator[PitEntry]:
        for entry in self._entries.values():
            if isinstance(entry.key, str):
                yield entry

    def dump(self) -> str:
        lines = ["key,faces,created_ts,last_result_ts"]
        for key in sorted(self._entries, key=_key_str):
            e = self._entries[key]
            faces = ";".join(str(f) for f in sorted(e.faces))
            lines.append(
                "%s,%s,%d,%d" % (_key_str(key), faces, e.created_ts, e.last_result_ts)
            )
        return "\n".join(lines) + "\n"


@dataclass
class FibEntry:
    prefix: Name
    faces: set[int]


class _TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entry: Optional[FibEntry] = None


class ForwardingInformationBase:
    """Prefix-to-faces routing table with longest-prefix match."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add_route(self, prefix: Name, face_id: int) -> None:
        node = self._root
        for comp in prefix.components:
            child = node.children.get(comp)
            if child is None:
                child = node.children[comp] = _TrieNode()
            node = child
        if node.entry is None:
            node.entry = FibEntry(prefix=prefix, faces=set())
            self._count += 1
        node.entry.faces.add(face_id)

    def remove_route(self, prefix: Name, face_id: int) -> bool:
        """Drop one face of the route for exactly `prefix`; False if it had none.

        A route left with no face goes, and so do the trie nodes that then
        lead nowhere.
        """
        path = [self._root]
        for comp in prefix.components:
            node = path[-1].children.get(comp)
            if node is None:
                return False
            path.append(node)
        entry = path[-1].entry
        if entry is None or face_id not in entry.faces:
            return False
        entry.faces.discard(face_id)
        if not entry.faces:
            path[-1].entry = None
            self._count -= 1
            comps = prefix.components
            for k in range(len(comps), 0, -1):
                if path[k].entry is not None or path[k].children:
                    break
                del path[k - 1].children[comps[k - 1]]
        return True

    def longest_prefix(self, name: Name) -> Optional[FibEntry]:
        node = self._root
        best: Optional[FibEntry] = None
        for comp in name.components:
            node = node.children.get(comp)
            if node is None:
                break
            if node.entry is not None:
                best = node.entry
        return best

    def entries(self) -> list[FibEntry]:
        out: list[FibEntry] = []

        def walk(node: _TrieNode) -> None:
            if node.entry is not None:
                out.append(node.entry)
            for comp in sorted(node.children):
                walk(node.children[comp])

        walk(self._root)
        return out

    def dump(self) -> str:
        lines = ["prefix,faces"]
        for e in self.entries():
            lines.append("%s,%s" % (e.prefix.to_uri(), ";".join(str(f) for f in sorted(e.faces))))
        return "\n".join(lines) + "\n"
