"""Per-node forwarding state: content store, pending-interest table, FIB.

The content store gates lookups by logical timestamp so a cached result can
never be served once the caller knows of newer input (the stale-cache
problem of plain pull caching). Pending query interests live in the PIT
until explicitly removed; Data arrival never consumes them. The FIB is one
dict keyed by prefix components; a longest-prefix match probes the name's
prefixes from the longest down, as hash-table NDN FIBs do. It holds
installed routes only (deployments add them, and a prune removes them face
by face), and so do its dumps: an engine routes /node/<id> Interests that
no route matches from the topology's next hop, and those implicit routes
are not listed. Its `memo` dict is for its owner to keep answers derived
from the routes in; every `add_route` and `remove_route` empties it.

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
    payload: bytes
    logical_ts: int


class ContentStore:
    """Cache keyed by name or query hash, newest logical timestamp wins."""

    def __init__(self) -> None:
        self._entries: dict[TableKey, CsEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, key: TableKey, payload: bytes, logical_ts: int) -> None:
        """Keep the max-ts entry per key; an older insert is a no-op."""
        existing = self._entries.get(key)
        if existing is not None and existing.logical_ts >= logical_ts:
            return
        self._entries[key] = CsEntry(payload=payload, logical_ts=logical_ts)

    def lookup(self, key: TableKey, min_ts: int = 0) -> Optional[CsEntry]:
        """Return the entry iff present and at least as new as min_ts."""
        entry = self._entries.get(key)
        if entry is None or entry.logical_ts < min_ts:
            return None
        return entry

    def dump(self) -> str:
        """CSV rendering, one row per key in key order."""
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
    waiting: tuple = ()  # this node's own plans waiting on the Data, in order


class PendingInterestTable:
    """Pending classic interests plus standing query interests.

    Query entries are keyed by the unsalted query hash, the 48-bit prefix
    that /ce/<hash>/<ts> result names carry; two texts whose hashes collide
    are taken for the same query. Entries survive Data arrival; only
    remove()/remove_face() can delete them. An entry for a name this node
    asked for itself carries the plans waiting on its Data.
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


class ForwardingInformationBase:
    """Prefix-to-faces routing table with longest-prefix match."""

    def __init__(self) -> None:
        self._routes: dict[tuple[str, ...], FibEntry] = {}
        self.memo: dict = {}  # the owner's, valid until the routes next change

    def __len__(self) -> int:
        return len(self._routes)

    def add_route(self, prefix: Name, face_id: int) -> None:
        self.memo.clear()
        entry = self._routes.get(prefix.components)
        if entry is None:
            entry = self._routes[prefix.components] = FibEntry(prefix=prefix, faces=set())
        entry.faces.add(face_id)

    def remove_route(self, prefix: Name, face_id: int) -> bool:
        """Drop one face of the route for exactly `prefix`; False if it had none."""
        self.memo.clear()
        entry = self._routes.get(prefix.components)
        if entry is None or face_id not in entry.faces:
            return False
        entry.faces.discard(face_id)
        if not entry.faces:
            del self._routes[prefix.components]
        return True

    def longest_prefix(self, name: Name) -> Optional[FibEntry]:
        comps, routes = name.components, self._routes
        for k in range(len(comps), 0, -1):
            entry = routes.get(comps[:k])
            if entry is not None:
                return entry
        return None

    def entries(self) -> list[FibEntry]:
        """Routes in component order: each prefix before the longer ones under it."""
        return [self._routes[k] for k in sorted(self._routes)]

    def dump(self) -> str:
        lines = ["prefix,faces"]
        for e in self.entries():
            lines.append("%s,%s" % (e.prefix.to_uri(), ";".join(str(f) for f in sorted(e.faces))))
        return "\n".join(lines) + "\n"
