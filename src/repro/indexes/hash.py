"""A hash index over encoded keys.

The paper notes (§7.1) that hash indices "resulted in similar outcomes,
showing worse performance with minor exceptions"; we provide the structure
so the comparison can be reproduced.  A hash index answers only full-key
equality — no prefix scans — which is exactly why it cannot support the
partial-match probes the enforcement triggers need and must fall back to
scans more often than the B-tree structures.

The buckets map each key to its set of rids; what the index hands out —
runs, lookups, scans — are entries in the B+ tree's flat shape,
``(c1, …, cn, rid)``, so one probe kernel reads both structures.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import IndexError_
from .cost import CostTracker
from .keys import EncodedKey, Entry


class HashIndex:
    """Mapping from encoded key to the set of rids carrying that key."""

    #: A lookup charges each entry as it reads it, so a consumer that
    #: stops on its hit has paid for that entry too.
    HIT_SCANNED = 1

    def __init__(self, tracker: CostTracker | None = None) -> None:
        self._buckets: dict[EncodedKey, set[int]] = {}
        self._size = 0
        self._tracker = tracker

    def __len__(self) -> int:
        return self._size

    def _count(self, name: str, amount: int = 1) -> None:
        if self._tracker is not None:
            self._tracker.count(name, amount)

    def insert(self, key: EncodedKey, rid: int) -> None:
        bucket = self._buckets.setdefault(key, set())
        if rid in bucket:
            raise IndexError_(f"duplicate hash entry {(*key, rid)!r}")
        bucket.add(rid)
        self._size += 1

    def delete(self, key: EncodedKey, rid: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None or rid not in bucket:
            raise IndexError_(f"hash entry not found: {(*key, rid)!r}")
        bucket.discard(rid)
        if not bucket:
            del self._buckets[key]
        self._size -= 1

    def insert_entry(self, entry: Entry) -> None:
        """:meth:`insert` of a flat ``(*key, rid)`` entry."""
        self.insert(entry[:-1], entry[-1])

    def delete_entry(self, entry: Entry) -> None:
        """:meth:`delete` of a flat ``(*key, rid)`` entry."""
        self.delete(entry[:-1], entry[-1])

    def insert_run(self, entries: list[Entry]) -> None:
        """Insert a batch of entries; on failure the already-inserted
        prefix is removed again.  Structural inserts charge nothing, so
        this is trivially charge-identical to a loop of :meth:`insert` —
        it exists so every index structure offers the same bulk hook.
        """
        done = 0
        try:
            for entry in entries:
                self.insert_entry(entry)
                done += 1
        except BaseException:
            for entry in reversed(entries[:done]):
                self.delete_entry(entry)
            raise

    def runs(self, key: EncodedKey) -> Iterator[tuple[list[Entry], int]]:
        """The bucket of *key* as one ``(entries, node_reads)`` run,
        uncharged — the shape of :meth:`BPlusTree.runs`, so one probe
        kernel serves both structures."""
        yield [(*key, rid) for rid in self._buckets.get(key, ())], 1

    def first_entry(self, key: EncodedKey) -> tuple[Entry | None, int]:
        """The first entry of :meth:`runs` and its one node read,
        uncharged — :meth:`BPlusTree.first_entry`'s shape, without
        building the bucket's entry list."""
        for rid in self._buckets.get(key, ()):
            return (*key, rid), 1
        return None, 1

    def lookup(self, key: EncodedKey) -> Iterator[Entry]:
        """Yield all entries with exactly *key* (full-key equality only)."""
        self._count("index_node_reads")
        for rid in self._buckets.get(key, ()):
            self._count("index_entries_scanned")
            yield (*key, rid)

    def first_with_key(self, key: EncodedKey) -> Entry | None:
        for entry in self.lookup(key):
            return entry
        return None

    def contains(self, key: EncodedKey, rid: int) -> bool:
        return rid in self._buckets.get(key, set())

    def scan_all(self) -> Iterator[Entry]:
        """Yield every entry; order is by encoded key for determinism."""
        for key in sorted(self._buckets):
            for rid in sorted(self._buckets[key]):
                self._count("index_entries_scanned")
                yield (*key, rid)
