"""Heap storage: rid-addressed rows with rid reuse.

The heap is the primary store of a table.  Rows are immutable tuples
addressed by an integer row id (rid).  Deleted rids go onto a freelist and
are reused, mirroring how slotted pages recycle slots; this keeps rid
space dense under the paper's sustained insert/delete workloads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from ..errors import StorageError

Row = tuple[Any, ...]


class HeapFile:
    """An unordered collection of rows addressed by rid."""

    def __init__(self) -> None:
        self._rows: dict[int, Row] = {}
        self._next_rid = 0
        self._free: list[int] = []
        #: When False (MVCC mode), deleted rids are NOT put back on the
        #: freelist at delete time: old row versions may still be reachable
        #: through the version store, and reusing the rid would alias them.
        #: The version store hands pruned rids back via :meth:`recycle`.
        self.recycle_rids = True

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, rid: int) -> bool:
        return rid in self._rows

    def insert(self, row: Row) -> int:
        """Store *row* and return its rid."""
        rid = self._free.pop() if self._free else self._allocate()
        self._rows[rid] = row
        return rid

    def _allocate(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def get(self, rid: int) -> Row:
        try:
            return self._rows[rid]
        except KeyError:
            raise StorageError(f"no row with rid {rid}") from None

    def fetch(self, rids: Iterable[int]) -> list[Row]:
        """The rows at *rids*, in order, without a Python call per row
        (the range kernel fetches a whole leaf run at once)."""
        try:
            return list(map(self._rows.__getitem__, rids))
        except KeyError as missing:
            raise StorageError(f"no row with rid {missing.args[0]}") from None

    def update(self, rid: int, row: Row) -> Row:
        """Replace the row at *rid*, returning the old row."""
        old = self.get(rid)
        self._rows[rid] = row
        return old

    def delete(self, rid: int) -> Row:
        """Remove and return the row at *rid*."""
        row = self.get(rid)
        del self._rows[rid]
        if self.recycle_rids:
            self._free.append(rid)
        return row

    def recycle(self, rid: int) -> None:
        """Return a deferred rid to the freelist (MVCC version GC path).

        Only meaningful when ``recycle_rids`` is False: once the version
        store has pruned every version of a deleted row, the rid can no
        longer be observed by any snapshot and is safe to reuse.
        """
        if rid in self._rows or rid in self._free or rid >= self._next_rid:
            return
        self._free.append(rid)

    def restore(self, rid: int, row: Row) -> None:
        """Re-insert a row at a specific rid (transaction rollback path)."""
        if rid in self._rows:
            raise StorageError(f"rid {rid} is already occupied")
        if rid in self._free:
            self._free.remove(rid)
        elif rid >= self._next_rid:
            # Extend the allocation frontier so future inserts skip rid.
            self._free.extend(r for r in range(self._next_rid, rid) )
            self._next_rid = rid + 1
        self._rows[rid] = row

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield every (rid, row) pair.

        Sorted by rid so scans are deterministic across runs; the sort is
        over the dict's keys only and does not copy rows.
        """
        for rid in sorted(self._rows):
            yield rid, self._rows[rid]

    def scan_unordered(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) pairs in insertion order, without sorting.

        This is the executor's full-scan path: insertion order is still
        deterministic for a fixed workload, and skipping the sort matters
        on the paper's scan-heavy structures (Hybrid deletions scan the
        child table dozens of times per operation).
        """
        return iter(self._rows.items())

    def rids(self) -> list[int]:
        return sorted(self._rows)

    # ------------------------------------------------------------------
    # Physical images (the WAL checkpoint/recovery path).  These are the
    # only sanctioned way to capture or replace a heap's full state —
    # lint rule RPR002 rejects direct `_rows` access outside this module.

    def snapshot(self) -> "HeapImage":
        """An immutable copy of the full physical state."""
        return HeapImage(dict(self._rows), self._next_rid, list(self._free))

    def live_image(self) -> "HeapImage":
        """The full physical state *without* a copy: it aliases the live
        heap, so it is good only until the next write.  A store-backed
        checkpoint pickles it at once, under the statement latch."""
        return HeapImage(self._rows, self._next_rid, self._free)

    def restore_snapshot(self, image: "HeapImage") -> None:
        """Replace the physical state with a previously captured image."""
        self._rows = dict(image.rows)
        self._next_rid = image.next_rid
        self._free = list(image.free)


class HeapImage:
    """A point-in-time copy of a heap's physical state.

    Deliberately dumb: three copied fields, no behaviour.  The WAL's
    checkpoint machinery stores these and hands them back through
    :meth:`HeapFile.restore_snapshot` during recovery.
    """

    __slots__ = ("rows", "next_rid", "free")

    def __init__(self, rows: dict[int, Row], next_rid: int, free: list[int]) -> None:
        self.rows = rows
        self.next_rid = next_rid
        self.free = free
