"""Per-table index bookkeeping and maintenance.

A :class:`TableIndex` binds an :class:`IndexDefinition` to the physical
structure (B+ tree or hash) and to the column positions of its table's
schema.  The :class:`IndexManager` owns every index of one table and keeps
all of them consistent under row inserts, deletes and updates — that
maintenance cost is one of the two effects that make the paper's Powerset
structure lose to Bounded (§7.2), so it is charged explicitly via the
``index_maintenance_ops`` counter.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from ..errors import IndexError_, KeyViolation
from .btree import BPlusTree
from .cost import CostTracker
from .definition import IndexDefinition, IndexKind
from .hash import HashIndex
from .keys import EncodedKey, EncodedRow, encode_key, encode_row


class TableIndex:
    """One physical index over one table."""

    def __init__(
        self,
        definition: IndexDefinition,
        positions: Sequence[int],
        tracker: CostTracker | None = None,
        order: int = 64,
    ) -> None:
        if len(positions) != len(definition.columns):
            raise IndexError_(
                f"index {definition.name!r}: {len(definition.columns)} columns "
                f"but {len(positions)} positions"
            )
        self.definition = definition
        self.positions = tuple(positions)
        self._tracker = tracker
        if definition.kind is IndexKind.BTREE:
            self._structure: BPlusTree | HashIndex = BPlusTree(order, tracker)
        else:
            self._structure = HashIndex(tracker)
        #: The entries under an already-encoded prefix, a leaf run (or
        #: the one hash bucket) at a time, as uncharged ``(entries,
        #: node_reads)`` pairs — see :meth:`BPlusTree.runs`.  The caller
        #: charges what it consumes: the reads of each run it asked
        #: for, and ``hit + hit_scanned`` entries when it stops on entry
        #: number *hit* (a hash lookup charges the entry it stops on, a
        #: B+ tree only those before it).
        self.runs = self._structure.runs
        self.hit_scanned = self._structure.HIT_SCANNED

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.definition.columns

    @property
    def kind(self) -> IndexKind:
        return self.definition.kind

    def __len__(self) -> int:
        return len(self._structure)

    def _count(self, name: str, amount: int = 1) -> None:
        if self._tracker is not None:
            self._tracker.count(name, amount)

    def key_for_row(self, row: Sequence[Any]) -> EncodedKey:
        """Project *row* onto the indexed columns and encode the key."""
        return encode_key([row[p] for p in self.positions])

    def key_from_encoded(self, encoded: EncodedRow) -> EncodedKey:
        """Slice this index's key out of an already-encoded row."""
        return tuple([encoded[p] for p in self.positions])

    # ------------------------------------------------------------------
    # Maintenance

    def insert_row(self, rid: int, row: Sequence[Any]) -> None:
        self._insert_key(rid, self.key_for_row(row))

    def insert_encoded(self, rid: int, encoded: EncodedRow) -> None:
        self._insert_key(rid, tuple([encoded[p] for p in self.positions]))

    def _insert_key(self, rid: int, key: EncodedKey) -> None:
        if self.definition.unique and self._has_total_duplicate(key):
            raise KeyViolation(
                f"unique index {self.name!r} violated by key {key!r}"
            )
        self._structure.insert(key, rid)
        self._count("index_maintenance_ops")

    def insert_encoded_many(self, pairs: Sequence[tuple[int, EncodedRow]]) -> None:
        """Insert a batch of encoded rows with one structure-level run.

        Unique indexes keep the per-entry loop: their duplicate probe
        must observe the batch's own earlier entries, so probe and insert
        stay interleaved exactly as :meth:`insert_encoded` interleaves
        them.  Non-unique B+ trees hand the whole run to
        :meth:`~repro.indexes.btree.BPlusTree.insert_run` (one descent
        per run of adjacent keys) and charge ``index_maintenance_ops``
        once per entry — the same total the per-row path charges.  Any
        failure removes the batch's already-inserted prefix.
        """
        entries = [
            (tuple([encoded[p] for p in self.positions]), rid)
            for rid, encoded in pairs
        ]
        if self.definition.unique:
            done = 0
            try:
                for key, rid in entries:
                    self._insert_key(rid, key)
                    done += 1
            except BaseException:
                for key, rid in reversed(entries[:done]):
                    self._structure.delete(key, rid)
                    self._count("index_maintenance_ops")
                raise
            return
        self._structure.insert_run(entries)
        self._count("index_maintenance_ops", len(entries))

    def _has_total_duplicate(self, key: EncodedKey) -> bool:
        """SQL-style uniqueness: keys containing NULL never collide."""
        if any(tag == 0 for tag, __ in key):
            return False
        if isinstance(self._structure, BPlusTree):
            return self._structure.first_with_prefix(key) is not None
        return self._structure.first_with_key(key) is not None

    def delete_row(self, rid: int, row: Sequence[Any]) -> None:
        self._structure.delete(self.key_for_row(row), rid)
        self._count("index_maintenance_ops")

    def delete_encoded(self, rid: int, encoded: EncodedRow) -> None:
        self._structure.delete(
            tuple([encoded[p] for p in self.positions]), rid
        )
        self._count("index_maintenance_ops")

    def update_row(self, rid: int, old: Sequence[Any], new: Sequence[Any]) -> None:
        self._update_keys(rid, self.key_for_row(old), self.key_for_row(new))

    def update_encoded(
        self, rid: int, old_encoded: EncodedRow, new_encoded: EncodedRow
    ) -> None:
        positions = self.positions
        self._update_keys(
            rid,
            tuple([old_encoded[p] for p in positions]),
            tuple([new_encoded[p] for p in positions]),
        )

    def _update_keys(self, rid: int, old_key: EncodedKey, new_key: EncodedKey) -> None:
        if old_key == new_key:
            return  # the index is unaffected by this update
        self._structure.delete(old_key, rid)
        if self.definition.unique and self._has_total_duplicate(new_key):
            # restore before reporting, so the index stays consistent;
            # three structure mutations happened: the delete, the insert
            # attempt the unique probe rejected, and the compensating
            # re-insert of the old key
            self._structure.insert(old_key, rid)
            self._count("index_maintenance_ops", 3)
            raise KeyViolation(
                f"unique index {self.name!r} violated by key {new_key!r}"
            )
        self._structure.insert(new_key, rid)
        self._count("index_maintenance_ops", 2)

    def build(self, rows: Iterable[tuple[int, Sequence[Any]]]) -> None:
        """(Re)build the index over existing (rid, row) pairs."""
        if isinstance(self._structure, BPlusTree):
            entries = [(self.key_for_row(row), rid) for rid, row in rows]
            if self.definition.unique:
                seen: set[EncodedKey] = set()
                for key, __ in entries:
                    if any(tag == 0 for tag, _v in key):
                        continue
                    if key in seen:
                        raise KeyViolation(
                            f"unique index {self.name!r} violated by key {key!r}"
                        )
                    seen.add(key)
            self._structure.bulk_load(entries)
        else:
            for rid, row in rows:
                self.insert_row(rid, row)

    # ------------------------------------------------------------------
    # Probes used by the executor

    def scan_equal(self, values: Sequence[Any]) -> Iterator[int]:
        """Yield rids of entries whose leading columns equal *values*.

        For a B-tree, *values* may cover any leftmost prefix of the
        indexed columns; for a hash index it must cover all of them.
        """
        prefix = encode_key(values)
        if isinstance(self._structure, BPlusTree):
            for __, rid in self._structure.scan_prefix(prefix):
                yield rid
        else:
            if len(values) != len(self.positions):
                raise IndexError_(
                    f"hash index {self.name!r} needs all {len(self.positions)} "
                    f"columns, got {len(values)}"
                )
            for __, rid in self._structure.lookup(prefix):
                yield rid

    def dive(self, value: Any) -> None:
        """Optimizer selectivity dive on the leading column (B-tree only)."""
        structure = self._structure
        if isinstance(structure, BPlusTree):
            if structure._uniform:
                # A descent always walks root→leaf, charging exactly the
                # tree height; while depths are uniform the charge is
                # known without walking (the dive's position is unused —
                # selectivity comes from table statistics).
                structure._count("index_node_reads", structure._height)
                return
            structure.dive(encode_key((value,)))

    def exists_equal(self, values: Sequence[Any]) -> bool:
        """LIMIT-1 existence probe on a leading prefix (or full hash key)."""
        prefix = encode_key(values)
        if isinstance(self._structure, BPlusTree):
            return self._structure.first_with_prefix(prefix) is not None
        if len(values) != len(self.positions):
            raise IndexError_(
                f"hash index {self.name!r} needs all {len(self.positions)} "
                f"columns, got {len(values)}"
            )
        return self._structure.first_with_key(prefix) is not None

    def scan_all(self) -> Iterator[tuple[EncodedKey, int]]:
        return self._structure.scan_all()


class IndexManager:
    """All indexes of one table, kept consistent under row mutations."""

    def __init__(self, tracker: CostTracker | None = None, order: int = 64) -> None:
        self._indexes: dict[str, TableIndex] = {}
        self._tracker = tracker
        self._order = order
        #: Bumped on every create/drop; the planner's plan cache and the
        #: prepared trigger probes key on it so cached access paths die
        #: with the index set.
        self.version = 0
        #: Union of every index's column positions: the only components a
        #: shared row encoding has to materialise.
        self._positions_union: tuple[int, ...] = ()

    def _refresh_positions(self) -> None:
        union: set[int] = set()
        for index in self._indexes.values():
            union.update(index.positions)
        self._positions_union = tuple(sorted(union))

    def __len__(self) -> int:
        return len(self._indexes)

    def __iter__(self) -> Iterator[TableIndex]:
        return iter(self._indexes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def names(self) -> list[str]:
        return list(self._indexes)

    def get(self, name: str) -> TableIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise IndexError_(f"no index named {name!r}") from None

    def create(
        self,
        definition: IndexDefinition,
        positions: Sequence[int],
        rows: Iterable[tuple[int, Sequence[Any]]] = (),
    ) -> TableIndex:
        if definition.name in self._indexes:
            raise IndexError_(f"index {definition.name!r} already exists")
        index = TableIndex(definition, positions, self._tracker, self._order)
        index.build(rows)
        self._indexes[definition.name] = index
        self.version += 1
        self._refresh_positions()
        return index

    def drop(self, name: str) -> None:
        if name not in self._indexes:
            raise IndexError_(f"no index named {name!r}")
        del self._indexes[name]
        self.version += 1
        self._refresh_positions()

    def drop_all(self) -> None:
        self._indexes.clear()
        self.version += 1
        self._refresh_positions()

    # ------------------------------------------------------------------
    # Row-mutation fan-out.  Every index of the table is maintained; this
    # is where a 31-index Powerset structure pays for itself.  The row is
    # encoded once and each index slices its key from the shared encoding
    # — under Bounded that removes 2n + 1 redundant encodings per write.

    def insert_row(self, rid: int, row: Sequence[Any]) -> None:
        if not self._indexes:
            return
        encoded = encode_row(row, self._positions_union)
        done: list[TableIndex] = []
        try:
            for index in self._indexes.values():
                index.insert_encoded(rid, encoded)
                done.append(index)
        except Exception:
            for index in done:
                index.delete_encoded(rid, encoded)
            raise

    def insert_rows(self, pairs: Sequence[tuple[int, Sequence[Any]]]) -> None:
        """Maintain every index for a batch of new rows, index-major.

        Each row is encoded once; each index then consumes the whole
        batch through :meth:`TableIndex.insert_encoded_many` — a single
        run per structure instead of one fan-out per row.  Per index the
        entries arrive in the same order the per-row path would apply
        them, so structure evolution and charges are bit-identical; the
        indexes merely see the batch one after another instead of
        interleaved.  On failure, indexes already fully maintained are
        compensated (the failing index removed its own prefix).
        """
        if not self._indexes or not pairs:
            return
        encoded_pairs = [
            (rid, encode_row(row, self._positions_union)) for rid, row in pairs
        ]
        done: list[TableIndex] = []
        try:
            for index in self._indexes.values():
                index.insert_encoded_many(encoded_pairs)
                done.append(index)
        except Exception:
            for index in done:
                for rid, encoded in reversed(encoded_pairs):
                    index.delete_encoded(rid, encoded)
            raise

    def delete_row(self, rid: int, row: Sequence[Any]) -> None:
        if not self._indexes:
            return
        encoded = encode_row(row, self._positions_union)
        for index in self._indexes.values():
            index.delete_encoded(rid, encoded)

    def update_row(self, rid: int, old: Sequence[Any], new: Sequence[Any]) -> None:
        if not self._indexes:
            return
        old_encoded = encode_row(old, self._positions_union)
        new_encoded = encode_row(new, self._positions_union)
        done: list[TableIndex] = []
        try:
            for index in self._indexes.values():
                index.update_encoded(rid, old_encoded, new_encoded)
                done.append(index)
        except Exception:
            for index in done:
                index.update_encoded(rid, new_encoded, old_encoded)
            raise
