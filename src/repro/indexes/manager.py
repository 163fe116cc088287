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

from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import itemgetter
from typing import Any

from ..errors import IndexError_, KeyViolation
from .btree import BPlusTree
from .cost import CostTracker
from .definition import IndexDefinition, IndexKind
from .hash import HashIndex
from .keys import (
    NULL_COMPONENT,
    EncodedKey,
    EncodedRow,
    Entry,
    encode_key,
    encode_row,
)


#: A B+ tree or a hash index: the structures the fan-out drives.
Structure = BPlusTree | HashIndex

#: One index as the fan-out sees it: structure, the getter that picks its
#: entry out of an encoded row with the rid appended (one C call, one
#: tuple), and the index name when it is unique (None otherwise).
_Slot = tuple[Structure, Callable[[EncodedRow], Entry], str | None]


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
        #: Picks this index's entry out of an encoded row with the rid
        #: appended (:meth:`IndexManager.encode_rows`): one C call, one
        #: tuple.
        self.entry_of: Callable[[EncodedRow], Entry] = itemgetter(
            *self.positions, -1
        )
        if definition.kind is IndexKind.BTREE:
            self._structure: Structure = BPlusTree(order, tracker)
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
        #: The first entry of :attr:`runs` and the reads it took, by one
        #: descent (:meth:`BPlusTree.first_entry`), also uncharged.
        self.first_entry = self._structure.first_entry
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

    # ------------------------------------------------------------------
    # Probes used by the executor

    def scan_equal(self, values: Sequence[Any]) -> Iterator[int]:
        """Yield rids of entries whose leading columns equal *values*.

        For a B-tree, *values* may cover any leftmost prefix of the
        indexed columns; for a hash index it must cover all of them.
        """
        prefix = encode_key(values)
        if isinstance(self._structure, BPlusTree):
            for entry in self._structure.scan_prefix(prefix):
                yield entry[-1]
        else:
            if len(values) != len(self.positions):
                raise IndexError_(
                    f"hash index {self.name!r} needs all {len(self.positions)} "
                    f"columns, got {len(values)}"
                )
            for entry in self._structure.lookup(prefix):
                yield entry[-1]

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

    def scan_all(self) -> Iterator[Entry]:
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
        #: What the row fan-out needs of each index, in creation order:
        #: its structure, its entry getter, and its name when it is
        #: unique (None otherwise).
        self._fanout: tuple[_Slot, ...] = ()

    def _refresh(self) -> None:
        union: set[int] = set()
        for index in self._indexes.values():
            union.update(index.positions)
        self._positions_union = tuple(sorted(union))
        self._fanout = tuple(
            (
                index._structure,
                index.entry_of,
                index.name if index.definition.unique else None,
            )
            for index in self._indexes.values()
        )

    def encode_rows(
        self,
        pairs: Iterable[tuple[int, Sequence[Any]]],
        positions: Sequence[int] | None = None,
    ) -> Iterator[EncodedRow]:
        """Each ``(rid, row)`` pair's components under *positions* (by
        default every index's) encoded once, with the rid appended: what
        each index's :attr:`~TableIndex.entry_of` picks its entry from."""
        if positions is None:
            positions = self._positions_union
        for rid, row in pairs:
            encoded = encode_row(row, positions)
            encoded.append(rid)
            yield encoded

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
        specs: Sequence[tuple[IndexDefinition, Sequence[int]]],
        rows: Iterable[tuple[int, Sequence[Any]]] = (),
    ) -> list[TableIndex]:
        """Create the indexes *specs* names — ``(definition, column
        positions)`` pairs, kept in that order — and build them over the
        existing ``(rid, row)`` pairs in one pass.

        *rows* is read once and each row encoded once, over the union of
        the new indexes' positions; every index takes its entries out of
        that shared encoding in row order (:attr:`TableIndex.entry_of`)
        and is built as it would be alone (:meth:`_build`).  All or
        none: when an index rejects a duplicate key, none is created.
        """
        indexes: dict[str, TableIndex] = {}
        for definition, positions in specs:
            if definition.name in self._indexes or definition.name in indexes:
                raise IndexError_(f"index {definition.name!r} already exists")
            indexes[definition.name] = TableIndex(
                definition, positions, self._tracker, self._order
            )
        if not indexes:
            return []
        union = sorted({p for index in indexes.values() for p in index.positions})
        encoded_rows = list(self.encode_rows(rows, union))
        for index in indexes.values():
            self._build(index, list(map(index.entry_of, encoded_rows)))
        self._indexes.update(indexes)
        self.version += 1
        self._refresh()
        return list(indexes.values())

    def _build(self, index: TableIndex, entries: list[Entry]) -> None:
        """Fill the new, empty *index* with *entries*, in row order.

        A B+ tree is bulk loaded, charging one ``index_build_entries``
        per entry; a unique one first checks that no total key repeats.
        A hash index takes its entries as one run and charges one
        ``index_maintenance_ops`` per entry it took.  A unique hash
        index probes for each key before it takes the entry; it does not
        go through :meth:`_insert_unique_run`, whose compensating
        deletes would be charged too, while a failed build throws the
        index away and charges only the entries it took.
        """
        structure = index._structure
        unique = index.name if index.definition.unique else None
        if isinstance(structure, BPlusTree):
            if unique is not None:
                _check_distinct_keys(unique, entries)
            structure.bulk_load(entries)
            return
        if unique is None:
            structure.insert_run(entries)
            self._charge(len(entries))
            return
        done = 0
        try:
            for entry in entries:
                _check_unique(structure, unique, entry)
                structure.insert_entry(entry)
                done += 1
        finally:
            self._charge(done)

    def drop(self, name: str) -> None:
        if name not in self._indexes:
            raise IndexError_(f"no index named {name!r}")
        del self._indexes[name]
        self.version += 1
        self._refresh()

    def drop_all(self) -> None:
        self._indexes.clear()
        self.version += 1
        self._refresh()

    # ------------------------------------------------------------------
    # Row-mutation fan-out.  Every index of the table is maintained; this
    # is where a 31-index Powerset structure pays for itself.  The row is
    # encoded once with its rid appended, each index picks its entry out
    # of the shared encoding — under Bounded that removes 2n + 1
    # redundant encodings per write — and one loop drives the structures
    # directly.  Each structure
    # mutation is one ``index_maintenance_ops``, charged once per row.
    # A failure undoes the indexes the row already changed before it
    # propagates (DESIGN §5k), so a raising write leaves every index as
    # it found it; only a simulated crash (a ``BaseException``) tears.

    def _charge(self, ops: int) -> None:
        if ops and self._tracker is not None:
            self._tracker.count("index_maintenance_ops", ops)

    def insert_row(self, rid: int, row: Sequence[Any]) -> None:
        fanout = self._fanout
        if not fanout:
            return
        encoded = encode_row(row, self._positions_union)
        encoded.append(rid)
        done = 0
        try:
            for structure, entry_of, unique in fanout:
                entry = entry_of(encoded)
                if unique is not None:
                    _check_unique(structure, unique, entry)
                structure.insert_entry(entry)
                done += 1
        except Exception:
            for structure, entry_of, __ in fanout[:done]:
                structure.delete_entry(entry_of(encoded))
            self._charge(done)  # the compensating deletes
            raise
        finally:
            self._charge(done)  # the inserts, whatever came after them

    def insert_rows(self, pairs: Sequence[tuple[int, Sequence[Any]]]) -> None:
        """Maintain every index for a batch of new rows, index-major.

        Each row is encoded once; each index then takes the whole batch
        as one run.  Non-unique structures get it through ``insert_run``
        (one descent per run of adjacent keys); a unique index keeps the
        per-entry loop, because its duplicate probe must see the batch's
        own earlier entries, so probe and insert stay interleaved as in
        :meth:`insert_row`.  Per index the entries arrive in the order
        the per-row path would apply them, so structure evolution and
        charges are bit-identical; the indexes merely see the batch one
        after another instead of interleaved.  On failure the failing
        index has removed its own prefix and the indexes already done
        are compensated.
        """
        fanout = self._fanout
        if not fanout or not pairs:
            return
        union = self._positions_union
        encoded_rows = []
        for rid, row in pairs:
            encoded = encode_row(row, union)
            encoded.append(rid)
            encoded_rows.append(encoded)
        done = 0
        try:
            for structure, entry_of, unique in fanout:
                entries = list(map(entry_of, encoded_rows))
                if unique is None:
                    structure.insert_run(entries)
                    self._charge(len(entries))
                else:
                    self._insert_unique_run(structure, unique, entries)
                done += 1
        except Exception:
            for structure, entry_of, __ in fanout[:done]:
                for encoded in reversed(encoded_rows):
                    structure.delete_entry(entry_of(encoded))
                self._charge(len(encoded_rows))
            raise

    def _insert_unique_run(
        self, structure: Structure, name: str, entries: list[Entry]
    ) -> None:
        """``insert_run`` for a unique index: on any failure, a crash
        included, it removes its own prefix, as the structures' runs do."""
        done = 0
        try:
            for entry in entries:
                _check_unique(structure, name, entry)
                structure.insert_entry(entry)
                done += 1
        except BaseException:
            for entry in reversed(entries[:done]):
                structure.delete_entry(entry)
            self._charge(done)  # the compensating deletes
            raise
        finally:
            self._charge(done)  # the inserts, whatever came after them

    def delete_row(self, rid: int, row: Sequence[Any]) -> None:
        fanout = self._fanout
        if not fanout:
            return
        encoded = encode_row(row, self._positions_union)
        encoded.append(rid)
        done = 0
        try:
            for structure, entry_of, __ in fanout:
                structure.delete_entry(entry_of(encoded))
                done += 1
        except Exception:
            # the heap still holds the row: index it again where it went
            for structure, entry_of, __ in fanout[:done]:
                structure.insert_entry(entry_of(encoded))
            self._charge(done)  # the compensating inserts
            raise
        finally:
            self._charge(done)  # the deletes, whatever came after them

    def update_row(self, rid: int, old: Sequence[Any], new: Sequence[Any]) -> None:
        fanout = self._fanout
        if not fanout:
            return
        union = self._positions_union
        old_encoded = encode_row(old, union)
        old_encoded.append(rid)
        new_encoded = encode_row(new, union)
        new_encoded.append(rid)
        ops = done = 0
        try:
            for structure, entry_of, unique in fanout:
                old_entry = entry_of(old_encoded)
                new_entry = entry_of(new_encoded)
                if old_entry != new_entry:
                    ops += self._move(structure, unique, old_entry, new_entry)
                done += 1
        except Exception:
            for structure, entry_of, unique in fanout[:done]:
                old_entry = entry_of(old_encoded)
                new_entry = entry_of(new_encoded)
                if old_entry != new_entry:
                    ops += self._move(structure, unique, new_entry, old_entry)
            raise
        finally:
            self._charge(ops)

    def _move(
        self,
        structure: Structure,
        unique: str | None,
        old_entry: Entry,
        new_entry: Entry,
    ) -> int:
        """Re-key one row from *old_entry* to *new_entry* (same rid) in
        one structure; returns the two maintenance ops it took.  A
        rejected or failed insert puts the old entry back before it
        propagates, and charges three ops on the spot: the delete, the
        insert attempt, the re-insert."""
        structure.delete_entry(old_entry)
        try:
            if unique is not None:
                _check_unique(structure, unique, new_entry)
            structure.insert_entry(new_entry)
        except Exception:
            structure.insert_entry(old_entry)
            self._charge(3)
            raise
        return 2


def _check_unique(structure: Structure, name: str, entry: Entry) -> None:
    """Raise when *entry*'s key is already in unique index *name*."""
    key = entry[:-1]
    if _has_total_duplicate(structure, key):
        raise _unique_violation(name, key)


def _check_distinct_keys(name: str, entries: list[Entry]) -> None:
    """Raise at the first total key that repeats among *entries*, in
    their order: a unique B+ tree's check before it is bulk loaded."""
    seen: set[EncodedKey] = set()
    for entry in entries:
        key = entry[:-1]
        if NULL_COMPONENT in key:
            continue
        if key in seen:
            raise _unique_violation(name, key)
        seen.add(key)


def _has_total_duplicate(structure: Structure, key: EncodedKey) -> bool:
    """The unique index's duplicate probe.  SQL-style uniqueness: keys
    containing NULL never collide."""
    if NULL_COMPONENT in key:
        return False
    if isinstance(structure, BPlusTree):
        return structure.first_with_prefix(key) is not None
    return structure.first_with_key(key) is not None


def _unique_violation(name: str, key: EncodedKey) -> KeyViolation:
    return KeyViolation(f"unique index {name!r} violated by key {key!r}")
