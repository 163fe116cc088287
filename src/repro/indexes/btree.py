"""A from-scratch B+ tree with duplicate keys and prefix scans.

This is the index substrate the paper's six index structures are built
from.  Design notes:

* **Entries, not keys.**  Secondary indexes hold one flat tuple per
  row, ``(c1, …, cn, rid)``: the encoded key components with the row id
  appended.  We treat the whole entry as the B-tree ordering key, so
  duplicates of the same column value remain totally ordered (the
  standard "unique-ify by appending the row id" technique, used by
  InnoDB secondary indexes).  Every key of one tree has the same length,
  so the flat tuple sorts exactly as the ``(key, rid)`` pair would — in
  one object instead of two, and one scan of the key per comparison.
* **Null markers are indexed.**  Keys are encoded by
  :mod:`repro.indexes.keys`; NULL sorts first, as in MySQL.
* **Lazy deletion.**  Deleting an entry never merges or rebalances pages;
  a page is unlinked only once it is completely empty, and the root is
  collapsed when it has a single child.  This mirrors PostgreSQL's
  nbtree behaviour and avoids a large class of rebalancing bugs while
  keeping height logarithmic for the random workloads of the paper.
* **Cost counting.**  Every node visited during a descent or a leaf-chain
  walk counts one ``index_node_reads``; every entry a scan moves past
  counts one ``index_entries_scanned``.  These counters are the logical
  stand-in for the I/O the paper measures.
* **One range primitive.**  :meth:`BPlusTree.runs` hands out a prefix
  range one leaf slice at a time together with the node reads each slice
  cost, charging nothing itself; the entry-at-a-time scans here and the
  probe kernel of :mod:`repro.query.probes` are both consumers of it and
  charge exactly what they consume.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from itertools import compress, islice
from operator import eq
from typing import Any

from ..errors import IndexError_
from ..testing.faults import fire
from .cost import CostTracker
from .keys import EncodedKey, Entry, prefix_end

#: Default number of entries per leaf / children per internal node.
DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("entries", "next")

    is_leaf = True

    def __init__(self) -> None:
        self.entries: list[Entry] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("separators", "children")

    is_leaf = False

    def __init__(self) -> None:
        # children[i] holds entries < separators[i] <= children[i+1]
        self.separators: list[Entry] = []
        self.children: list[Any] = []


class BPlusTree:
    """Order-``order`` B+ tree over ``(c1, …, cn, rid)`` entries."""

    #: Entries are charged per leaf on the way out, counting the ones a
    #: consumer moved past: the entry it stops on is not among them.
    HIT_SCANNED = 0

    def __init__(self, order: int = DEFAULT_ORDER, tracker: CostTracker | None = None):
        if order < 4:
            raise IndexError_(f"B+ tree order must be >= 4, got {order}")
        self._order = order
        self._root: _Leaf | _Internal = _Leaf()
        self._first_leaf: _Leaf = self._root  # head of the leaf chain
        self._last_leaf: _Leaf = self._root  # tail of the leaf chain
        self._size = 0
        self._tracker = tracker
        #: Maintained level count, valid while ``_uniform`` holds; the
        #: insert fast paths charge it in place of a physical descent.
        self._height = 1
        #: All leaves at the same depth?  True until a one-child splice
        #: during deletion shortens one subtree; the fast paths disable
        #: themselves then, because a flat ``_height`` charge would no
        #: longer equal the descent cost to an arbitrary leaf.
        self._uniform = True
        #: Leaf that received the previous insert; consecutive inserts of
        #: equal/adjacent keys land here without descending.
        self._hint_leaf: _Leaf | None = None
        #: The hint leaf's exclusive upper bound: the deepest right-hand
        #: separator on the descent path that found it.  An entry may
        #: reuse the hint only when strictly below this bound — the leaf
        #: chain alone cannot decide ownership, because after deletions a
        #: separator may sit below the next leaf's first entry and a
        #: descent would route keys in that gap to the next leaf.
        #: Separators are only ever removed or redistributed (never
        #: altered in place), so the cached bound can grow stale only by
        #: *widening*, which keeps the check sound.
        self._hint_upper: Entry | None = None

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        return self._order

    def height(self) -> int:
        """Number of levels in the tree (1 for a single leaf)."""
        h, node = 1, self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def _count(self, name: str, amount: int = 1) -> None:
        if self._tracker is not None:
            self._tracker.count(name, amount)

    # ------------------------------------------------------------------
    # Search helpers

    def _end(self, prefix: EncodedKey) -> Entry:
        """:func:`~repro.indexes.keys.prefix_end` of *prefix* at this
        tree's key width, which any entry tells (an empty tree holds no
        entry to compare the bound with)."""
        sample = self._first_leaf.entries
        return prefix_end(prefix, len(sample[0]) - 1 if sample else len(prefix) + 1)

    def _descend(self, entry: Entry) -> tuple[_Leaf, list[tuple[_Internal, int]]]:
        """Walk from the root to the leaf that owns *entry*.

        Returns the leaf plus the path of (internal node, child index)
        pairs, charging one node read per level.
        """
        path: list[tuple[_Internal, int]] = []
        node = self._root
        while not node.is_leaf:
            idx = bisect_right(node.separators, entry)
            path.append((node, idx))
            node = node.children[idx]
        self._count("index_node_reads", len(path) + 1)
        return node, path

    # ------------------------------------------------------------------
    # Mutation

    def insert(self, key: EncodedKey, rid: int) -> None:
        """Insert ``(*key, rid)``; a duplicate entry is rejected."""
        self.insert_entry((*key, rid))

    def insert_entry(self, entry: Entry) -> None:
        """Insert one entry; duplicates are rejected."""
        order = self._order
        tracker = self._tracker
        # Fast paths: monotone entry streams append to the rightmost
        # leaf, and runs of equal/adjacent keys reuse the previous
        # insert's leaf.  Both charge ``index_node_reads`` as if they had
        # descended, leave no room for a split (the leaf must have slack,
        # so the "btree.split" fault point stays on the slow path exactly
        # where it fired before), and require uniform leaf depth so the
        # flat charge equals the true descent cost.
        if self._uniform:
            last = self._last_leaf
            entries = last.entries
            if entries and len(entries) < order and entry > entries[-1]:
                if tracker is not None:
                    tracker.count("index_node_reads", self._height)
                entries.append(entry)
                self._size += 1
                self._hint_leaf = last
                self._hint_upper = None  # rightmost: no bound to its right
                return
            hint = self._hint_leaf
            if hint is not None and hint is not last:
                hentries = hint.entries
                if (
                    hentries
                    and len(hentries) < order
                    and entry >= hentries[0]
                    and self._hint_upper is not None
                    and entry < self._hint_upper
                ):
                    if tracker is not None:
                        tracker.count("index_node_reads", self._height)
                    pos = bisect_left(hentries, entry)
                    if pos < len(hentries) and hentries[pos] == entry:
                        raise IndexError_(f"duplicate index entry {entry!r}")
                    hentries.insert(pos, entry)
                    self._size += 1
                    return
        # The descent of :meth:`_descend`, inline: it also keeps the
        # deepest right-hand separator on the way, the leaf's upper bound
        # for the next insert's hint.
        path: list[tuple[_Internal, int]] = []
        upper: Entry | None = None
        node: Any = self._root
        while not node.is_leaf:
            separators = node.separators
            idx = bisect_right(separators, entry)
            if idx < len(separators):
                upper = separators[idx]
            path.append((node, idx))
            node = node.children[idx]
        if tracker is not None:
            tracker.count("index_node_reads", len(path) + 1)
        entries = node.entries
        size = len(entries)
        pos = bisect_left(entries, entry)
        if pos < size and entries[pos] == entry:
            raise IndexError_(f"duplicate index entry {entry!r}")
        if size >= order:
            # The fault point fires before the leaf mutates so an injected
            # exception leaves this index untouched (a crash here still
            # tears heap against index: the heap row is already written).
            fire("btree.split")
        entries.insert(pos, entry)
        self._size += 1
        if size >= order:
            self._split_leaf(node, path)
            self._hint_leaf = None
            self._hint_upper = None
        else:
            self._hint_leaf = node
            self._hint_upper = upper

    def insert_run(self, entries: list[Entry]) -> None:
        """Insert a batch of entries in arrival order, one descent per
        leaf the run touches.

        The run keeps a small sorted cache of every leaf a descent has
        found so far, its first entry at caching time as the routing
        key.  A batch that ping-pongs between a handful of hot leaves
        (clustered foreign keys: many children of few parents) descends
        once per leaf, then lands every later entry by one bisect.
        Ownership is decided purely against the *live* leaf: if
        ``entries[0] <= entry <= entries[-1]`` the leaf owns the entry,
        whatever has split elsewhere since — leaves partition the key
        space in sorted order, so an entry inside a leaf's live span
        cannot belong to any other leaf.  A stale cache slot can
        therefore only cause a miss (re-descend, re-cache), never a
        wrong placement, and splits need no invalidation at all.
        Entries beyond every cached span go through :meth:`insert`,
        whose own fast paths keep monotone streams cheap.

        Charges stay bit-identical to ``len(entries)`` :meth:`insert`
        calls — while the tree is uniform *every* insert charges exactly
        ``_height`` node reads whichever path it takes, so cache hits
        accumulate the same flat ``_height``, charged in one sum.  On
        any failure the already-inserted prefix is removed again, so a
        raising batch leaves the index untouched.
        """
        done = 0
        lowers: list[Entry] = []  # routing keys, sorted
        cache: list[_Leaf] = []
        cached_reads = 0
        order = self._order
        try:
            for entry in entries:
                if self._uniform and lowers:
                    slot = bisect_right(lowers, entry) - 1
                    if slot >= 0:
                        lentries = cache[slot].entries
                        if (
                            lentries
                            and len(lentries) < order
                            and lentries[0] <= entry <= lentries[-1]
                        ):
                            cached_reads += self._height
                            pos = bisect_left(lentries, entry)
                            if lentries[pos] == entry:
                                raise IndexError_(
                                    f"duplicate index entry {entry!r}"
                                )
                            lentries.insert(pos, entry)
                            self._size += 1
                            done += 1
                            continue
                self.insert_entry(entry)
                done += 1
                hint = self._hint_leaf
                if hint is not None and hint.entries:
                    lower = hint.entries[0]
                    slot = bisect_left(lowers, lower)
                    if slot < len(lowers) and lowers[slot] == lower:
                        cache[slot] = hint
                    else:
                        lowers.insert(slot, lower)
                        cache.insert(slot, hint)
        except BaseException:
            for entry in reversed(entries[:done]):
                self.delete_entry(entry)
            raise
        finally:
            if cached_reads:
                self._count("index_node_reads", cached_reads)

    def _split_leaf(self, leaf: _Leaf, path: list[tuple[_Internal, int]]) -> None:
        mid = len(leaf.entries) // 2
        right = _Leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next = leaf.next
        leaf.next = right
        if leaf is self._last_leaf:
            self._last_leaf = right
        self._insert_into_parent(path, right.entries[0], right)

    def _insert_into_parent(
        self,
        path: list[tuple[_Internal, int]],
        separator: Entry,
        new_child: Any,
    ) -> None:
        if not path:
            new_root = _Internal()
            new_root.separators = [separator]
            new_root.children = [self._root, new_child]
            self._root = new_root
            self._height += 1
            return
        parent, child_idx = path.pop()
        parent.separators.insert(child_idx, separator)
        parent.children.insert(child_idx + 1, new_child)
        if len(parent.children) > self._order:
            self._split_internal(parent, path)

    def _split_internal(self, node: _Internal, path: list[tuple[_Internal, int]]) -> None:
        mid = len(node.separators) // 2
        promoted = node.separators[mid]
        right = _Internal()
        right.separators = node.separators[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.separators = node.separators[:mid]
        node.children = node.children[: mid + 1]
        self._insert_into_parent(path, promoted, right)

    def delete(self, key: EncodedKey, rid: int) -> None:
        """Remove ``(*key, rid)``; raises if it is absent."""
        self.delete_entry((*key, rid))

    def delete_entry(self, entry: Entry) -> None:
        """Remove one entry; raises if it is absent."""
        leaf, path = self._descend(entry)
        pos = bisect_left(leaf.entries, entry)
        if pos >= len(leaf.entries) or leaf.entries[pos] != entry:
            raise IndexError_(f"index entry not found: {entry!r}")
        if len(leaf.entries) == 1 and leaf is not self._root:
            fire("btree.unlink")  # pre-mutation, as for "btree.split"
        del leaf.entries[pos]
        self._size -= 1
        if not leaf.entries:
            self._remove_empty_leaf(leaf, path)

    def _remove_empty_leaf(self, leaf: _Leaf, path: list[tuple[_Internal, int]]) -> None:
        if leaf is self._root:
            return  # an empty tree keeps its single empty leaf
        # Unlink from the leaf chain.  The predecessor is found by walking
        # the chain; this is O(#leaves) but deletion-to-empty is rare for
        # the paper's workloads (leaves hold up to `order` entries).
        if self._first_leaf is leaf:
            self._first_leaf = leaf.next if leaf.next is not None else leaf
            if leaf.next is None:
                return
        else:
            prev = self._first_leaf
            while prev.next is not leaf:
                assert prev.next is not None, "leaf chain corrupted"
                prev = prev.next
            prev.next = leaf.next
            if self._last_leaf is leaf:
                self._last_leaf = prev
        if self._hint_leaf is leaf:
            self._hint_leaf = None
            self._hint_upper = None
        self._remove_child(path, leaf)

    def _remove_child(self, path: list[tuple[_Internal, int]], child: Any) -> None:
        parent, child_idx = path.pop()
        assert parent.children[child_idx] is child
        del parent.children[child_idx]
        if parent.separators:
            # Drop the separator adjacent to the removed child.
            del parent.separators[max(child_idx - 1, 0)]
        if parent is self._root:
            if len(parent.children) == 1:
                self._root = parent.children[0]
                self._height -= 1
            elif not parent.children:
                self._root = _Leaf()
                self._first_leaf = self._root
                self._last_leaf = self._root
                self._hint_leaf = None
                self._hint_upper = None
                self._height = 1
                self._uniform = True
            return
        if not parent.children:
            self._remove_child(path, parent)
        elif len(parent.children) == 1:
            # Splice out the one-child internal node: its grandparent
            # adopts the child directly.  Separator bounds stay valid
            # (they only ever loosen), and the grandparent's fanout is
            # unchanged, so no recursion is needed.  The adopted subtree
            # is now one level shallower than its siblings, so the
            # uniform-depth insert fast paths switch off.
            grandparent, parent_idx = path.pop()
            assert grandparent.children[parent_idx] is parent
            grandparent.children[parent_idx] = parent.children[0]
            self._uniform = False

    def bulk_load(self, entries: list[Entry]) -> None:
        """Replace the tree contents with *entries*, in any order.

        Bottom-up bulk loading, used when building an index over an
        existing table.  *entries* is left as it was: the leaves are
        slices of a sorted copy.  Charges one ``index_build_entries``
        per entry.
        """
        entries = sorted(entries)
        # the first entry equal to its successor, found in one C-level pass
        successors = islice(entries, 1, None)
        duplicate = next(compress(entries, map(eq, entries, successors)), None)
        if duplicate is not None:
            raise IndexError_(f"duplicate index entry {duplicate!r}")
        self._count("index_build_entries", len(entries))
        self._size = len(entries)
        self._hint_leaf = None
        self._hint_upper = None
        self._uniform = True
        self._height = 1
        fanout = max(self._order // 2, 2)
        leaves: list[_Leaf] = []
        if not entries:
            self._root = _Leaf()
            self._first_leaf = self._root
            self._last_leaf = self._root
            return
        for start in range(0, len(entries), fanout):
            leaf = _Leaf()
            leaf.entries = entries[start : start + fanout]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._first_leaf = leaves[0]
        self._last_leaf = leaves[-1]
        level: list[Any] = leaves
        while len(level) > 1:
            parents: list[_Internal] = []
            for start in range(0, len(level), fanout):
                group = level[start : start + fanout]
                if parents and len(group) == 1:
                    # Avoid a 1-child internal node: attach to previous.
                    prev = parents[-1]
                    prev.separators.append(self._lowest_entry(group[0]))
                    prev.children.append(group[0])
                    continue
                node = _Internal()
                node.children = group
                node.separators = [self._lowest_entry(c) for c in group[1:]]
                parents.append(node)
            level = parents
            self._height += 1
        self._root = level[0]

    @staticmethod
    def _lowest_entry(node: Any) -> Entry:
        while not node.is_leaf:
            node = node.children[0]
        return node.entries[0]

    # ------------------------------------------------------------------
    # Scans

    def runs(self, prefix: EncodedKey) -> Iterator[tuple[list[Entry], int]]:
        """The leaf-run primitive: every entry whose key starts with
        *prefix*, one slice per leaf, in order.

        Descends once, bounds the run inside each leaf with a bisect and
        yields ``(slice, node_reads)`` — the node reads it took to reach
        that slice: the descent for the first, one leaf step for each
        later one.  A slice may be empty: the descent leaf can already
        be exhausted (the run starts in the next leaf), and a run that
        ends exactly on a leaf boundary costs one more step to find
        that out.  Nothing is charged here; the consumer charges the
        reads of every slice it asked for and the entries it consumed,
        so one that stops early pays for no step it did not take.
        """
        return self._leaf_runs(prefix, self._end(prefix))

    def _leaf_runs(
        self, low: Entry | None, high: Entry | None
    ) -> Iterator[tuple[list[Entry], int]]:
        """:meth:`runs` over the entries in ``[low, high)``; ``None``
        leaves that side open (an open low starts at the first leaf,
        which costs one read instead of a descent)."""
        node: Any
        if low is None:
            node = self._first_leaf
            reads = 1
            pos = 0
        else:
            node = self._root
            reads = 1
            while not node.is_leaf:
                node = node.children[bisect_right(node.separators, low)]
                reads += 1
            pos = bisect_left(node.entries, low)
        while True:
            entries = node.entries
            end = len(entries) if high is None else bisect_left(entries, high, pos)
            yield entries[pos:end], reads
            if end < len(entries):
                return
            node = node.next
            if node is None:
                return
            pos = 0
            reads = 1

    def _scan(self, low: Entry | None, high: Entry | None) -> Iterator[Entry]:
        """Entry-at-a-time view of :meth:`_leaf_runs`, charged as it is
        consumed: node reads per slice asked for, entries scanned per
        leaf (batched — a real engine reads whole pages) counting the
        entries the consumer moved *past*, so a LIMIT-1 consumer that
        stops on its first candidate is charged none."""
        for entries, reads in self._leaf_runs(low, high):
            self._count("index_node_reads", reads)
            passed = 0
            try:
                for entry in entries:
                    yield entry
                    passed += 1
            finally:
                self._count("index_entries_scanned", passed)

    def scan_from(self, low: Entry | None = None) -> Iterator[Entry]:
        """Yield entries >= *low* (or all entries) in ascending order."""
        return self._scan(low, None)

    def scan_prefix(self, prefix: EncodedKey) -> Iterator[Entry]:
        """Yield entries whose key starts with *prefix*, in order."""
        return self._scan(prefix, self._end(prefix))

    def first_entry(self, prefix: EncodedKey) -> tuple[Entry | None, int]:
        """The first entry whose key starts with *prefix* (None: there is
        none) and the node reads it took, uncharged: exactly what a
        consumer of :meth:`runs` sees and pays when it stops at the first
        non-empty slice, found by one descent and no generator.

        The descent leaf may already be exhausted (the range starts in
        the next leaf, one step more); otherwise its entry at the low
        bound decides — in the range, or past it and the range is empty.
        """
        node: Any = self._root
        reads = 1
        while not node.is_leaf:
            node = node.children[bisect_right(node.separators, prefix)]
            reads += 1
        entries = node.entries
        pos = bisect_left(entries, prefix)
        while pos == len(entries):
            node = node.next
            if node is None:
                return None, reads
            entries = node.entries
            pos = 0
            reads += 1
        entry = entries[pos]
        in_range = entry < prefix_end(prefix, len(entry) - 1)
        return (entry if in_range else None), reads

    def first_with_prefix(self, prefix: EncodedKey) -> Entry | None:
        """Return the first entry matching *prefix*, or None.

        This is the ``LIMIT 1`` existence probe the paper's triggers rely
        on ("referential integrity requires only one matching tuple"):
        the descent's node reads plus one per leaf step, and no entries
        scanned.
        """
        entry, reads = self.first_entry(prefix)
        self._count("index_node_reads", reads)
        return entry

    def scan_all(self) -> Iterator[Entry]:
        """Yield every entry in key order."""
        return self.scan_from(None)

    def dive(self, prefix: EncodedKey) -> int:
        """Optimizer index dive: descend to *prefix*'s leaf, return the
        in-leaf position.  Charges the descent's node reads but avoids
        the generator machinery of a scan — this is the per-statement
        selectivity estimation MySQL 5.6 performs (eq_range index dives).
        """
        leaf, __ = self._descend(prefix)
        return bisect_left(leaf.entries, prefix)

    def contains(self, key: EncodedKey, rid: int) -> bool:
        """Exact-entry membership test for ``(*key, rid)``."""
        entry: Entry = (*key, rid)
        leaf, __ = self._descend(entry)
        pos = bisect_left(leaf.entries, entry)
        return pos < len(leaf.entries) and leaf.entries[pos] == entry

    # ------------------------------------------------------------------
    # Validation (used by tests)

    def check_invariants(self) -> None:
        """Raise AssertionError when a structural invariant is broken."""
        entries = [e for e in self._iter_structure(self._root)]
        assert entries == sorted(entries), "entries out of order"
        assert len(entries) == self._size, "size counter out of sync"
        chained = []
        leaf: _Leaf | None = self._first_leaf
        tail = self._first_leaf
        while leaf is not None:
            chained.extend(leaf.entries)
            tail = leaf
            leaf = leaf.next
        assert chained == entries, "leaf chain disagrees with tree structure"
        assert tail is self._last_leaf, "last-leaf pointer out of date"
        depths = {
            depth for depth in self._leaf_depths(self._root, 1)
        }
        if self._uniform:
            assert depths == {self._height}, (
                f"uniform tree claims height {self._height}, "
                f"found leaf depths {sorted(depths)}"
            )
        self._check_node(self._root, None, None)

    def _leaf_depths(self, node: Any, depth: int) -> Iterator[int]:
        if node.is_leaf:
            yield depth
        else:
            for child in node.children:
                yield from self._leaf_depths(child, depth + 1)

    def _iter_structure(self, node: Any) -> Iterator[Entry]:
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.children:
                yield from self._iter_structure(child)

    def _check_node(self, node: Any, low: Entry | None, high: Entry | None) -> None:
        if node.is_leaf:
            for e in node.entries:
                assert low is None or e >= low, "entry below lower bound"
                assert high is None or e < high, "entry above upper bound"
            return
        assert len(node.children) == len(node.separators) + 1, "fanout mismatch"
        assert len(node.children) >= 2 or node is self._root, "thin internal node"
        bounds = [low] + list(node.separators) + [high]
        for i, child in enumerate(node.children):
            self._check_node(child, bounds[i], bounds[i + 1])
