"""Cost-based access-path selection.

The planner decides, for a single-table predicate, whether to probe an
index or scan the heap.  Its rules are a deliberate model of what the
paper measured on MySQL 5.6 (§7.5):

1. **Leftmost-prefix rule.** A compound B-tree index on ``(c1..cm)`` is a
   candidate iff the predicate has total-value equality terms on a
   leftmost prefix ``c1..cL`` (L >= 1).  Cost = estimated matching
   entries for the prefix.
2. **IS NULL is not sargable.**  Null-state terms are answered by
   post-filtering, never by ref access.  This reproduces the paper's
   observation that Hybrid "requires one scan through all tuples ...
   [for] children that feature null on the left-most column".
3. **Hash indexes** serve only full-key equality.
4. **Planner overhead scales with the number of indexes**: every index
   examined charges one ``planner_candidates`` unit, the second factor
   the paper cites for Powerset losing to Bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..indexes.definition import IndexKind
from ..indexes.manager import TableIndex
from ..storage.table import Table
from .predicate import ConjunctionProfile, Predicate


@dataclass
class AccessPath:
    """The outcome of planning one single-table predicate.

    ``index`` is None for a full heap scan.  ``prefix_values`` are the
    total values bound to the leading index columns (the ref-access key);
    ``estimated_rows`` is the number of entries the probe is expected to
    touch before residual filtering.
    """

    table: Table
    index: TableIndex | None
    prefix_values: tuple[Any, ...]
    estimated_rows: float
    needs_filter: bool

    @property
    def is_full_scan(self) -> bool:
        return self.index is None

    def describe(self) -> str:
        if self.index is None:
            return (
                f"FULL SCAN {self.table.name} "
                f"(~{self.table.row_count} rows examined)"
            )
        cols = ", ".join(self.index.columns[: len(self.prefix_values)])
        filt = " + filter" if self.needs_filter else ""
        return (
            f"REF {self.table.name} via {self.index.name} ({cols}) "
            f"~{self.estimated_rows:.1f} rows{filt}"
        )


def plan(table: Table, predicate: Predicate | None) -> AccessPath:
    """Choose the cheapest access path for *predicate* on *table*.

    Plans are cached per predicate *shape* (the set of equality columns
    and IS NULL columns) and per index-set version, the way production
    engines cache prepared plans: the enforcement triggers issue the same
    probe shapes thousands of times with different constants, and
    re-running index selection each time would make the optimizer — not
    the data — the bottleneck.  The ``planner_candidates`` cost counter
    is still charged per query so the Powerset-style optimizer overhead
    the paper discusses stays visible in the logical costs.
    """
    profile = ConjunctionProfile(predicate)
    return plan_profile(table, profile, has_predicate=predicate is not None)


def plan_profile(
    table: Table, profile: ConjunctionProfile, has_predicate: bool = True
) -> AccessPath:
    """Plan from an already-analysed predicate shape (prepared probes)."""
    table.tracker.count("planner_candidates", len(table.indexes))
    if profile.sargable and profile.eq:
        _index_dives(table, profile)

    shape = (
        table.indexes.version,
        frozenset(profile.eq),
        frozenset(profile.null_cols),
        profile.residual,
        profile.sargable,
        has_predicate,
    )
    cache = table._plan_cache
    cached = cache.get(shape)
    if cached is not None:
        index_name, prefix_columns, needs_filter = cached
        if index_name is None:
            return AccessPath(
                table, None, (), float(table.row_count), has_predicate
            )
        index = table.indexes.get(index_name)
        values = tuple(profile.eq[c] for c in prefix_columns)
        return AccessPath(table, index, values, 0.0, needs_filter)

    path = _plan_uncached(table, profile, has_predicate)
    if len(cache) > 512:  # bounded cache, enforcement shapes are few
        cache.clear()
    if path.index is None:
        cache[shape] = (None, (), path.needs_filter)
    else:
        cache[shape] = (
            path.index.name,
            path.index.columns[: len(path.prefix_values)],
            path.needs_filter,
        )
    return path


def _index_dives(table: Table, profile: ConjunctionProfile) -> None:
    """Selectivity dives: one B-tree descent per usable candidate index.

    MySQL 5.6 — the paper's system — estimates equality-range selectivity
    with *index dives* on every statement execution (statements inside
    trigger bodies are re-optimized each time).  This is the second cost
    the paper attributes to Powerset: "to choose the index from all the
    options in Powerset" (§7.2).  The dive itself is a real descent, so
    its cost appears in both wall-clock time and ``index_node_reads``.
    """
    eq = profile.eq
    for index in table.indexes:
        if index.kind is not IndexKind.BTREE:
            continue
        first = index.columns[0]
        if first in eq:
            index.dive(eq[first])


def _plan_uncached(
    table: Table, profile: ConjunctionProfile, has_predicate: bool
) -> AccessPath:
    full_scan = AccessPath(
        table=table,
        index=None,
        prefix_values=(),
        estimated_rows=float(table.row_count),
        needs_filter=has_predicate,
    )
    if not profile.sargable or not profile.eq:
        return full_scan

    best: AccessPath | None = None
    best_key: tuple[float, int, str] | None = None
    for index in table.indexes:
        candidate = _candidate_for(table, index, profile)
        if candidate is None:
            continue
        # Prefer fewer estimated rows; break ties with a longer prefix
        # (more selective residual) and then the index name (determinism).
        key = (
            candidate.estimated_rows,
            -len(candidate.prefix_values),
            index.name,
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key

    # A tie goes to the index.  Both paths of the engine fix a shape's
    # access path at its first planning (the plan cache, a prepared
    # probe), and an empty table ties every candidate with the scan at
    # zero rows: a scan verdict reached there would outlive the empty
    # state and read the whole heap on every later probe.
    if best is None or best.estimated_rows > full_scan.estimated_rows:
        return full_scan
    return best


def _candidate_for(
    table: Table, index: TableIndex, profile: ConjunctionProfile
) -> AccessPath | None:
    """Build the access path offered by one index, or None if unusable."""
    if index.kind is IndexKind.HASH:
        values = []
        for column in index.columns:
            if column not in profile.eq:
                return None
            values.append(profile.eq[column])
        positions = list(index.positions)
        estimate = table.statistics.estimate_prefix(positions, values)
        needs_filter = _residual_after(index.columns, profile)
        return AccessPath(table, index, tuple(values), estimate, needs_filter)

    # B-tree: bind the longest leftmost prefix of total-value equalities.
    values = []
    for column in index.columns:
        if column not in profile.eq:
            break
        values.append(profile.eq[column])
    if not values:
        return None
    positions = list(index.positions[: len(values)])
    estimate = table.statistics.estimate_prefix(positions, values)
    needs_filter = _residual_after(index.columns[: len(values)], profile)
    return AccessPath(table, index, tuple(values), estimate, needs_filter)


def _residual_after(bound_columns: tuple[str, ...], profile: ConjunctionProfile) -> bool:
    """Does anything remain to filter after ref access on bound columns?"""
    unbound_eq = set(profile.eq) - set(bound_columns)
    return bool(unbound_eq) or bool(profile.null_cols) or profile.residual
