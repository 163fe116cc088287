"""The index structures of the paper (§6.2, §7.5, §9).

Each structure prescribes which indexes to create on the referenced
(parent) and referencing (child) tables of one foreign key:

===================  ==========================  ==========================
Structure            Parent indexes              Child indexes
===================  ==========================  ==========================
NO_INDEX             —                           —
FULL                 (k1..kn)                    (f1..fn)
SINGLETON            k1, ..., kn                 f1, ..., fn
HYBRID               k1, ..., kn                 (f1..fn)
POWERSET             every non-empty subset      every non-empty subset
BOUNDED              (k1..kn), k1, ..., kn       (f1..fn), f1, ..., fn
HYBRID_COMPOUND      (k1..kn), k1, ..., kn       (f1..fn)
HYBRID_NSINGLE       k1, ..., kn                 (f1..fn), f1, ..., fn
PREFIX_COMPOUND      n rotations of (k1..kn)     n rotations of (f1..fn)
===================  ==========================  ==========================

FULL enforces simple semantics natively; HYBRID is Härder & Reinhart's
recommendation for MATCH PARTIAL; BOUNDED is the paper's contribution;
HYBRID_COMPOUND and HYBRID_NSINGLE are the §7.5 ablations isolating which
added index pays for deletions vs insertions; PREFIX_COMPOUND is the §9
future-work option of ``2n`` n-ary compound indexes.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING

from ..constraints.foreign_key import ForeignKey
from ..indexes.definition import IndexDefinition, IndexKind

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


class IndexStructure(str, Enum):
    """Which combination of indexes supports the foreign key."""

    NO_INDEX = "no_index"
    FULL = "full"
    SINGLETON = "singleton"
    HYBRID = "hybrid"
    POWERSET = "powerset"
    BOUNDED = "bounded"
    HYBRID_COMPOUND = "hybrid_compound"
    HYBRID_NSINGLE = "hybrid_nsingle"
    PREFIX_COMPOUND = "prefix_compound"

    @property
    def label(self) -> str:
        """Display name matching the paper's terminology."""
        return {
            IndexStructure.NO_INDEX: "No Index",
            IndexStructure.FULL: "Full",
            IndexStructure.SINGLETON: "Singleton",
            IndexStructure.HYBRID: "Hybrid",
            IndexStructure.POWERSET: "Powerset",
            IndexStructure.BOUNDED: "Bounded",
            IndexStructure.HYBRID_COMPOUND: "Hybrid+Compound",
            IndexStructure.HYBRID_NSINGLE: "Hybrid+nSingle",
            IndexStructure.PREFIX_COMPOUND: "PrefixCompound",
        }[self]


#: The six structures evaluated head-to-head in §7.2.
PRIMARY_STRUCTURES = (
    IndexStructure.NO_INDEX,
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.POWERSET,
    IndexStructure.BOUNDED,
)

#: The §7.5 ablation set.
ABLATION_STRUCTURES = (
    IndexStructure.HYBRID,
    IndexStructure.HYBRID_COMPOUND,
    IndexStructure.HYBRID_NSINGLE,
    IndexStructure.BOUNDED,
)


def _compound(prefix: str, columns: tuple[str, ...], kind: IndexKind) -> IndexDefinition:
    return IndexDefinition(f"{prefix}_{'_'.join(columns)}", columns, kind)


def _singletons(
    prefix: str, columns: tuple[str, ...], kind: IndexKind
) -> list[IndexDefinition]:
    return [IndexDefinition(f"{prefix}_{c}", (c,), kind) for c in columns]


def _powerset(
    prefix: str, columns: tuple[str, ...], kind: IndexKind
) -> list[IndexDefinition]:
    defs = []
    for size in range(1, len(columns) + 1):
        for subset in combinations(columns, size):
            defs.append(_compound(prefix, subset, kind))
    return defs


def _rotations(
    prefix: str, columns: tuple[str, ...], kind: IndexKind
) -> list[IndexDefinition]:
    cols = list(columns)
    defs = []
    for i in range(len(cols)):
        rotation = tuple(cols[i:] + cols[:i])
        defs.append(_compound(f"{prefix}_rot{i}", rotation, kind))
    return defs


def _dedupe(definitions: list[IndexDefinition]) -> list[IndexDefinition]:
    """Drop repeated column sets (a 1-column FK makes the compound index
    coincide with the singleton; Bounded then degenerates to Full)."""
    seen: set[tuple[str, ...]] = set()
    unique = []
    for definition in definitions:
        if definition.columns in seen:
            continue
        seen.add(definition.columns)
        unique.append(definition)
    return unique


def index_definitions(
    fk: ForeignKey,
    structure: IndexStructure,
    kind: IndexKind = IndexKind.BTREE,
) -> tuple[list[IndexDefinition], list[IndexDefinition]]:
    """Return (parent_definitions, child_definitions) for *structure*.

    Index names are prefixed with the foreign-key name so structures of
    different constraints never collide in one catalog.
    """
    p = f"{fk.name}_p"
    c = f"{fk.name}_c"
    keys, fks = fk.key_columns, fk.fk_columns
    if structure is IndexStructure.NO_INDEX:
        return [], []
    if structure is IndexStructure.FULL:
        return [_compound(p, keys, kind)], [_compound(c, fks, kind)]
    if structure is IndexStructure.SINGLETON:
        return _singletons(p, keys, kind), _singletons(c, fks, kind)
    if structure is IndexStructure.HYBRID:
        return _singletons(p, keys, kind), [_compound(c, fks, kind)]
    if structure is IndexStructure.POWERSET:
        return _powerset(p, keys, kind), _powerset(c, fks, kind)
    if structure is IndexStructure.BOUNDED:
        return (
            _dedupe([_compound(p, keys, kind)] + _singletons(p, keys, kind)),
            _dedupe([_compound(c, fks, kind)] + _singletons(c, fks, kind)),
        )
    if structure is IndexStructure.HYBRID_COMPOUND:
        return (
            _dedupe([_compound(p, keys, kind)] + _singletons(p, keys, kind)),
            [_compound(c, fks, kind)],
        )
    if structure is IndexStructure.HYBRID_NSINGLE:
        return (
            _singletons(p, keys, kind),
            _dedupe([_compound(c, fks, kind)] + _singletons(c, fks, kind)),
        )
    if structure is IndexStructure.PREFIX_COMPOUND:
        return _dedupe(_rotations(p, keys, kind)), _dedupe(_rotations(c, fks, kind))
    raise ValueError(f"unknown index structure {structure!r}")


def index_count(fk: ForeignKey, structure: IndexStructure) -> int:
    """Total number of indexes the structure creates (both tables)."""
    parents, children = index_definitions(fk, structure)
    return len(parents) + len(children)


def apply_structure(
    db: "Database",
    fk: ForeignKey,
    structure: IndexStructure,
    kind: IndexKind = IndexKind.BTREE,
) -> list[str]:
    """Create the structure's indexes, one heap scan per table; returns
    the created index names."""
    parent_defs, child_defs = index_definitions(fk, structure, kind)
    db.create_indexes(fk.parent_table, parent_defs)
    db.create_indexes(fk.child_table, child_defs)
    return [definition.name for definition in parent_defs + child_defs]


def remove_structure(
    db: "Database", fk: ForeignKey, structure: IndexStructure
) -> None:
    """Drop the structure's indexes (ignoring ones already gone)."""
    parent_defs, child_defs = index_definitions(fk, structure)
    parent = db.table(fk.parent_table)
    child = db.table(fk.child_table)
    for definition in parent_defs:
        if definition.name in parent.indexes:
            parent.drop_index(definition.name)
    for definition in child_defs:
        if definition.name in child.indexes:
            child.drop_index(definition.name)
