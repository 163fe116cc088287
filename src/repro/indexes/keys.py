"""Encoding of column values into totally-ordered index keys.

B-tree keys must be totally ordered, but SQL values are not: ``NULL`` is
not comparable to anything, and heterogeneous Python values (``int`` vs
``str``) raise ``TypeError`` under ``<``.  Following MySQL's InnoDB
behaviour — which the paper's experiments ran on — null markers *are*
stored in secondary indexes and sort before every non-null value.

Each component value ``v`` is encoded as a 2-tuple:

* ``(0, 0)``   when ``v`` is the NULL marker (sorts first), and
* ``(1, v)``   otherwise.

A full index key over columns ``(c1..cm)`` is the tuple of encoded
components, so tuple comparison gives exactly the null-first columnwise
order.  Prefix relationships are preserved: the encoded key of a prefix of
columns is a prefix of the encoded key, which is what the planner's
leftmost-prefix rule relies on.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from typing import Any

from ..nulls import NULL

#: Encoded form of the NULL marker inside index keys.
NULL_COMPONENT: tuple[int, int] = (0, 0)

#: Type alias for one encoded component.
EncodedComponent = tuple[int, Any]

#: Sorts after every encoded component (their tags are 0 and 1), so
#: ``prefix + (AFTER_ALL,)`` is an exclusive upper bound of the keys
#: starting with ``prefix`` — the empty prefix too.
AFTER_ALL: EncodedComponent = (2, None)

#: Sorts after every row id.  An index entry is ``(*key, rid)``, so
#: past a full key the next element is the rid, an int that cannot be
#: compared with :data:`AFTER_ALL`: ``(*key, RID_AFTER_ALL)`` bounds the
#: entries of that key instead (row ids are dense heap slots).
RID_AFTER_ALL = sys.maxsize

#: Type alias for a full encoded key.
EncodedKey = tuple[EncodedComponent, ...]

#: One index entry: the encoded key's components, then the row id it
#: points at — ``(c1, …, cn, rid)``, so ``entry[-1]`` is the rid.  A
#: prefix of components is the inclusive low bound of the entries under
#: it, and :func:`prefix_end` their exclusive high bound.
Entry = tuple[Any, ...]

#: A row's components encoded once, indexed by column position; positions
#: no index covers are left as None.  Every index of the table picks its
#: entry out of this (the fan-out appends the rid) instead of re-encoding
#: per index.
EncodedRow = list

# Component interning.  Returning the same tuple object for the same
# small value lets tuple comparison inside bisects take CPython's
# identity fast path, and avoids one allocation per component on the
# insert/probe hot paths.  NULL_COMPONENT is the degenerate case (a
# single shared tuple); small non-negative ints get a precomputed table
# and short strings a bounded memo.
_INT_INTERN_LIMIT = 2048
_INT_COMPONENTS: tuple[EncodedComponent, ...] = tuple(
    (1, i) for i in range(_INT_INTERN_LIMIT)
)
_STR_INTERN_MAX_LEN = 32
_STR_CACHE_LIMIT = 4096
_STR_COMPONENTS: dict[str, EncodedComponent] = {}


def encode_component(value: Any) -> EncodedComponent:
    """Encode one column value for use inside an index key."""
    if value is NULL:
        return NULL_COMPONENT
    if type(value) is int and 0 <= value < _INT_INTERN_LIMIT:
        return _INT_COMPONENTS[value]
    if type(value) is str and len(value) <= _STR_INTERN_MAX_LEN:
        component = _STR_COMPONENTS.get(value)
        if component is None:
            if len(_STR_COMPONENTS) >= _STR_CACHE_LIMIT:
                _STR_COMPONENTS.clear()
            component = (1, value)
            _STR_COMPONENTS[value] = component
        return component
    return (1, value)


def encode_key(values: Sequence[Any]) -> EncodedKey:
    """Encode a sequence of column values into a sortable index key."""
    return tuple([encode_component(v) for v in values])


def encode_row(row: Sequence[Any], positions: Sequence[int] | None = None) -> EncodedRow:
    """Encode the components of *row* once, for all indexes to slice.

    With *positions* (the union of every index's column positions), only
    those components are encoded; the rest stay None so wide rows with
    narrow indexes do not pay for unindexed columns.
    """
    if positions is None:
        return [encode_component(v) for v in row]
    encoded: EncodedRow = [None] * len(row)
    for p in positions:
        encoded[p] = encode_component(row[p])
    return encoded


def prefix_end(prefix: EncodedKey, width: int) -> tuple[Any, ...]:
    """Exclusive upper bound of the index entries ``(c1, …, c_width,
    rid)`` whose key starts with *prefix*; *prefix* itself is the
    inclusive lower bound, since it sorts before every extension.

    A proper prefix (the empty one too) ends in :data:`AFTER_ALL`, which
    sorts after the next component whatever it is; a full key ends in
    :data:`RID_AFTER_ALL`, which sorts after every rid.
    """
    return (*prefix, AFTER_ALL if len(prefix) < width else RID_AFTER_ALL)


def decode_key(key: EncodedKey) -> tuple[Any, ...]:
    """Invert :func:`encode_key`."""
    return tuple(NULL if tag == 0 else value for tag, value in key)


def key_has_prefix(key: EncodedKey, prefix: EncodedKey) -> bool:
    """Return True iff *key* starts with *prefix* componentwise."""
    return key[: len(prefix)] == prefix
