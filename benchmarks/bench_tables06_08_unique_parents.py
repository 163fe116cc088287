"""Tables 6/7/8 — deleting unique vs non-unique parents.

Paper (§7.5): a *unique* parent is one whose children all have no other
parent; deleting it forces the referential action and makes every
alternative-parent probe fail.  Hybrid is catastrophic there (failed
probes become full scans); Bounded keeps both parent kinds cheap;
Hybrid+Compound only helps the non-unique case.
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream

from conftest import deletes, synthetic, time_each

STRUCTURES = [
    IndexStructure.HYBRID,
    IndexStructure.BOUNDED,
    IndexStructure.HYBRID_COMPOUND,
]

ROUNDS = 12


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
@pytest.mark.parametrize("kind", ["unique", "nonunique"])
def test_delete_by_parent_kind(benchmark, cells, structure, kind):
    cell = cells(synthetic, structure, unique_parent_fraction=0.3)
    keys = delete_stream(
        cell, ROUNDS + 5,
        seed=4 if kind == "unique" else 5,
        from_unique=(kind == "unique"),
    )
    time_each(benchmark, deletes(cell), keys, ROUNDS)
