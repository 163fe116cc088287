"""Figure 10 — deletions with 5-column foreign keys, all structures.

The superset view of the deletion comparison: the six §6.2 structures
plus the §7.5 ablations side by side.  Bounded is the only structure
fast under both insertions (Figure 8/9) and deletions (this figure).
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream

from conftest import deletes, synthetic, time_each

ALL_STRUCTURES = [
    IndexStructure.NO_INDEX,
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.HYBRID_COMPOUND,
    IndexStructure.HYBRID_NSINGLE,
    IndexStructure.POWERSET,
    IndexStructure.BOUNDED,
]


@pytest.mark.parametrize("structure", ALL_STRUCTURES, ids=lambda s: s.label)
def test_delete_all_structures(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, deletes(cell), delete_stream(cell, 25, seed=11), 20)
