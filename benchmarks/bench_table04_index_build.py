"""Table 4 — time to load the data and build each index structure.

Paper findings: building Powerset is prohibitive (3h53m at 15M vs 10min
for Hybrid); Bounded costs ~1.5x Hybrid — a feasible one-time price.
"""

import pytest

from repro.core import IndexStructure, apply_structure, remove_structure
from repro.workloads.synthetic import generate as generate_synthetic

from conftest import micro_config, time_each

STRUCTURES = [
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.POWERSET,
    IndexStructure.BOUNDED,
    IndexStructure.PREFIX_COMPOUND,
]

ROUNDS = 3


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_index_build(benchmark, structure):
    """Build the whole structure over a pre-loaded dataset per round."""
    dataset = generate_synthetic(micro_config())
    db, fk = dataset.db, dataset.fk
    # The first build is untimed; every round drops, then times a rebuild.
    apply_structure(db, fk, structure)
    dropped = (remove_structure(db, fk, structure) for __ in range(ROUNDS))
    time_each(benchmark, lambda __: apply_structure(db, fk, structure), dropped, ROUNDS)
