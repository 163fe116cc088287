"""§9 ablation — engine-level enforcement vs the trigger + Bounded path.

The paper's future work asks whether "an engine level implementation"
with "custom index data structures that leverage partial and adaptive
indexing methods" could beat the trigger approach.  This benchmark pits
:class:`repro.core.engine_level.EngineLevelEnforcement` — a state-
partitioned O(1) child structure plus a subset-counting O(1) parent
structure — against Bounded.
"""

from repro.core import IndexStructure
from repro.core.engine_level import EngineLevelEnforcement
from repro.workloads.synthetic import delete_stream, insert_stream
from repro.workloads.synthetic import generate as generate_synthetic

from conftest import deletes, inserts, micro_config, synthetic, time_each


def engine_level():
    dataset = generate_synthetic(micro_config())
    EngineLevelEnforcement(dataset.db, dataset.fk)
    return dataset


def test_insert_engine_level(benchmark, cells):
    cell = cells(engine_level)
    rows = insert_stream(cell, 130, seed=18)
    time_each(benchmark, inserts(cell), rows, rounds=120)


def test_insert_bounded_triggers(benchmark, cells):
    cell = cells(synthetic, IndexStructure.BOUNDED)
    rows = insert_stream(cell, 130, seed=18)
    time_each(benchmark, inserts(cell), rows, rounds=120)


def test_delete_engine_level(benchmark, cells):
    cell = cells(engine_level)
    keys = delete_stream(cell, 35, seed=18)
    time_each(benchmark, deletes(cell), keys, rounds=30)


def test_delete_bounded_triggers(benchmark, cells):
    cell = cells(synthetic, IndexStructure.BOUNDED)
    keys = delete_stream(cell, 35, seed=18)
    time_each(benchmark, deletes(cell), keys, rounds=30)


def test_engine_level_probes_are_constant(cells):
    """Counter-level claim: no scans, no B-tree probe blocks — every
    enforcement search is an O(1) structure lookup."""
    cell = cells(engine_level)
    cell.db.tracker.reset()
    for key in delete_stream(cell, 10, seed=19):
        deletes(cell)(key)
    assert cell.db.tracker["full_scans"] == 0
