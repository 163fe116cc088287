"""§9 future-work ablation — Bounded vs the 2n-compound option.

The paper's closing analysis: an option with ``2n`` n-ary compound
indexes (rotations over the key/foreign-key columns) supports partial-
match look-ups by prefixes, but Bounded still deletes >3x faster on
15M-row sets, builds 1.5-4x cheaper, and the rotations cover only 21 of
the 31 match queries at n = 5.
"""

import pytest

from repro.core import IndexStructure
from repro.core.states import sargable_states_with_prefix_indexes, total_state_count
from repro.workloads.synthetic import delete_stream

from conftest import deletes, synthetic, time_each

PAIR = [IndexStructure.BOUNDED, IndexStructure.PREFIX_COMPOUND]


@pytest.mark.parametrize("n_columns", [3, 4, 5], ids=["n3", "n4", "n5"])
@pytest.mark.parametrize("structure", PAIR, ids=lambda s: s.label)
def test_delete_prefix_compound(benchmark, cells, structure, n_columns):
    cell = cells(synthetic, structure, n_columns=n_columns)
    time_each(benchmark, deletes(cell), delete_stream(cell, 25, seed=17), 20)


def test_match_query_coverage():
    """The paper's combinatorial claim, independent of any timing."""
    assert sargable_states_with_prefix_indexes(5) == 21
    assert total_state_count(5) == 31
