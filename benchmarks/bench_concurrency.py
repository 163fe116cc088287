"""Concurrent enforcement — throughput and lock behaviour under load.

Micro cells: one mixed insert+delete workload cell per (structure,
thread count), Bounded vs Hybrid, through the multi-session engine, plus
MVCC snapshot-read mixes (90:10 and 99:1) whose readers must acquire
zero logical locks.  The full thread grids are the ``concurrency`` and
``read_mix`` experiments (``python -m repro experiment concurrency``).
"""

import pytest

from repro.bench import concurrency
from repro.bench.scale import default_plan

from conftest import time_each

THREADS = (1, 2, 4)


@pytest.mark.parametrize(
    "structure", concurrency.STRUCTURES, ids=lambda s: s.label
)
@pytest.mark.parametrize("n_threads", THREADS)
def test_concurrent_mixed_workload(benchmark, structure, n_threads):
    plan = default_plan()
    result = time_each(
        benchmark, lambda _: concurrency.run_cell(structure, n_threads, plan),
        [None], rounds=1,
    )
    assert result.clean, "integrity violated under concurrency"


@pytest.mark.parametrize("read_pct", concurrency.READ_MIXES)
@pytest.mark.parametrize("n_threads", THREADS)
def test_snapshot_read_mix(benchmark, read_pct, n_threads):
    """MVCC read:write mix — snapshot readers must take zero locks."""
    plan = default_plan()
    result = time_each(
        benchmark,
        lambda _: concurrency.run_read_mix_cell(
            concurrency.STRUCTURES[0], n_threads, plan, read_pct=read_pct
        ),
        [None], rounds=1,
    )
    assert result.clean, "integrity violated under snapshot reads"
    assert result.reader_lock_acquires == 0, "snapshot readers took locks"
    assert result.reader_lock_waits == 0, "snapshot readers waited on locks"
