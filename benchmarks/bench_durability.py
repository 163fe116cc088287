"""The durability tax — file-backed WAL throughput vs the in-memory log.

One micro cell per commit discipline of
:data:`repro.bench.experiments.DURABILITY_MODES`, over the same
autocommit insert stream through one session.  The ``durability``
experiment (``python -m repro experiment durability``) prints commits/s
and physical syncs per commit, and fails unless deferred commits share
their fsyncs.
"""

import pytest

from repro.bench import experiments
from repro.bench.scale import default_plan

from conftest import time_each


@pytest.mark.parametrize("mode", experiments.DURABILITY_MODES)
def test_commit_throughput(benchmark, mode):
    ops = default_plan().insert_ops
    result = time_each(
        benchmark, lambda _: experiments.run_commits(mode, ops), [None], rounds=1
    )
    assert result["ops"] == ops
